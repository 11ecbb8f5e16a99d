"""Leave-one-GPU-out evaluation of the cross-hardware transfer backend.

The paper fits every compute-time regression per (GPU model, op type) —
it cannot say anything about a GPU it never profiled. The transfer
backend (DESIGN.md section 5h) pools all GPUs' profile rows and fits each
heavy op type once on size features crossed with normalized device
features, so a *spec-only* GPU gets a synthesized model. This study
quantifies what that extrapolation costs: for each profiled GPU, fit the
transfer model on the other GPUs only and score its heavy-op MAPE on the
holdout — against the in-sample MAPE of the paper's own per-GPU fits on
the same rows (the accuracy floor a never-profiled GPU is giving up).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.reporting import format_table
from repro.artifacts.workspace import Workspace
from repro.core.classify import classify_operations
from repro.core.transfer import LogoReport, logo_report
from repro.experiments.common import CANONICAL_ITERATIONS, training_profiles
from repro.obs.spans import traced


@dataclass
class TransferLogoResult:
    """Per-holdout-GPU transfer error vs the paper's in-sample fits."""

    report: LogoReport

    def render(self) -> str:
        rows = [
            [
                fold.gpu_key,
                fold.n_rows,
                fold.n_op_types,
                f"{fold.transfer_mape:.1%}",
                f"{fold.per_gpu_mape:.1%}",
            ]
            for fold in self.report.folds
        ]
        table = format_table(
            ["holdout GPU", "heavy rows", "op types",
             "transfer MAPE", "per-GPU MAPE (in-sample)"],
            rows,
            title="Extension - leave-one-GPU-out transfer accuracy "
                  f"(device features vs {self.report.reference_gpu})",
        )
        return (
            f"{table}\n"
            "transfer MAPE: heavy-op error on a GPU the pooled fit never "
            "saw;\nper-GPU MAPE: the paper's own fits scored in-sample on "
            "the same rows."
        )


@traced("experiments.ext.transfer_logo")
def run_transfer_logo(
    n_iterations: int = CANONICAL_ITERATIONS,
    workspace: Optional[Workspace] = None,
    allow_quadratic: bool = True,
) -> TransferLogoResult:
    """Score every leave-one-GPU-out fold of the transfer backend."""
    profiles = training_profiles(n_iterations, workspace=workspace)
    classification = classify_operations(profiles)
    report = logo_report(profiles, classification, allow_quadratic=allow_quadratic)
    return TransferLogoResult(report=report)
