"""Figure 2: operation-level compute times across AWS GPU models.

Paper, Section III-A: compute time per heavy GPU op type, averaged over
1,000 iterations of the 8 training-set CNNs, on all four GPU models.
Headline observations reproduced here:

* consistent relative ranking with P3 fastest and P2 (almost always)
  slowest — G3 beats P2 on average but loses for some memory-bound ops;
* averaged across heavy ops, P3 is several times faster than P2 and G4
  (the paper reports ~10x and ~4x; our simulated substrate compresses
  these to ~6x and ~3x — see EXPERIMENTS.md);
* the ~20 heavy op types cover the overwhelming share (47-94% per CNN) of
  training time, and light ops contribute only a few percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.reporting import format_table
from repro.artifacts.workspace import Workspace, active_workspace
from repro.core.classify import OpClassification, classify_operations
from repro.experiments.common import CANONICAL_ITERATIONS
from repro.hardware.gpus import GPU_KEYS
from repro.obs.spans import traced
from repro.profiling.records import ProfileDataset


@dataclass
class Fig2Result:
    """Mean compute time per (heavy op type, GPU model), microseconds."""

    mean_us: Dict[str, Dict[str, float]]  # op_type -> gpu_key -> mean us
    classification: OpClassification
    ratio_p2_over_p3: float
    ratio_g4_over_p3: float
    ratio_p2_over_g3: float
    heavy_time_share_per_model: Dict[str, float]
    light_time_share_overall: float

    def render(self) -> str:
        rows = []
        for op_type in sorted(self.mean_us):
            per_gpu = self.mean_us[op_type]
            rows.append(
                [op_type] + [per_gpu.get(g, float("nan")) for g in GPU_KEYS]
            )
        table = format_table(
            ["heavy op type", "P3 (V100)", "P2 (K80)", "G4 (T4)", "G3 (M60)"],
            rows,
            title="Fig 2 - mean compute time per heavy GPU op type (us)",
            float_format="{:.1f}",
        )
        share_lines = [
            f"  {model}: {share:.1%}"
            for model, share in sorted(self.heavy_time_share_per_model.items())
        ]
        return "\n".join(
            [
                table,
                "",
                f"avg compute-time ratios: P2/P3 = {self.ratio_p2_over_p3:.2f}x, "
                f"G4/P3 = {self.ratio_g4_over_p3:.2f}x, "
                f"P2/G3 = {self.ratio_p2_over_g3:.2f}x",
                f"light-op share of training time: {self.light_time_share_overall:.1%}",
                "heavy-op share of per-iteration time, per training CNN:",
                *share_lines,
            ]
        )


@traced("experiments.fig2")
def run_fig2(
    profiles: ProfileDataset = None,
    n_iterations: int = CANONICAL_ITERATIONS,
    workspace: Optional[Workspace] = None,
) -> Fig2Result:
    """Regenerate Figure 2 from (workspace-cached) training-set profiles."""
    if profiles is None:
        profiles = (workspace or active_workspace()).training_profiles(n_iterations)
    classification = classify_operations(profiles)
    gpu_records = profiles.gpu_records()

    mean_us: Dict[str, Dict[str, float]] = {}
    for gpu_key in GPU_KEYS:
        for op_type, mean in gpu_records.for_gpu(gpu_key).mean_us_by_op_type().items():
            if op_type in classification.heavy:
                mean_us.setdefault(op_type, {})[gpu_key] = mean

    def _avg_ratio(numer: str, denom: str) -> float:
        ratios = [
            per_gpu[numer] / per_gpu[denom]
            for per_gpu in mean_us.values()
            if numer in per_gpu and denom in per_gpu
        ]
        return sum(ratios) / len(ratios)

    heavy_share: Dict[str, float] = {}
    light_total = 0.0
    gpu_total = 0.0
    for model in profiles.models():
        subset = gpu_records.for_model(model)
        means = subset.mean_us
        total = sum(means.tolist())
        heavy = sum(means[subset.op_type_mask(classification.heavy)].tolist())
        heavy_share[model] = heavy / total
        light_total += total - heavy
        gpu_total += total

    return Fig2Result(
        mean_us=mean_us,
        classification=classification,
        ratio_p2_over_p3=_avg_ratio("K80", "V100"),
        ratio_g4_over_p3=_avg_ratio("T4", "V100"),
        ratio_p2_over_g3=_avg_ratio("K80", "M60"),
        heavy_time_share_per_model=heavy_share,
        light_time_share_overall=light_total / gpu_total,
    )
