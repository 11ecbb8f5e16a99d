"""Figure 5: CDF of normalized standard deviation of heavy-op compute times.

Paper, Section III-C: for each {heavy GPU operation, input size} pair, the
standard deviation of compute time across 1,000 iterations, normalised by
the mean, is small — 95% of values below 0.1 — on every GPU model. Light
GPU and CPU ops exhibit much higher normalized deviation, which is why
Ceer models them with medians instead of regressions (Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.reporting import format_table
from repro.analysis.stats import fraction_below, percentile_of
from repro.artifacts.workspace import Workspace, active_workspace
from repro.core.classify import classify_operations
from repro.experiments.common import CANONICAL_ITERATIONS
from repro.obs.spans import traced
from repro.profiling.records import ProfileDataset


@dataclass
class Fig5Result:
    """Normalized-std distributions for heavy GPU, light GPU, and CPU ops."""

    heavy_by_gpu: Dict[str, List[float]]
    light_values: List[float]
    cpu_values: List[float]

    @property
    def heavy_all(self) -> List[float]:
        return [v for values in self.heavy_by_gpu.values() for v in values]

    def render(self) -> str:
        rows = []
        for gpu_key, values in sorted(self.heavy_by_gpu.items()):
            rows.append(
                [
                    gpu_key,
                    len(values),
                    percentile_of(values, 50),
                    percentile_of(values, 95),
                    fraction_below(values, 0.1),
                ]
            )
        table = format_table(
            ["GPU", "heavy ops", "p50 nstd", "p95 nstd", "frac < 0.1"],
            rows,
            title="Fig 5 - normalized std of heavy-op compute times, per GPU",
        )
        extra = [
            "",
            f"heavy ops overall: p95 = {percentile_of(self.heavy_all, 95):.3f}, "
            f"{fraction_below(self.heavy_all, 0.1):.1%} below 0.1",
            f"light GPU ops:     p50 = {percentile_of(self.light_values, 50):.3f} "
            f"(high variability -> median estimator)",
            f"CPU ops:           p50 = {percentile_of(self.cpu_values, 50):.3f} "
            f"(high variability -> median estimator)",
        ]
        return "\n".join([table, *extra])


@traced("experiments.fig5")
def run_fig5(
    profiles: ProfileDataset = None,
    n_iterations: int = CANONICAL_ITERATIONS,
    workspace: Optional[Workspace] = None,
) -> Fig5Result:
    """Regenerate Figure 5 from (workspace-cached) training-set profiles."""
    if profiles is None:
        profiles = (workspace or active_workspace()).training_profiles(n_iterations)
    classification = classify_operations(profiles)
    gpu_records = profiles.gpu_records()
    heavy = gpu_records.op_type_mask(classification.heavy)
    return Fig5Result(
        heavy_by_gpu={
            gpu_key: rows.normalized_std().tolist()
            for gpu_key, rows in gpu_records.select(heavy).group_by_gpu().items()
        },
        light_values=gpu_records.normalized_std()[~heavy].tolist(),
        cpu_values=profiles.cpu_records().normalized_std().tolist(),
    )
