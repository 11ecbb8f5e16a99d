"""Figure 4: ReLU compute time vs input size, with regression fits.

Paper, Section III-C: the compute time of the ReLU operation scales with
its input data size on every GPU model; the solid lines are the linear
regression fits Ceer uses (Section IV-B). This driver reproduces both the
scatter (one point per profiled ReLU instance) and the per-GPU fit, and
reports fit quality. The same analysis can be pointed at any heavy op type
(e.g. ``Conv2DBackpropFilter`` to see the quadratic-fit case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import format_table
from repro.artifacts.workspace import Workspace, active_workspace
from repro.core.regression import RegressionModel, fit_regression
from repro.experiments.common import CANONICAL_ITERATIONS
from repro.hardware.gpus import GPU_KEYS
from repro.obs.spans import traced
from repro.profiling.features import feature_schema
from repro.profiling.records import ProfileDataset


@dataclass
class Fig4Result:
    """Per-GPU scatter points and regression fit for one op type."""

    op_type: str
    #: gpu -> list of (input MB, mean time us) scatter points
    points: Dict[str, List[Tuple[float, float]]]
    fits: Dict[str, RegressionModel]

    def render(self) -> str:
        rows = []
        for gpu_key in GPU_KEYS:
            if gpu_key not in self.fits:
                continue
            fit = self.fits[gpu_key]
            pts = self.points[gpu_key]
            sizes = [p[0] for p in pts]
            rows.append(
                [
                    gpu_key,
                    len(pts),
                    min(sizes),
                    max(sizes),
                    "quadratic" if fit.degree == 2 else "linear",
                    fit.r2,
                ]
            )
        table = format_table(
            ["GPU", "points", "min MB", "max MB", "fit", "R^2"],
            rows,
            title=f"Fig 4 - {self.op_type} compute time vs input size",
        )
        samples = []
        for gpu_key in GPU_KEYS:
            pts = sorted(self.points.get(gpu_key, []))
            if len(pts) >= 3:
                picks = [pts[0], pts[len(pts) // 2], pts[-1]]
                samples.append(
                    f"  {gpu_key}: "
                    + "  ".join(f"{mb:8.1f} MB -> {us:9.1f} us" for mb, us in picks)
                )
        return "\n".join([table, "sample points (min/median/max input size):", *samples])


@traced("experiments.fig4")
def run_fig4(
    op_type: str = "Relu",
    profiles: ProfileDataset = None,
    n_iterations: int = CANONICAL_ITERATIONS,
    workspace: Optional[Workspace] = None,
) -> Fig4Result:
    """Regenerate Figure 4 for ``op_type`` (default: the paper's ReLU)."""
    if profiles is None:
        profiles = (workspace or active_workspace()).training_profiles(n_iterations)
    subset = profiles.gpu_records().for_op_type(op_type)
    points: Dict[str, List[Tuple[float, float]]] = {}
    fits: Dict[str, RegressionModel] = {}
    for gpu_key in subset.gpu_keys():
        rows = subset.for_gpu(gpu_key)
        points[gpu_key] = [
            (input_bytes / 1e6, mean_us) for input_bytes, mean_us
            in zip(rows.input_bytes.tolist(), rows.mean_us.tolist())
        ]
        fits[gpu_key] = fit_regression(
            rows.feature_matrix(), rows.mean_us, feature_schema(op_type)
        )
    return Fig4Result(op_type=op_type, points=points, fits=fits)
