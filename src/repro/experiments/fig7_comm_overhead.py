"""Figure 7: per-iteration communication overhead vs model parameters.

Paper, Section IV-C: for k=2 GPUs (and similarly 3 and 4), the measured
per-iteration communication overhead of data parallelism is nearly linear
in the CNN's parameter count, for every GPU model — the relationship
Ceer's S_GPU model regresses (R² 0.88-0.98 in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.artifacts.workspace import Workspace, active_workspace
from repro.core.comm_model import (
    CommObservation,
    CommunicationModel,
    fit_comm_model,
)
from repro.hardware.gpus import GPU_KEYS
from repro.models.zoo import TRAIN_MODELS
from repro.obs.spans import traced
from repro.units import us_to_ms


@dataclass
class Fig7Result:
    """Comm-overhead observations and fitted per-(GPU, k) linear models."""

    observations: List[CommObservation]
    model: CommunicationModel
    gpu_counts: Tuple[int, ...]

    def points(self, gpu_key: str, num_gpus: int) -> List[Tuple[float, float]]:
        """(Mparams, overhead us) scatter for one GPU model and GPU count."""
        return sorted(
            (o.num_parameters / 1e6, o.overhead_us)
            for o in self.observations
            if o.gpu_key == gpu_key and o.num_gpus == num_gpus
        )

    def render(self) -> str:
        rows = []
        for gpu_key in GPU_KEYS:
            for k in self.gpu_counts:
                key = (gpu_key, k)
                if key not in self.model.models:
                    continue
                fit = self.model.models[key]
                rows.append(
                    [
                        gpu_key, k,
                        fit.intercept / 1e3,
                        fit.coef[0] / 1e3,
                        fit.r2,
                    ]
                )
        table = format_table(
            ["GPU", "k", "intercept ms", "slope ms/Mparam", "R^2"],
            rows,
            title="Fig 7 - comm overhead vs #parameters: linear fits",
        )
        k2 = [
            f"  {gpu_key}: " + "  ".join(
                f"({mp:5.0f}Mp, {us_to_ms(us):7.1f}ms)" for mp, us in self.points(gpu_key, 2)[::3]
            )
            for gpu_key in GPU_KEYS
        ]
        return "\n".join([table, "k=2 scatter (every 3rd point):", *k2])


@traced("experiments.fig7")
def run_fig7(
    models: Sequence[str] = TRAIN_MODELS,
    gpu_counts: Tuple[int, ...] = (1, 2, 3, 4),
    n_iterations: int = 300,
    workspace: Optional[Workspace] = None,
) -> Fig7Result:
    """Regenerate Figure 7: fit the linear models to the (workspace-cached)
    overheads the fit measured."""
    observations = (workspace or active_workspace()).comm_observations(
        models, GPU_KEYS, gpu_counts, n_iterations
    )
    model = fit_comm_model(observations)
    return Fig7Result(
        observations=observations, model=model, gpu_counts=gpu_counts
    )
