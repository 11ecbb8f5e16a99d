"""Per-model time breakdowns: where does an iteration actually go?

Tooling behind the paper's Section III narrative ("the pooling operations
have high compute times ...", "20 heavy operations contribute 47-94% of
the training time"): decompose a model's per-iteration time by op type,
by category, and by device, from either a profile or a prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.analysis.reporting import format_table, format_us
from repro.graph.graph import OpGraph
from repro.graph.ops import op_def
from repro.models.zoo import build_model
from repro.profiling.profiler import Profiler
from repro.profiling.records import ProfileDataset, left_sum


@dataclass
class TimeBreakdown:
    """Per-iteration time decomposition for one (model, GPU) pair."""

    model: str
    gpu_key: str
    by_op_type: Dict[str, float]  # op type -> total us per iteration
    instances: Dict[str, int]  # op type -> instance count
    by_device: Dict[str, float]  # "GPU"/"CPU" -> total us

    @property
    def total_us(self) -> float:
        return sum(self.by_op_type.values())

    def share(self, op_type: str) -> float:
        return self.by_op_type.get(op_type, 0.0) / self.total_us

    def top(self, n: int = 10) -> List[Tuple[str, float]]:
        """The ``n`` op types with the largest time share, descending."""
        ranked = sorted(self.by_op_type.items(), key=lambda kv: -kv[1])
        return ranked[:n]

    def coverage(self, op_types) -> float:
        """Fraction of iteration time covered by a set of op types —
        the paper's '20 heavy operations contribute 47-94%' metric."""
        covered = sum(self.by_op_type.get(t, 0.0) for t in op_types)
        return covered / self.total_us

    def render(self, top_n: int = 12) -> str:
        rows = []
        for op_type, total in self.top(top_n):
            rows.append(
                [
                    op_type,
                    op_def(op_type).category.value,
                    self.instances[op_type],
                    format_us(total),
                    f"{self.share(op_type):.1%}",
                ]
            )
        table = format_table(
            ["op type", "category", "#", "time/iter", "share"],
            rows,
            title=f"Per-iteration time breakdown: {self.model} on {self.gpu_key} "
                  f"({format_us(self.total_us)} total)",
        )
        device_line = "  ".join(
            f"{device}: {format_us(total)} ({total / self.total_us:.1%})"
            for device, total in sorted(self.by_device.items())
        )
        return f"{table}\ndevice split: {device_line}"


def breakdown_from_profile(profile: ProfileDataset) -> TimeBreakdown:
    """Build a breakdown from an existing single-(model, GPU) profile."""
    models = profile.models()
    gpus = profile.gpu_keys()
    if len(models) != 1 or len(gpus) != 1:
        raise ValueError(
            f"breakdown needs a single (model, GPU) profile, got "
            f"models={models}, gpus={gpus}"
        )
    by_type = profile.group_by_op_type()
    by_device = {
        device: left_sum(rows.mean_us.tolist())
        for device, rows in (("GPU", profile.gpu_records()), ("CPU", profile.cpu_records()))
        if rows
    }
    return TimeBreakdown(
        model=models[0], gpu_key=gpus[0],
        by_op_type=profile.total_us_by_op_type(),
        instances={op_type: len(rows) for op_type, rows in by_type.items()},
        by_device=by_device,
    )


def profile_breakdown(
    model: Union[str, OpGraph],
    gpu_key: str,
    n_iterations: int = 300,
    batch_size: int = 32,
) -> TimeBreakdown:
    """Profile a model on one GPU and return its time breakdown."""
    graph = (
        build_model(model, batch_size=batch_size)
        if isinstance(model, str)
        else model
    )
    profile = Profiler(n_iterations=n_iterations, batch_size=batch_size).profile(
        graph, gpu_key
    )
    return breakdown_from_profile(profile)
