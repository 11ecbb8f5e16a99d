"""The profiler: run a CNN on a (simulated) GPU instance and collect records.

This is the reproduction's equivalent of the paper's measurement harness —
training each CNN on TensorFlow r1.14 on an AWS instance and extracting
per-op compute times from the profiler over 1,000 iterations (Section III).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from repro.errors import ProfilingError
from repro.graph.graph import OpGraph
from repro.models.zoo import build_model
from repro.obs.metrics import default_registry
from repro.obs.spans import span
from repro.profiling.features import features_for
from repro.profiling.records import ProfileDataset, ProfileRecord
from repro.sim.executor import run_iterations


class Profiler:
    """Collects operation-level compute-time profiles.

    Args:
        n_iterations: iterations each (model, GPU) pair is measured over;
            the paper uses 1,000. Lower values speed experiments up at the
            cost of noisier statistics.
        batch_size: per-GPU batch size used for profiling (paper default 32).
    """

    def __init__(self, n_iterations: int = 1000, batch_size: int = 32) -> None:
        if n_iterations < 2:
            raise ProfilingError("n_iterations must be >= 2")
        self.n_iterations = n_iterations
        self.batch_size = batch_size

    def profile(
        self,
        model: Union[str, OpGraph],
        gpu_key: str,
        seed_context: str = "",
    ) -> ProfileDataset:
        """Profile one model on one GPU type; one record per operation."""
        graph = (
            build_model(model, batch_size=self.batch_size)
            if isinstance(model, str)
            else model
        )
        with span(
            "profile.run", model=graph.name, gpu=gpu_key,
            iterations=self.n_iterations,
        ):
            op_by_name = {}
            duplicates = set()
            for op in graph.operations:
                if op.name in op_by_name:
                    duplicates.add(op.name)
                op_by_name[op.name] = op
            if duplicates:
                # A name collision would silently attribute every colliding
                # timing to whichever op won the dict insertion — corrupt
                # features with no error. Refuse instead.
                raise ProfilingError(
                    f"graph {graph.name!r} has duplicate operation names "
                    f"{sorted(duplicates)}; profile records cannot be "
                    f"attributed unambiguously"
                )
            profile = run_iterations(graph, gpu_key, self.n_iterations, seed_context)
            records = [
                ProfileRecord.from_timing(
                    graph.name, timing, features_for(op_by_name[timing.op_name])
                )
                for timing in profile.timings
            ]
        metrics = default_registry()
        metrics.counter("profiling.runs", gpu=gpu_key).inc()
        metrics.counter("profiling.records").inc(len(records))
        return ProfileDataset(records)

    def profile_many(
        self,
        models: Sequence[Union[str, OpGraph]],
        gpu_keys: Iterable[str],
        seed_context: str = "",
    ) -> ProfileDataset:
        """Profile every (model, GPU) pair and merge the results."""
        gpu_list = list(gpu_keys)
        with span(
            "profile.sweep", models=len(models), gpus=len(gpu_list),
            iterations=self.n_iterations,
        ):
            datasets = [
                self.profile(model, gpu_key, seed_context)
                for model in models
                for gpu_key in gpu_list
            ]
            if not datasets:
                raise ProfilingError("profile_many called with no (model, GPU) pairs")
            return ProfileDataset.concat(datasets)
