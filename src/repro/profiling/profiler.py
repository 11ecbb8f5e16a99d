"""The profiler: run a CNN on a (simulated) GPU instance and collect records.

This is the reproduction's equivalent of the paper's measurement harness —
training each CNN on TensorFlow r1.14 on an AWS instance and extracting
per-op compute times from the profiler over 1,000 iterations (Section III).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from repro.errors import ProfilingError
from repro.graph.graph import OpGraph
from repro.models.zoo import build_model
from repro.obs.metrics import default_registry
from repro.obs.spans import span
from repro.profiling.features import features_for
from repro.profiling.records import ProfileColumns, ProfileDataset, pad_features
from repro.sim.executor import MEAN, MEDIAN, STD, cell_stats


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
        graph = self._graph(model)
        return self._profile(graph, _feature_columns(graph), gpu_key, seed_context)

    def profile_many(
        self,
        models: Sequence[Union[str, OpGraph]],
        gpu_keys: Iterable[str],
        seed_context: str = "",
    ) -> ProfileDataset:
        """Profile every (model, GPU) pair and merge the results.

        A model's feature rows depend on its graph only, so they are
        computed once and shared by its GPUs. The cells' columns are
        copied once, into the merged dataset.
        """
        gpu_list = list(gpu_keys)
        with span(
            "profile.sweep", models=len(models), gpus=len(gpu_list),
            iterations=self.n_iterations,
        ):
            datasets = []
            for model in models:
                graph = self._graph(model)
                features = _feature_columns(graph)
                datasets.extend(
                    self._profile(graph, features, gpu_key, seed_context)
                    for gpu_key in gpu_list
                )
            if not datasets:
                raise ProfilingError("profile_many called with no (model, GPU) pairs")
            return ProfileDataset.concat(datasets)

    def _graph(self, model: Union[str, OpGraph]) -> OpGraph:
        if isinstance(model, str):
            return build_model(model, batch_size=self.batch_size)
        return model

    def _profile(
        self,
        graph: OpGraph,
        features: Tuple[np.ndarray, np.ndarray],
        gpu_key: str,
        seed_context: str,
    ) -> ProfileDataset:
        """One cell's dataset, filled from the simulator's statistics
        columns and the graph's op table."""
        with span(
            "profile.run", model=graph.name, gpu=gpu_key,
            iterations=self.n_iterations,
        ):
            names = Counter(op.name for op in graph.operations)
            duplicates = [name for name, count in names.items() if count > 1]
            if duplicates:
                # Records are told apart by op name downstream; a collision
                # would make them ambiguous with no error. Refuse instead.
                raise ProfilingError(
                    f"graph {graph.name!r} has duplicate operation names "
                    f"{sorted(duplicates)}; profile records cannot be "
                    f"attributed unambiguously"
                )
            key, stats = cell_stats(graph, gpu_key, self.n_iterations, seed_context)
            table = graph.op_table()
            n_ops = len(table)
            width, matrix = features
            columns = ProfileColumns(
                models=(graph.name,), gpus=(key,), op_types=table.type_names,
                model=np.zeros(n_ops, np.intp), gpu=np.zeros(n_ops, np.intp),
                op_type=table.type_code, device=table.device,
                op_names=table.names, input_bytes=table.input_bytes,
                flops=table.flops, width=width, features=matrix,
                n_samples=np.full(n_ops, self.n_iterations),
                mean_us=stats[MEAN], std_us=stats[STD], median_us=stats[MEDIAN],
            )
        metrics = default_registry()
        metrics.counter("profiling.runs", gpu=gpu_key).inc()
        metrics.counter("profiling.records").inc(n_ops)
        return ProfileDataset.from_columns(columns)


def _feature_columns(graph: OpGraph) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`features_for` of every op, in ``graph.operations`` order, as
    (widths, padded matrix)."""
    return pad_features([features_for(op) for op in graph.operations])
