"""The scalar Eq. (2) oracle: the per-op sum, one operation at a time.

The package evaluates Eq. (2)'s compute sum in exactly one place, the
stacked kernel :func:`repro.core.batch.evaluate_compiled_batch_us`; a
single ``predict_training`` is its one-GPU slice. This module is the
independent reference the kernel is checked against — a plain walk over
the graph with no compilation, no stacking and no caches — and the only
copy of it. Tests and benchmarks compare the two within :data:`REL_TOL`;
:func:`kernel_us` is the kernel side of that comparison for one graph.

The PALEO baseline's original fit lives here too:
:func:`oracle_paleo_targets` simulates each training cell and sums its
compute time; the baseline reads the same sums from profile records.

Profile datasets have their reference here too:
:class:`ReferenceProfileDataset` keeps a tuple of
:class:`~repro.profiling.records.ProfileRecord` and answers every query
with a loop over it, the semantics the columnar
:class:`~repro.profiling.records.ProfileDataset` must match record for
record; :func:`reference_profiled_iteration_us` is the PALEO targets'
loop over records.

The simulator's statistics have their reference here too:
:func:`oracle_timings` draws each op's samples and reduces them one op at
a time, five numpy reductions per op. The stacked (ops x iterations)
statistics of :mod:`repro.sim.executor` must match it bit for bit.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloud.pricing import ON_DEMAND, PricingScheme
from repro.core.batch import StackedOpModels, SweepPlan
from repro.core.classify import CPU, HEAVY, LIGHT
from repro.core.engine import compile_graph
from repro.core.estimator import CeerEstimator, TrainingPrediction
from repro.core.op_models import ComputeTimeModels
from repro.core.regression import RegressionModel, fit_regression
from repro.errors import CatalogError, UnseenOperationError
from repro.graph.flops import graph_flops
from repro.graph.graph import OpGraph
from repro.graph.ops import Device, Operation
from repro.hardware.gpus import gpu_spec
from repro.hardware.kernel_model import sample_op_times_us
from repro.models.zoo import build_model
from repro.profiling.features import features_for
from repro.profiling.records import ProfileRecord
from repro.sim.executor import compute_us
from repro.sim.trace import OpTiming
from repro.workloads.dataset import TrainingJob

#: Kernel and oracle agree to this relative tolerance. Not bitwise: the
#: kernel sums each op type's predictions with one vectorised reduction.
REL_TOL = 1e-9


def _is_heavy(models: ComputeTimeModels, op: Operation) -> bool:
    return (
        op.device is not Device.CPU
        and models.classification.knows(op.op_type)
        and models.classification.kind(op.op_type) == HEAVY
    )


def oracle_op_us(models: ComputeTimeModels, op: Operation, gpu_key: str) -> float:
    """``t_GPU,op(input)`` for one operation (paper, Section IV-B)."""
    if op.device is Device.CPU:
        return models.cpu_median_us
    if not models.classification.knows(op.op_type):
        if models.strict_unseen:
            raise UnseenOperationError(op.op_type, gpu_key)
        return models.light_median_us
    kind = models.classification.kind(op.op_type)
    if kind == CPU:
        return models.cpu_median_us
    if kind == LIGHT:
        return models.light_median_us
    model = models.heavy_model(gpu_key, op.op_type)
    if model is None:
        raise UnseenOperationError(op.op_type, gpu_key)
    return model.predict_us(features_for(op))


def oracle_graph_us(
    models: ComputeTimeModels, graph: OpGraph, gpu_key: str,
    heavy_only: bool = False,
) -> float:
    """The Σ term of Eq. (2). ``heavy_only`` drops light, CPU and unseen
    ops from the sum, but an unseen op still raises under
    ``strict_unseen``."""
    total = 0.0
    for op in graph:
        op_us = oracle_op_us(models, op, gpu_key)
        if not heavy_only or _is_heavy(models, op):
            total += op_us
    return total


def kernel_us(
    models: ComputeTimeModels, graph: OpGraph, gpu_key: str,
    heavy_only: bool = False,
) -> float:
    """The path under test, as ``predict_training`` takes it: the one-GPU
    slice of the stacked kernel over a freshly compiled graph."""
    compiled = compile_graph(graph, models)
    return float(
        StackedOpModels(models).totals_us(compiled, (gpu_key,), heavy_only)[0]
    )


def oracle_prediction(
    estimator: CeerEstimator,
    graph: OpGraph,
    gpu_key: str,
    num_gpus: int,
    job: TrainingJob,
    pricing: PricingScheme = ON_DEMAND,
    compute_us: Optional[float] = None,
) -> TrainingPrediction:
    """Eq. (2) plus cost for one candidate, from the scalar walk.

    ``compute_us`` passes in an already-walked Σ term for ``gpu_key``.
    """
    models = estimator.compute_models
    gpu_key = gpu_spec(gpu_key).key
    instance = pricing.instance(gpu_key, num_gpus)
    if compute_us is None:
        compute_us = oracle_graph_us(
            models, graph, gpu_key, heavy_only=estimator.heavy_only
        )
    comm_us = (
        estimator.comm_model.predict_us(gpu_key, num_gpus, graph.num_parameters)
        if estimator.include_communication
        else 0.0
    )
    heavy_counts = Counter(op.op_type for op in graph if _is_heavy(models, op))
    return TrainingPrediction(
        model=graph.name,
        gpu_key=instance.gpu_key,
        num_gpus=num_gpus,
        instance_name=instance.name,
        usd_per_hr=instance.usd_per_hr,
        compute_us_per_iteration=compute_us,
        comm_overhead_us=comm_us,
        iterations=job.iterations(num_gpus),
        batch_size=job.batch_size,
        compute_std_us=models.compiled_std_us(heavy_counts),
    )


def oracle_sweep(
    estimator: CeerEstimator,
    model: Union[str, OpGraph],
    job: TrainingJob,
    plan: SweepPlan,
) -> List[TrainingPrediction]:
    """Every priceable candidate of a :class:`~repro.core.batch.SweepPlan`,
    one at a time, in :meth:`SweepResult.iter_candidates` order
    (pricing-major, then GPU, count, batch). Candidates the pricing scheme
    cannot serve are skipped. The Σ term depends only on (GPU, batch), so
    each is walked once."""
    graphs: Dict[int, OpGraph] = {}
    compute: Dict[Tuple[str, int], float] = {}
    predictions: List[TrainingPrediction] = []
    for pricing in plan.pricings:
        for gpu_key in plan.gpu_keys:
            for num_gpus in plan.gpu_counts:
                try:
                    pricing.instance(gpu_key, num_gpus)
                except CatalogError:
                    continue
                for batch_size in plan.batch_sizes:
                    if batch_size not in graphs:
                        graphs[batch_size] = (
                            model if isinstance(model, OpGraph)
                            else build_model(model, batch_size=batch_size)
                        )
                    graph = graphs[batch_size]
                    if (gpu_key, batch_size) not in compute:
                        compute[(gpu_key, batch_size)] = oracle_graph_us(
                            estimator.compute_models, graph, gpu_key,
                            heavy_only=estimator.heavy_only,
                        )
                    cell_job = TrainingJob(
                        job.dataset, batch_size=batch_size, epochs=job.epochs
                    )
                    predictions.append(oracle_prediction(
                        estimator, graph, gpu_key, num_gpus, cell_job,
                        pricing=pricing,
                        compute_us=compute[(gpu_key, batch_size)],
                    ))
    return predictions


def op_timing_from_samples(
    op: Operation, gpu_key: str, samples: np.ndarray
) -> OpTiming:
    """One op's timing statistics, each a separate reduction of its samples."""
    return OpTiming(
        op_name=op.name,
        op_type=op.op_type,
        device=op.device.value,
        gpu_key=gpu_key,
        input_bytes=op.input_bytes,
        output_bytes=op.output_bytes,
        n_samples=int(samples.size),
        mean_us=float(samples.mean()),
        std_us=float(samples.std(ddof=1)) if samples.size > 1 else 0.0,
        median_us=float(np.median(samples)),
        min_us=float(samples.min()),
        max_us=float(samples.max()),
    )


def oracle_timings(
    graph: OpGraph, gpu_key: str, n_iterations: int, seed_context: str = ""
) -> Tuple[OpTiming, ...]:
    """The simulator's per-op timings, one op at a time, with no memo."""
    key = gpu_spec(gpu_key).key
    return tuple(
        op_timing_from_samples(
            op, key, sample_op_times_us(op, key, n_iterations, seed_context)
        )
        for op in graph.operations
    )


def oracle_paleo_targets(
    models: Sequence[str], gpu_keys: Sequence[str], n_iterations: int,
    batch_size: int = 32,
) -> Dict[Tuple[str, str], float]:
    """(GPU, model) -> the simulated cell's mean per-iteration compute time."""
    return {
        (gpu_key, name): compute_us(
            build_model(name, batch_size=batch_size), gpu_key, n_iterations
        )
        for gpu_key in gpu_keys
        for name in models
    }


def oracle_paleo_models(
    models: Sequence[str], gpu_keys: Sequence[str], n_iterations: int,
    batch_size: int = 32,
) -> Dict[str, RegressionModel]:
    """The PALEO fit over simulated targets: one FLOP regression per GPU,
    rows in ``models`` order."""
    targets = oracle_paleo_targets(models, gpu_keys, n_iterations, batch_size)
    fitted: Dict[str, RegressionModel] = {}
    for gpu_key in gpu_keys:
        rows, ys = [], []
        for name in models:
            graph = build_model(name, batch_size=batch_size)
            rows.append([graph_flops(graph.operations) / 1e9])
            ys.append(targets[(gpu_key, name)])
        fitted[gpu_key] = fit_regression(
            np.asarray(rows), np.asarray(ys), ("gflops",), allow_quadratic=False,
        )
    return fitted


class ReferenceProfileDataset:
    """Record-tuple reference for :class:`~repro.profiling.records.ProfileDataset`."""

    def __init__(self, records: Iterable[ProfileRecord]) -> None:
        self.records: Tuple[ProfileRecord, ...] = tuple(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ProfileRecord]:
        return iter(self.records)

    def filter(self, predicate: Callable[[ProfileRecord], bool]) -> "ReferenceProfileDataset":
        return ReferenceProfileDataset(r for r in self.records if predicate(r))

    def for_gpu(self, gpu_key: str) -> "ReferenceProfileDataset":
        return self.filter(lambda r: r.gpu_key == gpu_key)

    def for_model(self, model: str) -> "ReferenceProfileDataset":
        return self.filter(lambda r: r.model == model)

    def for_op_type(self, op_type: str) -> "ReferenceProfileDataset":
        return self.filter(lambda r: r.op_type == op_type)

    def gpu_records(self) -> "ReferenceProfileDataset":
        return self.filter(lambda r: r.device == "GPU")

    def cpu_records(self) -> "ReferenceProfileDataset":
        return self.filter(lambda r: r.device == "CPU")

    def op_types(self) -> Tuple[str, ...]:
        return tuple(sorted({r.op_type for r in self.records}))

    def gpu_keys(self) -> Tuple[str, ...]:
        return tuple(sorted({r.gpu_key for r in self.records}))

    def models(self) -> Tuple[str, ...]:
        return tuple(sorted({r.model for r in self.records}))

    def group_by_op_type(self) -> Dict[str, "ReferenceProfileDataset"]:
        groups: Dict[str, List[ProfileRecord]] = {}
        for r in self.records:
            groups.setdefault(r.op_type, []).append(r)
        return {k: ReferenceProfileDataset(v) for k, v in groups.items()}

    def merge(self, *others: "ReferenceProfileDataset") -> "ReferenceProfileDataset":
        merged: List[ProfileRecord] = list(self.records)
        for other in others:
            merged.extend(other.records)
        return ReferenceProfileDataset(merged)

    def mean_us_by_op_type(self) -> Dict[str, float]:
        sums: Dict[str, Tuple[float, int]] = {}
        for r in self.records:
            total, count = sums.get(r.op_type, (0.0, 0))
            sums[r.op_type] = (total + r.mean_us, count + 1)
        return {k: total / count for k, (total, count) in sums.items()}

    def total_us_by_op_type(self) -> Dict[str, float]:
        sums: Dict[str, float] = {}
        for r in self.records:
            sums[r.op_type] = sums.get(r.op_type, 0.0) + r.mean_us
        return sums


def reference_profiled_iteration_us(
    profiles: Iterable[ProfileRecord],
) -> Dict[Tuple[str, str], float]:
    """(GPU, model) -> GPU-op means summed in record order, plus CPU-op means."""
    means: Dict[Tuple[str, str], Tuple[List[float], List[float]]] = {}
    for r in profiles:
        means.setdefault((r.gpu_key, r.model), ([], []))[r.device == "CPU"].append(r.mean_us)
    return {cell: sum(gpu) + sum(cpu) for cell, (gpu, cpu) in means.items()}
