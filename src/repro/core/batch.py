"""Catalog-scale batched sweep: price the whole candidate space in one pass.

Every Section V scenario is a point query on the same object — the
(training time, training cost) surface over candidate configurations —
and :class:`~repro.core.recommend.Recommender` used to walk that surface
one ``predict_training`` call at a time. This module evaluates the whole
surface at once. For one CNN, Eq. (2)

    T^k = ( S_GPU(CNN) + sum_i t_GPU,op_i(input_i) ) * D / (k * B)

factorises over the candidate axes:

* the per-op compute sum depends only on (GPU model, batch size). Per
  heavy op type, the per-GPU regressions stack into one coefficient
  matrix (:class:`StackedOpModels`), so one matmul per op type predicts
  every GPU model simultaneously — ``Phi @ W.T`` with the floor/clip
  applied as elementwise ``np.minimum``/``np.maximum`` over the whole
  ``(n_ops, n_gpu)`` block;
* the communication term depends only on (GPU model, GPU count) and
  broadcasts across the batch axis;
* iterations ``D / (k * B) * epochs`` depend only on (GPU count, batch);
* the price vector depends only on (pricing tier, GPU model, GPU count).

:func:`evaluate_sweep` combines them by NumPy broadcasting into
``(n_gpu, n_k, n_batch)`` time tensors and ``(n_pricing, n_gpu, n_k,
n_batch)`` cost tensors with zero per-candidate Python.
:func:`evaluate_compiled_batch_us` is the only evaluation of Eq. (2)'s
compute sum in the package: a single
:meth:`~repro.core.estimator.CeerEstimator.predict_training` is its
one-GPU slice. The test suite checks it against a scalar per-op oracle
(rel diff < 1e-9 across the zoo).

Candidate (GPU, count) pairs the catalog cannot price (e.g. 9 V100s) are
masked: NaN in the tensors, ``None`` in the instance table — the exact
combos where the pricing scheme raises :class:`~repro.errors.CatalogError`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloud.catalog import InstanceType, max_gpus_for
from repro.cloud.pricing import MARKET_RATIO, ON_DEMAND, SPOT, PricingScheme
from repro.errors import CatalogError, ModelingError, UnseenOperationError
from repro.graph.graph import OpGraph
from repro.hardware.gpus import GPU_KEYS, gpu_spec
from repro.obs.metrics import default_registry
from repro.obs.spans import span
from repro.units import us_to_hr, usd_per_hr_to_usd
from repro.workloads.dataset import TrainingJob
from repro.core.comm_model import CommunicationModel
from repro.core.engine import CompiledGraph
from repro.core.estimator import CeerEstimator, TrainingPrediction
from repro.core.op_models import ComputeTimeModels
from repro.core.regression import PREDICTION_FLOOR_US

#: Default per-GPU batch sizes for a catalog-scale sweep. Spanning the
#: paper's batch-scaling study (Fig. 5) range; 12 sizes x 36 valid
#: (GPU, k) combos x 3 pricing tiers = 1296 candidates.
DEFAULT_SWEEP_BATCH_SIZES: Tuple[int, ...] = (
    8, 16, 24, 32, 48, 64, 96, 128, 160, 192, 224, 256,
)

#: Default pricing tiers for a full-catalog sweep.
DEFAULT_SWEEP_PRICINGS: Tuple[PricingScheme, ...] = (ON_DEMAND, SPOT, MARKET_RATIO)


@dataclass(frozen=True)
class _StackedType:
    """Stacked per-GPU regression arrays for one heavy op type.

    Coefficients live in the always-quadratic design ``[x, x**2]``: a
    degree-2 model's coefficients map 1:1, a degree-1 model's occupy the
    linear half with exact zeros in the squared half (adding ``0 * x**2``
    is exact in IEEE arithmetic, so the padded evaluation is the linear
    one). ``clip_us`` holds ``+inf`` where a model has no extrapolation
    clip — ``np.minimum(pred, inf)`` is the identity.

    Axis names (checked by ``repro check``'s axes rules): ``G`` = GPU
    model, ``F2`` = the ``2 * n_features`` always-quadratic design.
    """

    weights: np.ndarray  # axes: (G, F2)
    intercepts_us: np.ndarray  # axes: (G)
    clip_us: np.ndarray  # axes: (G)


#: Bounds for the batch-sweep warm caches below. Totals entries are one
#: (n_gpu,) vector per (compiled graph, GPU tuple, flag) — the catalog
#: default sweeps 12 batch sizes per model, so 128 covers ~10 models.
TOTALS_CACHE_SIZE = 128
COMM_CACHE_SIZE = 256


class StackedOpModels:
    """The estimator's batch-sweep cache bundle, built lazily.

    One instance wraps one fitted :class:`ComputeTimeModels`; the
    estimator shares it across sweeps (see
    :attr:`CeerEstimator.batch_models`), single predictions included.
    Three warm layers:

    * stacked per-(GPU tuple, op type) coefficient arrays (permanent —
      a handful of tiny matrices per fitted model set);
    * evaluated ``(n_gpu,)`` compute totals per (compiled graph, GPU
      tuple, heavy_only) — keyed by the compiled graph's identity while
      holding the graph, so keys cannot dangle (bounded FIFO);
    * ``(n_gpu, n_k)`` communication grids per (comm model, GPU tuple,
      count tuple, parameter count) (bounded FIFO).
    """

    def __init__(self, models: ComputeTimeModels) -> None:
        self.models = models
        self._stacked: Dict[Tuple[Tuple[str, ...], str], _StackedType] = {}
        self._totals: "OrderedDict[Tuple[int, Tuple[str, ...], bool], Tuple[CompiledGraph, np.ndarray]]" = OrderedDict()
        self._comm: "OrderedDict[Tuple[int, Tuple[str, ...], Tuple[int, ...], int], Tuple[CommunicationModel, np.ndarray]]" = OrderedDict()

    # obs: warm
    def totals_us(
        self,
        compiled: CompiledGraph,
        gpu_keys: Tuple[str, ...],
        heavy_only: bool = False,
    ) -> np.ndarray:
        """Cached :func:`evaluate_compiled_batch_us` for one compiled graph."""
        key = (id(compiled), gpu_keys, heavy_only)
        hit = self._totals.get(key)
        if hit is not None:
            return hit[1]
        totals = evaluate_compiled_batch_us(
            compiled, self, gpu_keys, heavy_only=heavy_only
        )
        self._totals[key] = (compiled, totals)
        while len(self._totals) > TOTALS_CACHE_SIZE:
            self._totals.popitem(last=False)
        return totals

    # obs: warm
    def comm_grid_us(
        self,
        comm_model: CommunicationModel,
        gpu_keys: Tuple[str, ...],
        gpu_counts: Tuple[int, ...],
        num_parameters: int,
    ) -> np.ndarray:
        """Cached ``(n_gpu, n_k)`` communication-overhead grid.

        Each cell is one ``comm_model.predict_us`` scalar call — the grid
        is the only per-cell Python of a sweep, so caching it makes a
        repeated sweep of the same model pure tensor broadcasting.
        """
        key = (id(comm_model), gpu_keys, gpu_counts, num_parameters)
        hit = self._comm.get(key)
        if hit is not None:
            return hit[1]
        grid_us = np.zeros((len(gpu_keys), len(gpu_counts)))  # axes: (G, K)
        for g, gpu_key in enumerate(gpu_keys):
            for k, num_gpus in enumerate(gpu_counts):
                grid_us[g, k] = comm_model.predict_us(
                    gpu_key, num_gpus, num_parameters
                )
        self._comm[key] = (comm_model, grid_us)
        while len(self._comm) > COMM_CACHE_SIZE:
            self._comm.popitem(last=False)
        return grid_us

    # obs: warm
    def for_type(
        self, gpu_keys: Tuple[str, ...], op_type: str, n_features: int
    ) -> _StackedType:
        key = (gpu_keys, op_type)
        cached = self._stacked.get(key)
        if cached is not None:
            return cached
        weights = np.zeros((len(gpu_keys), 2 * n_features))  # axes: (G, F2)
        intercepts_us = np.zeros(len(gpu_keys))  # axes: (G)
        clip_us = np.full(len(gpu_keys), np.inf)  # axes: (G)
        for g, gpu_key in enumerate(gpu_keys):
            op_model = self.models.heavy_model(gpu_key, op_type)
            if op_model is None:
                raise UnseenOperationError(op_type, gpu_key)
            regression = op_model.regression
            coef = np.asarray(regression.coef)
            if regression.degree == 2:
                if coef.shape[0] != 2 * n_features:
                    raise ModelingError(
                        f"stacking {op_type!r}/{gpu_key}: degree-2 model has "
                        f"{coef.shape[0]} coefficients, expected {2 * n_features}"
                    )
                weights[g] = coef
            else:
                if coef.shape[0] != n_features:
                    raise ModelingError(
                        f"stacking {op_type!r}/{gpu_key}: degree-1 model has "
                        f"{coef.shape[0]} coefficients, expected {n_features}"
                    )
                weights[g, :n_features] = coef
            intercepts_us[g] = regression.intercept
            if regression.clip_max is not None:
                clip_us[g] = regression.clip_max
        stacked = _StackedType(
            weights=weights, intercepts_us=intercepts_us, clip_us=clip_us
        )
        self._stacked[key] = stacked
        return stacked


# obs: warm
def evaluate_compiled_batch_us(
    compiled: CompiledGraph,
    stacked: StackedOpModels,
    gpu_keys: Tuple[str, ...],
    heavy_only: bool = False,
) -> np.ndarray:
    """Eq. (2)'s compute sum for one compiled graph on *all* GPU models.

    Returns a ``(len(gpu_keys),)`` vector; element ``g`` is the per-op
    sum on ``gpu_keys[g]``: per op type one design-matrix product (against
    the stacked coefficients of every GPU at once), clip-then-floor per
    op as :meth:`~repro.core.regression.RegressionModel.predict_one`
    does, plus the light/CPU median terms unless ``heavy_only``. Unseen
    GPU ops raise under ``strict_unseen`` (even with ``heavy_only``) and
    otherwise cost the light median.
    """
    models = stacked.models
    if compiled.n_unseen and models.strict_unseen:
        raise UnseenOperationError(compiled.unseen_types[0], gpu_keys[0])
    totals_us = np.zeros(len(gpu_keys))  # axes: (G)
    for op_type, x in compiled.heavy_features.items():
        arrays = stacked.for_type(gpu_keys, op_type, x.shape[1])
        phi = np.hstack([x, x**2])  # always-quadratic design; see _StackedType
        pred_us = phi @ arrays.weights.T + arrays.intercepts_us[None, :]
        pred_us = np.minimum(pred_us, arrays.clip_us[None, :])
        pred_us = np.maximum(pred_us, PREDICTION_FLOOR_US)
        totals_us += pred_us.sum(axis=0)
    if not heavy_only:
        totals_us += (compiled.n_light + compiled.n_unseen) * models.light_median_us
        totals_us += compiled.n_cpu * models.cpu_median_us
    return totals_us


@dataclass(frozen=True)
class SweepPlan:
    """The candidate axes of one batched sweep.

    The swept space is the cross product ``pricings x gpu_keys x
    gpu_counts x batch_sizes``; (GPU, count) pairs the catalog cannot
    price are masked out of the result rather than failing the sweep.
    GPU keys are canonicalised (family aliases such as ``"P3"`` become
    ``"V100"``) before the duplicate check.
    """

    gpu_keys: Tuple[str, ...] = GPU_KEYS
    gpu_counts: Tuple[int, ...] = (1, 2, 3, 4)
    batch_sizes: Tuple[int, ...] = (32,)
    pricings: Tuple[PricingScheme, ...] = (ON_DEMAND,)

    def __post_init__(self) -> None:
        if not self.gpu_keys or not self.gpu_counts or not self.batch_sizes \
                or not self.pricings:
            raise ModelingError("SweepPlan axes must all be non-empty")
        if any(k < 1 for k in self.gpu_counts):
            raise ModelingError("SweepPlan gpu_counts must be >= 1")
        if any(b < 1 for b in self.batch_sizes):
            raise ModelingError("SweepPlan batch_sizes must be >= 1")
        # The dataclass is frozen; canonicalising is part of construction.
        object.__setattr__(
            self, "gpu_keys", tuple(gpu_spec(key).key for key in self.gpu_keys)
        )
        for axis_name in ("gpu_keys", "gpu_counts", "batch_sizes"):
            axis = getattr(self, axis_name)
            if len(set(axis)) != len(axis):
                raise ModelingError(f"SweepPlan {axis_name} contains duplicates")

    @classmethod
    def full_catalog(
        cls,
        batch_sizes: Sequence[int] = DEFAULT_SWEEP_BATCH_SIZES,
        pricings: Sequence[PricingScheme] = DEFAULT_SWEEP_PRICINGS,
        gpu_keys: Optional[Sequence[str]] = None,
    ) -> "SweepPlan":
        """Every configuration the grown catalog can price.

        GPU counts run to the largest any catalog instance offers (16
        K80s); counts a given GPU model cannot reach are masked in the
        result. With the defaults this is 1000+ priceable candidates.
        ``gpu_keys`` widens (or narrows) the GPU axis — e.g. to include
        runtime-admitted, spec-only GPUs under the transfer backend.
        """
        keys = GPU_KEYS if gpu_keys is None else tuple(gpu_keys)
        top = max(max_gpus_for(key) for key in keys)
        return cls(
            gpu_keys=keys,
            gpu_counts=tuple(range(1, top + 1)),
            batch_sizes=tuple(batch_sizes),
            pricings=tuple(pricings),
        )

    @property
    def n_cells(self) -> int:
        """Grid size before catalog masking."""
        return (
            len(self.pricings) * len(self.gpu_keys)
            * len(self.gpu_counts) * len(self.batch_sizes)
        )


@dataclass
class SweepResult:
    """The evaluated (time, cost) tensors over one :class:`SweepPlan`.

    Axis order everywhere is (pricing, gpu, k, batch), abbreviated
    ``(P, G, K, B)``. Time is pricing-independent so ``total_us`` drops
    the P axis. Cells whose (GPU, count) the catalog cannot price hold
    NaN in ``usd_per_hr``/``cost_usd`` and ``None`` in ``instances``.
    """

    plan: SweepPlan
    model_name: str
    num_parameters: int
    compute_us: np.ndarray  # axes: (G, B)
    comm_us: np.ndarray  # axes: (G, K)
    iterations: np.ndarray  # axes: (K, B)
    total_us: np.ndarray  # axes: (G, K, B)
    usd_per_hr: np.ndarray  # axes: (P, G, K) nan
    cost_usd: np.ndarray  # axes: (P, G, K, B) nan
    instances: Tuple[Tuple[Tuple[Optional[InstanceType], ...], ...], ...]
    epochs: int = 1
    #: Graph-level 1-sigma compute uncertainty per iteration (transfer
    #: backend; 0 under per-GPU fits). Batch- and device-independent —
    #: heavy-op *counts* do not vary across the swept axes.
    compute_std_us: float = 0.0
    _dataset_name: str = field(default="", repr=False)

    def valid(self, p: int, g: int, k: int) -> bool:
        """Whether pricing tier ``p`` can price ``gpu_counts[k]`` GPUs."""
        return self.instances[p][g][k] is not None

    @property
    def n_candidates(self) -> int:
        """Priceable candidates: valid (pricing, gpu, k) cells x batches."""
        n_priced = sum(
            inst is not None
            for per_pricing in self.instances
            for per_gpu in per_pricing
            for inst in per_gpu
        )
        return n_priced * len(self.plan.batch_sizes)

    # -- point queries --------------------------------------------------
    def prediction(self, p: int, g: int, k: int, b: int) -> TrainingPrediction:
        """Materialise one candidate as a :class:`TrainingPrediction`.

        The prediction's derived properties (``total_us``,
        ``cost_dollars``) recompute from the same stored floats with the
        same arithmetic, so they equal the tensor cells exactly.
        """
        instance = self.instances[p][g][k]
        if instance is None:
            raise CatalogError(
                f"no {self.plan.gpu_keys[g]} instance for "
                f"{self.plan.gpu_counts[k]} GPU(s) under pricing "
                f"{self.plan.pricings[p].name!r}"
            )
        return TrainingPrediction(
            model=self.model_name,
            gpu_key=instance.gpu_key,
            num_gpus=self.plan.gpu_counts[k],
            instance_name=instance.name,
            usd_per_hr=instance.usd_per_hr,
            compute_us_per_iteration=float(self.compute_us[g, b]),
            comm_overhead_us=float(self.comm_us[g, k]),
            iterations=float(self.iterations[k, b]),
            batch_size=self.plan.batch_sizes[b],
            compute_std_us=self.compute_std_us,
        )

    def predictions(
        self, pricing_index: int = 0, batch_index: int = 0
    ) -> List[TrainingPrediction]:
        """One (pricing, batch) slice in the recommender's sweep order
        (GPU-major, count-minor), skipping unpriceable cells."""
        return [
            self.prediction(pricing_index, g, k, batch_index)
            for g in range(len(self.plan.gpu_keys))
            for k in range(len(self.plan.gpu_counts))
            if self.valid(pricing_index, g, k)
        ]

    def iter_candidates(self) -> Iterator[Tuple[int, int, int, int]]:
        """(p, g, k, b) indices of every priceable candidate, in the
        reference loop's order (pricing-major, then gpu, k, batch)."""
        for p in range(len(self.plan.pricings)):
            for g in range(len(self.plan.gpu_keys)):
                for k in range(len(self.plan.gpu_counts)):
                    if not self.valid(p, g, k):
                        continue
                    for b in range(len(self.plan.batch_sizes)):
                        yield (p, g, k, b)

    def frontier(self) -> List[TrainingPrediction]:
        """Time-cost Pareto frontier over *all* candidates, fastest-first.

        The dominance scan runs vectorized on the tensors; only the
        frontier points are materialised as predictions. Matches
        ``pareto_frontier(all candidates)`` exactly, including its
        first-occurrence tie rule.
        """
        from repro.core.pareto import pareto_order_and_keep

        index = list(self.iter_candidates())
        if not index:
            raise CatalogError("sweep has no priceable candidates")
        t_us = np.array([self.total_us[g, k, b] for _, g, k, b in index])
        c_usd = np.array([self.cost_usd[p, g, k, b] for p, g, k, b in index])
        order, keep = pareto_order_and_keep(t_us, c_usd)
        return [self.prediction(*index[i]) for i in order[keep]]


def _pricing_grid(
    plan: SweepPlan,
) -> Tuple[np.ndarray, Tuple[Tuple[Tuple[Optional[InstanceType], ...], ...], ...]]:
    """Resolve the (P, G, K) price tensor and instance table for a plan.

    Unpriceable (pricing, GPU, count) cells — the combos where the
    pricing scheme raises :class:`CatalogError`, exactly the ones the
    reference loop skips — become NaN / ``None``.

    The grid is a pure function of the (frozen) plan, so it is memoized
    on the plan instance: serving loops that reuse one plan across
    models/jobs resolve the catalog once.
    """
    cached = getattr(plan, "_pricing_grid_cache", None)
    if cached is not None:
        return cached
    shape = (len(plan.pricings), len(plan.gpu_keys), len(plan.gpu_counts))
    usd_per_hr = np.full(shape, np.nan)  # axes: (P, G, K) nan
    instances: List[Tuple[Tuple[Optional[InstanceType], ...], ...]] = []
    for p, pricing in enumerate(plan.pricings):
        per_pricing: List[Tuple[Optional[InstanceType], ...]] = []
        for g, gpu_key in enumerate(plan.gpu_keys):
            per_gpu: List[Optional[InstanceType]] = []
            for k, num_gpus in enumerate(plan.gpu_counts):
                try:
                    instance = pricing.instance(gpu_key, num_gpus)
                except CatalogError:
                    per_gpu.append(None)
                    continue
                usd_per_hr[p, g, k] = instance.usd_per_hr
                per_gpu.append(instance)
            per_pricing.append(tuple(per_gpu))
        instances.append(tuple(per_pricing))
    grid = (usd_per_hr, tuple(instances))
    # The plan dataclass is frozen; the memo is not a field, so it does
    # not participate in eq/hash/repr.
    object.__setattr__(plan, "_pricing_grid_cache", grid)
    return grid


def evaluate_sweep(
    estimator: CeerEstimator,
    model: Union[str, OpGraph],
    job: TrainingJob,
    plan: Optional[SweepPlan] = None,
) -> SweepResult:
    """Evaluate Eq. (2) + cost over a whole :class:`SweepPlan` at once.

    ``job`` supplies the dataset and epoch count; the swept batch sizes
    come from ``plan`` (default: the job's own batch size). Passing a
    pre-built :class:`OpGraph` as ``model`` restricts the plan to that
    graph's batch size — a graph is its batch size.

    Honors the estimator's ablation flags (``heavy_only``,
    ``include_communication``); compiled graphs come from (and warm) the
    estimator's engine caches.
    """
    if plan is None:
        plan = SweepPlan(batch_sizes=(job.batch_size,))
    if isinstance(model, OpGraph) and tuple(plan.batch_sizes) != (model.batch_size,):
        raise ModelingError(
            f"sweeping a pre-built graph (batch {model.batch_size}) with "
            f"plan batch sizes {plan.batch_sizes}; pass the zoo name to "
            f"sweep multiple batch sizes"
        )
    gpu_keys = plan.gpu_keys

    with span(
        "batch.sweep",
        model=model if isinstance(model, str) else model.name,
        cells=plan.n_cells,
        gpus=len(gpu_keys),
        batches=len(plan.batch_sizes),
        pricings=len(plan.pricings),
    ):
        compiled: List[CompiledGraph] = [
            estimator.engine.compile(model, batch_size)
            for batch_size in plan.batch_sizes
        ]

        # (G, B) compute tensor: one stacked evaluation per batch size,
        # served from the totals cache on repeated sweeps.
        stacked = estimator.batch_models
        compute_us = np.stack(  # axes: (G, B)
            [
                stacked.totals_us(c, gpu_keys, heavy_only=estimator.heavy_only)
                for c in compiled
            ],
            axis=1,
        )

        # (G, K) communication tensor — G*K scalar model lookups, the
        # only per-cell Python of a cold sweep (64 calls for the full
        # catalog); cached per (model parameters, axes) thereafter.
        num_parameters = compiled[0].num_parameters
        if estimator.include_communication:
            comm_us = stacked.comm_grid_us(  # axes: (G, K)
                estimator.comm_model, gpu_keys, plan.gpu_counts, num_parameters
            )
        else:
            comm_us = np.zeros((len(gpu_keys), len(plan.gpu_counts)))  # axes: (G, K)

        # (K, B) iteration counts and the broadcast assembly of Eq. (2).
        iterations = np.array(  # axes: (K, B)
            [
                [
                    TrainingJob(
                        job.dataset, batch_size=batch_size, epochs=job.epochs
                    ).iterations(num_gpus)
                    for batch_size in plan.batch_sizes
                ]
                for num_gpus in plan.gpu_counts
            ]
        )
        total_us = (  # axes: (G, K, B)
            compute_us[:, None, :] + comm_us[:, :, None]
        ) * iterations[None, :, :]

        # Indexed (not tuple-unpacked) so the axes dataflow keeps tracking
        # usd_per_hr through the cost assembly below.
        grid = _pricing_grid(plan)
        usd_per_hr = grid[0]  # axes: (P, G, K) nan
        instances = grid[1]
        # The unit helpers are plain ufunc arithmetic, so they broadcast:
        # cost[p,g,k,b] = rate[p,g,k] * hours[g,k,b], elementwise the same
        # two operations TrainingPrediction.cost_dollars performs.
        total_hr = us_to_hr(total_us)  # axes: (G, K, B)
        cost_usd = usd_per_hr_to_usd(  # axes: (P, G, K, B) nan
            usd_per_hr[:, :, :, None], total_hr[None, :, :, :]
        )

    result = SweepResult(
        plan=plan,
        model_name=compiled[0].graph_name,
        num_parameters=num_parameters,
        compute_us=compute_us,
        comm_us=comm_us,
        iterations=iterations,
        total_us=total_us,
        usd_per_hr=usd_per_hr,
        cost_usd=cost_usd,
        instances=instances,
        epochs=job.epochs,
        compute_std_us=estimator.compute_std_us(compiled[0]),
        _dataset_name=job.dataset.name,
    )
    registry = default_registry()
    registry.counter("batch.sweeps").inc()
    registry.counter("batch.candidates").inc(result.n_candidates)
    return result
