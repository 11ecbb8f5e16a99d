"""The Ceer estimator: training time and cost for any CNN on any instance.

Implements the paper's Eq. (2)::

    T^k_CNN,GPU = ( S_GPU(CNN) + sum_i t_GPU,op_i(input_i) ) * D / (k * B)

and the cost relation ``C = T * c_GPU,k``. The per-op sum comes from
:class:`~repro.core.op_models.ComputeTimeModels`, the overhead from
:class:`~repro.core.comm_model.CommunicationModel`, and the instance price
from a :class:`~repro.cloud.pricing.PricingScheme`.

Constructor flags reproduce the paper's two accuracy ablations: dropping
the communication term (Eq. (1); Section IV-A shows 5-30% extra error) and
dropping light/CPU contributions (Section IV-B; 15-25% extra error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.core.batch import StackedOpModels

from repro.cloud.catalog import InstanceType
from repro.cloud.pricing import ON_DEMAND, PricingScheme
from repro.errors import ModelingError
from repro.graph.graph import OpGraph
from repro.units import us_to_hr, usd_per_hr_to_usd
from repro.workloads.dataset import TrainingJob
from repro.core.comm_model import CommunicationModel
from repro.core.engine import CompiledGraph, PredictionEngine
from repro.core.op_models import ComputeTimeModels


@dataclass(frozen=True)
class TrainingPrediction:
    """Ceer's estimate for one (CNN, instance) deployment."""

    model: str
    gpu_key: str
    num_gpus: int
    instance_name: str
    usd_per_hr: float
    compute_us_per_iteration: float
    comm_overhead_us: float
    iterations: float
    #: Per-GPU batch size the prediction was computed at; None for legacy
    #: call sites that predate batch-axis sweeps.
    batch_size: Optional[int] = None
    #: 1-sigma uncertainty of the per-iteration compute term, from the
    #: transfer backend's per-op residual stds (0 under per-GPU fits,
    #: which carry no uncertainty estimate).
    compute_std_us: float = 0.0
    #: Expected preemptions per hour on this instance (spot markets).
    #: 0 for deterministic (On-Demand) predictions.
    hazard_per_hr: float = 0.0
    #: Iterations replayed per preemption (lost progress since the last
    #: checkpoint plus restore cost); see :mod:`repro.core.preempt`.
    preempt_overhead_iterations: float = 0.0  # staticcheck: ignore[unit-suffix] (an iteration count, not a duration)

    @property
    def per_iteration_us(self) -> float:
        return self.compute_us_per_iteration + self.comm_overhead_us

    @property
    def total_us(self) -> float:
        return self.per_iteration_us * self.iterations

    @property
    def total_hours(self) -> float:
        return us_to_hr(self.total_us)

    @property
    def cost_dollars(self) -> float:
        return usd_per_hr_to_usd(self.usd_per_hr, self.total_hours)

    # -- uncertainty bands (transfer backend) ---------------------------
    @property
    def total_std_us(self) -> float:
        """1-sigma band on total training time (iterations scale sigma)."""
        return self.compute_std_us * self.iterations

    @property
    def total_std_hours(self) -> float:
        return us_to_hr(self.total_std_us)

    @property
    def cost_std_dollars(self) -> float:
        """1-sigma band on training cost at the predicted instance rate."""
        return usd_per_hr_to_usd(self.usd_per_hr, self.total_std_hours)

    # -- preemption-aware expectations (spot markets) -------------------
    @property
    def expected_makespan_us(self) -> float:
        """Expected wall-clock including preemption replay.

        Over ``total_hours`` of work at ``hazard_per_hr`` the instance is
        preempted ``hazard_per_hr * total_hours`` times in expectation,
        and each preemption replays ``preempt_overhead_iterations``
        iterations. At hazard 0 the added term is exactly ``+0.0``, so
        the expectation collapses to the deterministic ``total_us``
        bit-for-bit.
        """
        return self.total_us + (self.hazard_per_hr * self.total_hours) * (
            self.preempt_overhead_iterations * self.per_iteration_us
        )

    @property
    def expected_makespan_hours(self) -> float:
        return us_to_hr(self.expected_makespan_us)

    @property
    def expected_cost_usd(self) -> float:
        """Expected cost: the instance rate over the expected makespan."""
        return usd_per_hr_to_usd(self.usd_per_hr, self.expected_makespan_hours)


class CeerEstimator:
    """Predicts training time and cost for arbitrary CNNs (paper, Section IV).

    Args:
        compute_models: fitted per-op compute-time models.
        comm_model: fitted per-(GPU, k) communication-overhead models.
        include_communication: set False to reproduce the Eq. (1) ablation.
        heavy_only: set True to reproduce the heavy-ops-only ablation.

    Every compute sum, one prediction or a whole catalog sweep, is
    evaluated by :func:`~repro.core.batch.evaluate_compiled_batch_us`
    over graphs compiled once by :attr:`engine`; a single prediction is
    its one-GPU slice.
    """

    def __init__(
        self,
        compute_models: ComputeTimeModels,
        comm_model: CommunicationModel,
        include_communication: bool = True,
        heavy_only: bool = False,
    ) -> None:
        self.compute_models = compute_models
        self.comm_model = comm_model
        self.include_communication = include_communication
        self.heavy_only = heavy_only
        self._engine: Optional[PredictionEngine] = None
        self._batch_models: Optional["StackedOpModels"] = None

    @property
    def batch_models(self) -> "StackedOpModels":
        """Stacked per-GPU coefficients and evaluated totals, built lazily
        and shared by single predictions and batched sweeps alike."""
        if self._batch_models is None:
            from repro.core.batch import StackedOpModels

            self._batch_models = StackedOpModels(self.compute_models)
        return self._batch_models

    @property
    def engine(self) -> PredictionEngine:
        """The graph and compile caches, created on first use (so
        constructing one estimator per sweep point stays cheap)."""
        if self._engine is None:
            self._engine = PredictionEngine(self.compute_models)
        return self._engine

    # ------------------------------------------------------------------
    def resolve_graph(
        self, model: Union[str, OpGraph], batch_size: int = 32
    ) -> OpGraph:
        """Resolve a zoo name to its (engine-cached) op graph.

        Callers that evaluate the same model many times (the recommender
        sweep, the figure drivers) resolve once and pass the graph back
        in, so the engine compiles a single graph for the whole run.
        """
        return self.engine.resolve_graph(model, batch_size)

    def compute_std_us(self, compiled: CompiledGraph) -> float:
        """Graph-level 1-sigma compute uncertainty (0 for per-GPU fits).

        Guarded so the per-GPU backend never builds the op-count map: only
        the transfer backend populates ``heavy_std_us``.
        """
        if not self.compute_models.heavy_std_us:
            return 0.0
        return self.compute_models.compiled_std_us(
            {t: x.shape[0] for t, x in compiled.heavy_features.items()}
        )

    def _iteration_us(
        self, model: Union[str, OpGraph], gpu_key: str, num_gpus: int,
        batch_size: int,
    ) -> Tuple[CompiledGraph, str, float, float]:
        """(compiled graph, canonical GPU key, compute us, comm us) of one
        iteration. The compute term is the one-GPU slice of the stacked
        Eq. (2) kernel, served from its totals cache when warm."""
        from repro.hardware.gpus import gpu_spec

        gpu_key = gpu_spec(gpu_key).key  # accept family aliases like "P3"
        compiled = self.engine.compile(model, batch_size)
        compute = float(
            self.batch_models.totals_us(compiled, (gpu_key,), self.heavy_only)[0]
        )
        comm = (
            self.comm_model.predict_us(gpu_key, num_gpus, compiled.num_parameters)
            if self.include_communication
            else 0.0
        )
        return compiled, gpu_key, compute, comm

    def predict_iteration_us(
        self, model: Union[str, OpGraph], gpu_key: str, num_gpus: int = 1,
        batch_size: int = 32,
    ) -> float:
        """Per-iteration training time estimate (the bracket of Eq. (2))."""
        _, _, compute, comm = self._iteration_us(
            model, gpu_key, num_gpus, batch_size
        )
        return compute + comm

    def predict_training(
        self,
        model: Union[str, OpGraph],
        gpu_key: str,
        num_gpus: int,
        job: TrainingJob,
        pricing: PricingScheme = ON_DEMAND,
        instance: Optional[InstanceType] = None,
    ) -> TrainingPrediction:
        """Full Eq. (2) + cost prediction for a training job on an instance."""
        compiled, gpu_key, compute, comm = self._iteration_us(
            model, gpu_key, num_gpus, job.batch_size
        )
        if instance is None:
            instance = pricing.instance(gpu_key, num_gpus)
        elif instance.gpu_key != gpu_key or instance.num_gpus != num_gpus:
            # An explicit instance must be the hardware the prediction was
            # computed for — otherwise the caller silently prices compute
            # predicted on a different GPU and mislabels the result.
            raise ModelingError(
                f"instance {instance.name!r} is {instance.num_gpus}x "
                f"{instance.gpu_key}, but the prediction was requested for "
                f"{num_gpus}x {gpu_key}; pass a matching instance or omit it"
            )
        return TrainingPrediction(
            model=compiled.graph_name,
            gpu_key=instance.gpu_key,
            num_gpus=num_gpus,
            instance_name=instance.name,
            usd_per_hr=instance.usd_per_hr,
            compute_us_per_iteration=compute,
            comm_overhead_us=comm,
            iterations=job.iterations(num_gpus),
            batch_size=job.batch_size,
            compute_std_us=self.compute_std_us(compiled),
        )
