"""Incremental spot re-ranking: price ticks without re-evaluating Eq. (2).

A spot price tick changes *only* the price axis of the sweep: the
``(G, K, B)`` time tensors of :func:`~repro.core.batch.evaluate_sweep`
are pricing-independent, and the On-Demand rate grid already holds every
candidate's base rate. So a tick's ranking needs no graph compile, no
stacked matmul, no communication grid — just a re-scale of cached
tensors:

    spot_rate[g, k]   = od_rate[g, k] * ratio[g]
    makespan[g, k, b] = total_us + (hazard[g] * total_hr) * replay_us
    score[g, k, b]    = cost(spot_rate, makespan) + λ * makespan_hr

:class:`SpotRerankSession` caches the base sweep once and replays
exactly the arithmetic :class:`~repro.core.estimator.TrainingPrediction`
performs per candidate — same operation sequence, same order — so the
scores (and therefore the stable-sorted ranking) are *bit-identical* to
a full re-sweep with the tick's pricing scored through
:class:`~repro.core.recommend.SpotRiskObjective`. The test suite and the
``spot`` section of ``tools/bench.py`` assert this equivalence;
``tools/perf_gate.py`` enforces the ≥10x latency win that justifies the
layer through the gates kept in ``BENCH_spot_rerank.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloud.catalog import InstanceType, admitted_gpu_keys
from repro.cloud.pricing import ON_DEMAND
from repro.errors import ModelingError, RecommendationError
from repro.graph.graph import OpGraph
from repro.hardware.gpus import GPU_KEYS
from repro.obs.metrics import default_registry
from repro.units import us_to_hr, usd_per_hr_to_usd
from repro.workloads.dataset import TrainingJob
from repro.core.batch import (
    DEFAULT_SWEEP_BATCH_SIZES,
    SweepPlan,
    SweepResult,
    evaluate_sweep,
)
from repro.core.estimator import CeerEstimator, TrainingPrediction
from repro.core.preempt import DEFAULT_PREEMPTION, PreemptionModel


@dataclass(frozen=True, eq=False)
class SpotRanking:
    """One tick's ranking: flat candidate order plus materialisation.

    ``order`` indexes the session's flattened (g-major, k, b) candidate
    grid, best score first; unpriceable cells (no instance, or no spot
    ratio for the GPU at this tick) are already filtered out.
    Predictions materialise lazily — a serving response only renders the
    best few of 1000+ candidates.
    """

    session: "SpotRerankSession"
    order: np.ndarray  # axes: (R)
    scores: np.ndarray  # axes: (R)
    ratio_by_gpu: Mapping[str, float]
    hazard_by_gpu: Mapping[str, float]
    risk_aversion_usd_per_hr: float
    preempt: PreemptionModel

    @property
    def n_candidates(self) -> int:
        return int(self.order.shape[0])

    def prediction(self, rank: int) -> TrainingPrediction:
        """Materialise the rank-th best candidate."""
        if not 0 <= rank < self.n_candidates:
            raise RecommendationError(
                f"rank {rank} outside {self.n_candidates} spot candidates"
            )
        return self.session.materialize(
            int(self.order[rank]),
            self.ratio_by_gpu,
            self.hazard_by_gpu,
            self.preempt,
        )

    def best(self) -> TrainingPrediction:
        if self.n_candidates == 0:
            raise RecommendationError(
                "no spot-priceable candidates at this tick"
            )
        return self.prediction(0)

    def predictions(self, top: Optional[int] = None) -> List[TrainingPrediction]:
        """The ranking's best ``top`` candidates (all when ``None``)."""
        n = self.n_candidates if top is None else min(top, self.n_candidates)
        return [self.prediction(r) for r in range(n)]


class SpotRerankSession:
    """A cached base sweep that re-ranks per spot tick in O(candidates).

    Built from one On-Demand :class:`SweepResult` (the expensive part:
    graph compile + stacked matmuls + catalog resolution). Each
    :meth:`rerank` call is pure tensor re-scaling over the cached
    ``(G, K, B)`` grids.
    """

    def __init__(self, base: SweepResult) -> None:
        if len(base.plan.pricings) != 1:
            raise ModelingError(
                f"SpotRerankSession needs a single-pricing base sweep, "
                f"got {len(base.plan.pricings)} pricing tiers"
            )
        if base.plan.pricings[0].name != ON_DEMAND.name:
            raise ModelingError(
                f"SpotRerankSession bases on On-Demand rates (spot = "
                f"ratio x On-Demand), got {base.plan.pricings[0].name!r}"
            )
        self.base = base
        self.plan = base.plan
        #: On-Demand rate per (GPU, count); NaN where the catalog has no
        #: instance — those cells stay NaN through every tick.
        self.od_rate_usd_per_hr = base.usd_per_hr[0]  # axes: (G, K) nan
        self.total_us = base.total_us  # axes: (G, K, B)
        self.total_hr = us_to_hr(base.total_us)  # axes: (G, K, B)
        # Same addition TrainingPrediction.per_iteration_us performs.
        self.per_iteration_us = (  # axes: (G, K, B)
            base.compute_us[:, None, :] + base.comm_us[:, :, None]
        )
        self.instances = base.instances[0]
        self.shape = self.total_us.shape

    @classmethod
    def from_estimator(
        cls,
        estimator: CeerEstimator,
        model: Union[str, OpGraph],
        job: TrainingJob,
        batch_sizes: Sequence[int] = DEFAULT_SWEEP_BATCH_SIZES,
        gpu_keys: Optional[Sequence[str]] = None,
    ) -> "SpotRerankSession":
        """Run the base On-Demand sweep and wrap it.

        With ``gpu_keys=None`` the sweep covers the full catalog plus
        any admitted GPU the estimator can synthesize models for (the
        transfer backend) — the same widening rule as the CLI's
        ``--full-catalog``.
        """
        if gpu_keys is None:
            extra = [
                key for key in admitted_gpu_keys()
                if estimator.compute_models.supports_gpu(key)
            ]
            gpu_keys = tuple(GPU_KEYS) + tuple(extra) if extra else None
        plan = SweepPlan.full_catalog(
            batch_sizes=tuple(batch_sizes),
            pricings=(ON_DEMAND,),
            gpu_keys=gpu_keys,
        )
        return cls(evaluate_sweep(estimator, model, job, plan))

    # ------------------------------------------------------------------
    def _gpu_vector(self, table: Mapping[str, float]) -> np.ndarray:
        """Per-GPU values in plan order; NaN for GPUs the table omits."""
        return np.array(
            [table.get(key, np.nan) for key in self.plan.gpu_keys]
        )  # axes: (G) nan

    def rerank(
        self,
        ratio_by_gpu: Mapping[str, float],
        hazard_by_gpu: Optional[Mapping[str, float]] = None,
        risk_aversion_usd_per_hr: float = 0.0,
        preempt: PreemptionModel = DEFAULT_PREEMPTION,
    ) -> SpotRanking:
        """Re-rank every candidate under one tick's (ratios, hazards).

        GPUs missing from ``ratio_by_gpu`` mask (NaN score) rather than
        raise — the tick simply has no quote for them, mirroring the
        batched sweep's mask-not-raise contract. ``hazard_by_gpu=None``
        means hazard 0 everywhere: scores reduce to deterministic spot
        cost plus the λ·hours term.
        """
        if risk_aversion_usd_per_hr < 0:
            raise ModelingError(
                f"risk_aversion_usd_per_hr must be >= 0, got "
                f"{risk_aversion_usd_per_hr}"
            )
        ratio_g = self._gpu_vector(ratio_by_gpu)  # axes: (G) nan
        if hazard_by_gpu is None:
            hazard_g = np.zeros(len(self.plan.gpu_keys))  # axes: (G)
        else:
            hazard_g = self._gpu_vector(hazard_by_gpu)  # axes: (G) nan
        # Identical float sequence to SpotPricing.instance: the base
        # On-Demand rate times the tick's ratio.
        spot_rate = self.od_rate_usd_per_hr * ratio_g[:, None]  # axes: (G, K) nan
        # Identical float sequence to the expected_makespan_us property:
        # total + (hazard * total_hours) * (overhead_iters * per_iter).
        replay_us = preempt.overhead_iterations * self.per_iteration_us
        makespan_us = self.total_us + (
            hazard_g[:, None, None] * self.total_hr
        ) * replay_us  # axes: (G, K, B)
        makespan_hr = us_to_hr(makespan_us)  # axes: (G, K, B)
        expected_cost_usd = usd_per_hr_to_usd(  # axes: (G, K, B) nan
            spot_rate[:, :, None], makespan_hr
        )
        # SpotRiskObjective.score, vectorised.
        score = (  # axes: (G, K, B) nan
            expected_cost_usd + risk_aversion_usd_per_hr * makespan_hr
        )
        flat = score.ravel()  # axes: (C)
        order = np.argsort(flat, kind="stable")  # axes: (C)
        # Stable argsort places NaN last; keep the finite prefix. An
        # unpriceable cell is NaN on every tick (od rate NaN) or on this
        # one (no ratio quote / no hazard for the GPU).
        n_finite = int(np.isfinite(flat).sum())
        order = order[:n_finite]  # staticcheck: ignore[axis-drop] — the finite prefix re-labels candidates (C) as ranks (R)
        default_registry().counter("spot.reranks").inc()
        return SpotRanking(
            session=self,
            order=order,
            scores=flat[order],
            ratio_by_gpu=dict(ratio_by_gpu),
            hazard_by_gpu=dict(hazard_by_gpu or {}),
            risk_aversion_usd_per_hr=risk_aversion_usd_per_hr,
            preempt=preempt,
        )

    # ------------------------------------------------------------------
    def materialize(
        self,
        flat_index: int,
        ratio_by_gpu: Mapping[str, float],
        hazard_by_gpu: Mapping[str, float],
        preempt: PreemptionModel,
    ) -> TrainingPrediction:
        """One flat candidate as a preemption-aware prediction.

        The prediction's derived properties recompute the tick's score
        components from the same stored floats with the same arithmetic,
        so they equal the rerank tensors exactly — and equal a full
        re-sweep's materialisation, because the spot instance is rebuilt
        by the same rule ``SpotPricing`` applies (On-Demand base rate
        times ratio, ``spot:`` name prefix).
        """
        g, k, b = np.unravel_index(flat_index, self.shape)
        base_instance = self.instances[g][k]
        if base_instance is None:
            raise ModelingError(
                f"candidate ({g}, {k}) has no catalog instance"
            )
        gpu_key = self.plan.gpu_keys[g]
        ratio = ratio_by_gpu[gpu_key]
        spot_instance = InstanceType(
            name=f"spot:{base_instance.name}",
            gpu_key=base_instance.gpu_key,
            num_gpus=base_instance.num_gpus,
            usd_per_hr=base_instance.usd_per_hr * ratio,
            proxy_of=base_instance.proxy_of or base_instance.name,
        )
        deterministic = self.base.prediction(0, int(g), int(k), int(b))
        return replace(
            deterministic,
            instance_name=spot_instance.name,
            usd_per_hr=spot_instance.usd_per_hr,
            hazard_per_hr=float(hazard_by_gpu.get(gpu_key, 0.0)),
            preempt_overhead_iterations=preempt.overhead_iterations,
        )
