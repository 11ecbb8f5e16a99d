"""Spot-market dynamics: recommendation stability under streaming prices.

The paper prices every recommendation against fixed tiers (On-Demand,
static spot ratios, market ratios) — Fig. 11/12 are one-shot rankings.
Real spot markets move: discounts drift, capacity crunches spike prices,
and a deeper discount correlates with a higher preemption hazard. This
study streams a seeded synthetic spot-price trace
(:mod:`repro.cloud.spotsim`) through the incremental re-rank layer
(:mod:`repro.core.rerank`) and asks two questions the static figures
cannot:

* **Churn** — across a trace, how often does the best spot instance
  change? A ranking that flips every tick is an operational hazard in
  itself; one that never flips means the dynamics don't matter.
* **Risk aversion** — how does the winner shift as λ (dollars per
  expected hour) grows? At λ=0 the deepest discount wins even with a
  high preemption hazard; at large λ the ranking converges toward the
  deterministic min-time choice.

Everything is deterministic from the trace seed: same seed, same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.artifacts.workspace import Workspace
from repro.cloud.spotsim import SpotMarket
from repro.core.preempt import DEFAULT_PREEMPTION
from repro.core.rerank import SpotRerankSession
from repro.experiments.common import (
    CANONICAL_ITERATIONS,
    IMAGENET_JOB,
    fitted_ceer,
)
from repro.obs.spans import traced

__all__ = ["SpotDynamicsResult", "run_spot_dynamics"]


@dataclass
class SpotDynamicsResult:
    """Winner churn and risk-aversion sensitivity over one spot trace."""

    model: str
    seed: int
    n_ticks: int
    #: λ (USD per expected hour) -> sequence of per-tick winners
    #: ``(instance_name, expected_cost_usd, expected_makespan_hours)``.
    winners_by_lambda: Dict[float, Tuple[Tuple[str, float, float], ...]]

    def churn(self, risk_aversion_usd_per_hr: float) -> int:
        """How many ticks changed the best instance at this λ."""
        winners = self.winners_by_lambda[risk_aversion_usd_per_hr]
        return sum(
            1 for prev, cur in zip(winners, winners[1:])
            if prev[0] != cur[0]
        )

    def render(self) -> str:
        rows = []
        for lam in sorted(self.winners_by_lambda):
            winners = self.winners_by_lambda[lam]
            names = [name for name, _, _ in winners]
            final_name, final_cost_usd, final_hr = winners[-1]
            rows.append([
                f"{lam:.2f}",
                f"{self.churn(lam)}/{self.n_ticks - 1}",
                len(set(names)),
                final_name,
                f"${final_cost_usd:.2f}",
                f"{final_hr:.2f} h",
            ])
        return format_table(
            ["lambda ($/h)", "winner flips", "distinct winners",
             "final winner", "expected cost", "expected makespan"],
            rows,
            title=f"Extension - spot dynamics for '{self.model}' "
                  f"(seed {self.seed}, {self.n_ticks} ticks)",
        )


@traced("experiments.ext.spot_dynamics")
def run_spot_dynamics(
    model: str = "resnet_50",
    seed: int = 2020,
    n_ticks: int = 16,
    risk_aversions: Sequence[float] = (0.0, 0.5, 2.0, 8.0),
    n_iterations: int = CANONICAL_ITERATIONS,
    workspace: Optional[Workspace] = None,
) -> SpotDynamicsResult:
    """Stream ``n_ticks`` prices and record each λ's per-tick winner.

    The base sweep runs once; every (tick, λ) cell is an incremental
    re-rank over the cached tensors — the same path ``repro serve``
    takes on ``POST /spot/tick``.
    """
    fitted = fitted_ceer(n_iterations, workspace=workspace)
    session = SpotRerankSession.from_estimator(
        fitted.estimator, model, IMAGENET_JOB
    )
    markets = {lam: SpotMarket(seed=seed) for lam in risk_aversions}
    winners_by_lambda: Dict[float, List[Tuple[str, float, float]]] = {
        lam: [] for lam in risk_aversions
    }
    for tick in range(n_ticks):
        for lam, market in markets.items():
            if tick > 0:
                market.tick()
            best = session.rerank(
                market.ratios(),
                market.hazards_per_hr(),
                risk_aversion_usd_per_hr=lam,
                preempt=DEFAULT_PREEMPTION,
            ).best()
            winners_by_lambda[lam].append((
                best.instance_name,
                best.expected_cost_usd,
                best.expected_makespan_hours,
            ))
    return SpotDynamicsResult(
        model=model,
        seed=seed,
        n_ticks=n_ticks,
        winners_by_lambda={
            lam: tuple(winners) for lam, winners in winners_by_lambda.items()
        },
    )
