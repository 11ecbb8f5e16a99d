"""Seeded synthetic spot-price traces per GPU family (ROADMAP item 5).

Real AWS spot markets quote a fluctuating discount off the On-Demand
rate and reclaim capacity when demand spikes. This module synthesises
that behaviour deterministically: a mean-reverting AR(1) walk of the
spot-to-On-Demand ratio around the static anchors in
:data:`~repro.cloud.pricing.SPOT_RATIO_BY_GPU`, plus occasional
persistent "capacity crunch" spikes that push the ratio toward the
On-Demand ceiling. Everything derives from an explicit integer seed via
``np.random.default_rng`` — no wall clocks, no global RNG state — so the
same seed always yields the byte-identical trace regardless of process
or thread parallelism.

The trace also carries a per-(tick, GPU) preemption *hazard*: the closer
the spot ratio sits to the ceiling, the scarcer capacity is and the more
likely AWS reclaims the instance. :class:`SpotMarket` wraps a trace in a
monotonically increasing generation counter for the streaming
re-recommendation loop (``repro.serve`` and the tick CLI path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.cloud.catalog import admitted_spot_ratios
from repro.cloud.pricing import SPOT_RATIO_BY_GPU, SpotPricing
from repro.errors import CatalogError
from repro.obs.metrics import default_registry
from repro.obs.spans import span

#: Default number of ticks in a generated trace. The streaming loop
#: wraps around (generation modulo n_ticks), so a bounded trace serves
#: an unbounded tick stream.
DEFAULT_N_TICKS = 64


@dataclass(frozen=True)
class SpotMarketConfig:
    """Parameters of one synthetic spot market (all dimensionless ratios).

    ``base_ratios`` is a tuple of ``(gpu_key, anchor_ratio)`` pairs — a
    tuple, not a dict, so configs stay hashable and frozen. The walk
    mean-reverts toward each GPU's anchor with per-tick strength
    ``reversion``, perturbed by Gaussian noise of relative scale
    ``volatility``. Each tick a crunch spike starts with probability
    ``spike_probability`` and persists with probability
    ``spike_persistence``; an active spike lifts the ratio by
    ``spike_magnitude`` times the anchor. Ratios clamp to
    ``[min_ratio, max_ratio]``.

    ``max_hazard_per_hr`` scales price into preemption risk: hazard is 0
    at the floor and ``max_hazard_per_hr`` preemptions/hr at the
    ceiling, linear in between.
    """

    seed: int
    base_ratios: Tuple[Tuple[str, float], ...]
    n_ticks: int = DEFAULT_N_TICKS
    reversion: float = 0.35
    volatility: float = 0.04
    spike_probability: float = 0.06
    spike_persistence: float = 0.55
    spike_magnitude: float = 0.9
    min_ratio: float = 0.05
    max_ratio: float = 0.95
    max_hazard_per_hr: float = 0.25

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise CatalogError(f"spot market seed must be >= 0, got {self.seed}")
        if not self.base_ratios:
            raise CatalogError("SpotMarketConfig needs at least one GPU")
        keys = [key for key, _ in self.base_ratios]
        if len(set(keys)) != len(keys):
            raise CatalogError(
                f"SpotMarketConfig base_ratios has duplicate GPU keys: {keys}"
            )
        if self.n_ticks < 1:
            raise CatalogError(f"n_ticks must be >= 1, got {self.n_ticks}")
        if not 0.0 < self.min_ratio < self.max_ratio <= 1.0:
            raise CatalogError(
                f"need 0 < min_ratio < max_ratio <= 1, got "
                f"[{self.min_ratio}, {self.max_ratio}]"
            )
        for key, ratio in self.base_ratios:
            if not self.min_ratio <= ratio <= self.max_ratio:
                raise CatalogError(
                    f"anchor ratio for {key!r} is {ratio}, outside the "
                    f"clamp range [{self.min_ratio}, {self.max_ratio}]"
                )
        for name in ("reversion", "spike_probability", "spike_persistence"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise CatalogError(f"{name} must be in [0, 1], got {value}")
        for name in ("volatility", "spike_magnitude", "max_hazard_per_hr"):
            value = getattr(self, name)
            if value < 0.0:
                raise CatalogError(f"{name} must be >= 0, got {value}")

    @property
    def gpu_keys(self) -> Tuple[str, ...]:
        return tuple(key for key, _ in self.base_ratios)

    @classmethod
    def for_catalog(cls, seed: int, **overrides) -> "SpotMarketConfig":
        """A config covering every GPU with a known spot anchor.

        The built-in :data:`SPOT_RATIO_BY_GPU` table plus any
        runtime-admitted GPU that declared ``--spot-ratio``; admitted
        GPUs without one have no anchor to fluctuate and stay masked,
        exactly as under static spot pricing.
        """
        anchors = dict(SPOT_RATIO_BY_GPU)
        anchors.update(admitted_spot_ratios())
        base = tuple(sorted(anchors.items()))
        return cls(seed=seed, base_ratios=base, **overrides)


@dataclass(frozen=True, eq=False)
class SpotPriceTrace:
    """A generated trace: per-(tick, GPU) spot ratios and hazards."""

    config: SpotMarketConfig
    ratios: np.ndarray  # axes: (T, G)
    hazards_per_hr: np.ndarray  # axes: (T, G)

    @property
    def n_ticks(self) -> int:
        return int(self.ratios.shape[0])

    def _row(self, grid: np.ndarray, tick: int) -> Dict[str, float]:
        if not 0 <= tick < self.n_ticks:
            raise CatalogError(
                f"tick {tick} outside trace of {self.n_ticks} ticks"
            )
        row = grid[tick]
        return {
            key: float(row[g]) for g, key in enumerate(self.config.gpu_keys)
        }

    def ratios_at(self, tick: int) -> Dict[str, float]:
        """Spot-to-On-Demand ratio per GPU key at one tick."""
        return self._row(self.ratios, tick)

    def hazards_at(self, tick: int) -> Dict[str, float]:
        """Preemption hazard (preemptions/hr) per GPU key at one tick."""
        return self._row(self.hazards_per_hr, tick)

    def pricing_at(self, tick: int) -> SpotPricing:
        """A :class:`SpotPricing` quoting this tick's ratios.

        ``include_admitted=False``: the tick's table *is* the market; a
        GPU admitted after the trace was generated must mask, not
        silently price at its static admission ratio.
        """
        return SpotPricing(
            name=f"spot-trace@{tick}",
            ratio_by_gpu=self.ratios_at(tick),
            include_admitted=False,
        )


def generate_trace(config: SpotMarketConfig) -> SpotPriceTrace:
    """Generate the seeded trace for one market config.

    Pure function of ``config`` (the RNG is constructed from
    ``config.seed`` alone), so equal configs always produce
    byte-identical ratio arrays.
    """
    rng = np.random.default_rng(config.seed)
    anchor = np.array([ratio for _, ratio in config.base_ratios])  # axes: (G)
    level = anchor.copy()  # axes: (G)
    in_spike = np.zeros(anchor.shape[0], dtype=bool)  # axes: (G)
    rows = []
    for _ in range(config.n_ticks):
        noise = rng.normal(0.0, config.volatility, size=anchor.shape[0])
        level = level + config.reversion * (anchor - level) + noise * anchor
        starts = rng.random(anchor.shape[0]) < config.spike_probability
        persists = rng.random(anchor.shape[0]) < config.spike_persistence
        in_spike = starts | (in_spike & persists)
        tick_ratio = np.where(
            in_spike, level + config.spike_magnitude * anchor, level
        )
        rows.append(np.clip(tick_ratio, config.min_ratio, config.max_ratio))
    ratios = np.stack(rows, axis=0)  # axes: (T, G)
    # Capacity-scarcity proxy: hazard rises linearly as the spot quote
    # approaches the ceiling (AWS reclaims capacity exactly when the
    # market is tight). 0 at the floor, max_hazard_per_hr at the ceiling.
    crunch = (ratios - config.min_ratio) / (config.max_ratio - config.min_ratio)
    hazards_per_hr = config.max_hazard_per_hr * crunch  # axes: (T, G)
    return SpotPriceTrace(
        config=config, ratios=ratios, hazards_per_hr=hazards_per_hr
    )


class SpotMarket:
    """A streaming spot market: a seeded trace plus a generation counter.

    ``generation`` starts at 0 and only ever increases; the active tick
    is ``generation % n_ticks`` so the bounded trace serves an unbounded
    tick stream. Consumers that cache rankings key them by generation —
    two observations at the same generation are guaranteed to quote
    identical prices.
    """

    def __init__(
        self,
        config: Optional[SpotMarketConfig] = None,
        seed: int = 2020,
    ) -> None:
        self.config = config if config is not None else \
            SpotMarketConfig.for_catalog(seed)
        self.trace = generate_trace(self.config)
        self.generation = 0

    @property
    def tick_index(self) -> int:
        return self.generation % self.trace.n_ticks

    def tick(self) -> int:
        """Advance the market one tick; returns the new generation."""
        with span("spot.tick", generation=self.generation + 1):
            self.generation += 1
            default_registry().counter("spot.ticks").inc()
        return self.generation

    def ratios(self) -> Dict[str, float]:
        """The active tick's spot-to-On-Demand ratios."""
        return self.trace.ratios_at(self.tick_index)

    def hazards_per_hr(self) -> Dict[str, float]:
        """The active tick's preemption hazards."""
        return self.trace.hazards_at(self.tick_index)

    def pricing(self) -> SpotPricing:
        """A pricing scheme quoting the active tick."""
        return self.trace.pricing_at(self.tick_index)


def observe(
    market_or_trace, generation: int
) -> Tuple[Mapping[str, float], Mapping[str, float]]:
    """(ratios, hazards) of a market/trace at an absolute generation."""
    trace = getattr(market_or_trace, "trace", market_or_trace)
    tick = generation % trace.n_ticks
    return trace.ratios_at(tick), trace.hazards_at(tick)
