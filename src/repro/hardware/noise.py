"""Seeded stochastic noise for simulated measurements.

The paper's central variability finding (Section III-C, Fig. 5): for a
given {heavy GPU operation, input size} pair, compute times are nearly
deterministic (95% of normalized standard deviations below 0.1), while
light GPU ops and CPU ops fluctuate much more — enough that regression on
them fails and Ceer falls back to sample medians (Section IV-B).

We reproduce that structure with multiplicative lognormal noise whose sigma
is a property of the *op type*: the dominant kernels (convolutions,
pooling, batch norm, the big elementwise ops) get sigma ~= 0.02-0.06;
bookkeeping/data-movement ops get sigma ~= 0.25-0.45; host ops ~= 0.5.

Every random stream is keyed by a stable hash of string/int keys
(:func:`seed_for`), so the whole simulation is exactly reproducible and
independent of dict ordering or process hash seeds. A stream is the one
``np.random.default_rng(seed)`` would give. :func:`rng_for` builds that
Generator for one stream. A simulated cell needs two streams per op, and
building ~13 us of ``SeedSequence`` per stream would dominate it, so the
cell helpers reproduce numpy's seeding instead: :func:`seed_words`
computes ``SeedSequence(seed).generate_state(4, np.uint64)`` for all of a
cell's seeds at once in uint32 numpy arithmetic, :func:`pcg64_states`
turns the words into PCG64 states, and :func:`seeded_streams` sets one
reused Generator to each state in turn. :func:`first_randoms` (a stream's
first ``random()``, the instance factor) and :func:`lognormal_rows` (each
op's samples) draw from it. All of them are bit-identical to
``default_rng``; the per-op functions stay as the reference the tests
compare them with.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.graph.ops import OP_REGISTRY, OpCategory, op_def

#: Global seed namespace; bump to regenerate an entirely fresh "cloud".
GLOBAL_SEED_NAMESPACE = "ceer-repro-v1"

#: Lognormal sigma per op category (see module docstring).
_CATEGORY_SIGMA = {
    OpCategory.CONV_COMPUTE: 0.030,
    OpCategory.POOLING: 0.040,
    OpCategory.NORMALIZATION: 0.045,
    OpCategory.ELEMENTWISE: 0.060,
    # Parameter-update kernels are mostly tiny (biases, BN scales) and are
    # scheduled in bursts at iteration end — high jitter in practice.
    OpCategory.OPTIMIZER: 0.200,
    OpCategory.DATA_MOVEMENT: 0.350,
    OpCategory.HOST: 0.500,
}

#: Per-op-type overrides for ops that behave unlike their category.
_OP_TYPE_SIGMA = {
    # Tiny kernels that the scheduler jitters around a lot:
    "SparseSoftmaxCrossEntropyWithLogits": 0.200,
    "Mean": 0.220,
    "Mul": 0.100,
    "Pad": 0.300,
    "BiasAddGrad": 0.090,
}


def noise_sigma(op_type: str) -> float:
    """Lognormal sigma for an op type's compute-time noise."""
    if op_type in _OP_TYPE_SIGMA:
        return _OP_TYPE_SIGMA[op_type]
    return _CATEGORY_SIGMA[op_def(op_type).category]


def seed_for(*keys: Union[str, int]) -> int:
    """The 64-bit seed of the stream keyed by ``keys``: a stable hash."""
    digest = hashlib.sha256(
        "/".join([GLOBAL_SEED_NAMESPACE, *map(str, keys)]).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(*keys: Union[str, int]) -> np.random.Generator:
    """A deterministic Generator derived from a stable hash of ``keys``."""
    return np.random.default_rng(seed_for(*keys))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _HashMix:
    """SeedSequence's ``hashmix`` over a column of uint32 words.

    The hash constant advances the same way for every seed, so it is one
    Python int shared by the whole column.
    """

    def __init__(self, init: int, mult: int) -> None:
        self.const = init
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def seed_words(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed.

    Returns an (n, 4) uint64 array. A seed below 2**64 is at most two
    uint32 entropy words; numpy pads the four-word pool with the hash of
    0, which is what a zero high word gives, so every seed takes the same
    vectorised path.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    hashmix = _HashMix(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return np.stack(
        [state[2 * k] | (state[2 * k + 1] << np.uint64(32)) for k in range(4)],
        axis=1,
    )


def pcg64_states(seeds: Sequence[int]) -> List[Tuple[int, int]]:
    """(state, inc) of ``default_rng(seed).bit_generator`` for every seed.

    PCG64 seeds itself from the four words: ``inc`` is the odd-ified
    second half and the state is stepped twice around the first half.
    """
    states = []
    for w0, w1, w2, w3 in seed_words(seeds).tolist():
        inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
        state = ((inc + ((w0 << 64) | w1)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


#: Seeds the Generator :func:`seeded_streams` reuses. Its state is
#: replaced before every draw, so any seed serves; one made at import
#: spares each call a ``SeedSequence`` construction.
_PLACEHOLDER_SEED = np.random.SeedSequence(0)


def seeded_streams(
    seeds: Sequence[int],
) -> Iterator[Tuple[int, np.random.Generator]]:
    """Yield ``(i, generator)`` with ``generator`` in the state
    ``default_rng(seeds[i])`` starts in.

    One Generator serves every seed: its PCG64 state is set from
    :func:`pcg64_states` before each yield, so draw from it before asking
    for the next seed.
    """
    generator = np.random.Generator(np.random.PCG64(_PLACEHOLDER_SEED))
    bit_generator = generator.bit_generator
    for row, (state, inc) in enumerate(pcg64_states(seeds)):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield row, generator


def first_randoms(seeds: Sequence[int]) -> np.ndarray:
    """``default_rng(seed).random()`` for every seed."""
    return np.array(
        [generator.random() for _, generator in seeded_streams(seeds)],
        dtype=float,
    )


def sample_lognormal_times_us(
    base_us: float, sigma: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` compute-time samples around ``base_us``.

    The lognormal is parameterised so its *median* equals ``base_us`` —
    matching how a deterministic kernel time gets inflated by scheduling
    interference: frequent values near the floor, occasional slow outliers.
    A tiny additive jitter floor (0.2 us) keeps zero-cost ops measurable.
    """
    if n <= 0:
        raise ValueError(f"need n >= 1 samples, got {n}")
    samples = base_us * np.exp(sigma * rng.standard_normal(n))
    jitter = 0.2 * rng.random(n)
    return samples + jitter


def lognormal_rows(
    base_us: np.ndarray, sigma: np.ndarray, seeds: Sequence[int], n: int
) -> np.ndarray:
    """:func:`sample_lognormal_times_us` for every row, bit for bit.

    Row ``i`` is ``sample_lognormal_times_us(base_us[i], sigma[i], n,
    default_rng(seeds[i]))``: the same draws on one reused Generator, the
    same IEEE products, and one ``np.exp`` per row as the per-op call
    makes. Returns an (len(seeds), n) matrix.
    """
    if n <= 0:
        raise ValueError(f"need n >= 1 samples, got {n}")
    samples = np.empty((len(seeds), n))
    jitter = np.empty((len(seeds), n))
    for row, generator in seeded_streams(seeds):
        generator.standard_normal(out=samples[row])
        generator.random(out=jitter[row])
    samples *= np.asarray(sigma, dtype=float)[:, None]
    for row in samples:
        np.exp(row, out=row)
    samples *= np.asarray(base_us, dtype=float)[:, None]
    jitter *= 0.2
    samples += jitter
    return samples


def lognormal_mean_std(base_us: float, sigma: float) -> Tuple[float, float]:
    """Analytic (mean, std) of the lognormal noise model, for tests."""
    mean = base_us * float(np.exp(sigma**2 / 2.0))
    std = mean * float(np.sqrt(np.exp(sigma**2) - 1.0))
    return mean, std


def all_known_sigmas() -> dict:
    """Sigma per registered op type (diagnostics and property tests)."""
    return {name: noise_sigma(name) for name in OP_REGISTRY}
