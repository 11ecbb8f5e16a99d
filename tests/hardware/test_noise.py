"""Tests for the seeded noise models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.ops import OP_REGISTRY
from repro.hardware.noise import (
    all_known_sigmas,
    first_randoms,
    lognormal_mean_std,
    lognormal_rows,
    noise_sigma,
    rng_for,
    sample_lognormal_times_us,
    seed_words,
    seeded_streams,
)


class TestSigmas:
    def test_heavy_kernels_low_sigma(self):
        for op_type in ("Conv2D", "MaxPoolGrad", "FusedBatchNormGradV3"):
            assert noise_sigma(op_type) < 0.1

    def test_light_and_host_high_sigma(self):
        assert noise_sigma("Reshape") > 0.2
        assert noise_sigma("SparseToDense") >= 0.4

    def test_every_registered_op_has_a_sigma(self):
        sigmas = all_known_sigmas()
        assert set(sigmas) == set(OP_REGISTRY)
        assert all(0 < s < 1 for s in sigmas.values())


class TestRng:
    def test_same_keys_same_stream(self):
        a = rng_for("a", 1).random(5)
        b = rng_for("a", 1).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_different_stream(self):
        assert not np.array_equal(rng_for("a").random(5), rng_for("b").random(5))

    def test_key_order_matters(self):
        assert not np.array_equal(
            rng_for("a", "b").random(3), rng_for("b", "a").random(3)
        )


class TestSampling:
    def test_median_tracks_base(self):
        samples = sample_lognormal_times_us(1000.0, 0.05, 20_000, rng_for("t"))
        assert abs(np.median(samples) - 1000.0) / 1000.0 < 0.02

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            sample_lognormal_times_us(10.0, 0.1, 0, rng_for("t"))

    def test_jitter_floor_keeps_zero_base_positive(self):
        samples = sample_lognormal_times_us(0.0, 0.1, 100, rng_for("t"))
        assert (samples >= 0).all() and samples.max() <= 0.2

    def test_analytic_moments_match_empirical(self):
        base, sigma = 500.0, 0.2
        mean, std = lognormal_mean_std(base, sigma)
        samples = sample_lognormal_times_us(base, sigma, 200_000, rng_for("m"))
        assert abs(samples.mean() - mean) / mean < 0.01
        assert abs(samples.std() - std) / std < 0.05

    @settings(max_examples=20)
    @given(st.floats(1.0, 1e6), st.floats(0.01, 0.5))
    def test_normalized_std_close_to_sigma(self, base, sigma):
        samples = sample_lognormal_times_us(base, sigma, 5000, rng_for(base, sigma))
        observed = samples.std() / samples.mean()
        # For small sigma, lognormal nstd ~= sigma (plus the tiny jitter).
        assert observed < sigma + 0.25


class TestCellSeeding:
    """The batched cell seeding is ``np.random.default_rng`` bit for bit.

    Runs on whatever numpy is installed, with no skip: the helpers
    re-derive numpy's SeedSequence and PCG64 seeding, so a numpy that
    changed either must fail here, by name.
    """

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    N_RANDOM_SEEDS = 100_000
    DRAWS = 40

    def seeds(self):
        drawn = np.random.default_rng(20261020).integers(
            0, 2**64 - 1, size=self.N_RANDOM_SEEDS, dtype=np.uint64,
            endpoint=True,
        )
        return self.EDGE_SEEDS + [int(seed) for seed in drawn]

    def test_matches_default_rng(self):
        seeds = self.seeds()
        words = seed_words(seeds)
        first = first_randoms(seeds)
        factors = 1.0 + 0.1 * (2.0 * first - 1.0)
        mismatches = []
        for seed, (row, generator) in zip(seeds, seeded_streams(seeds)):
            reference = np.random.default_rng(seed)
            fresh = reference.bit_generator.state
            expected_words = reference.bit_generator.seed_seq.generate_state(
                4, np.uint64)
            expected_first = reference.random()
            reference.bit_generator.state = fresh
            normals = reference.standard_normal(self.DRAWS)
            uniforms = reference.random(self.DRAWS)
            if not (
                np.array_equal(words[row], expected_words)
                and first[row] == expected_first
                and factors[row] == 1.0 + 0.1 * (2.0 * expected_first - 1.0)
                and np.array_equal(generator.standard_normal(self.DRAWS), normals)
                and np.array_equal(generator.random(self.DRAWS), uniforms)
            ):
                mismatches.append(seed)
        assert not mismatches, (
            f"numpy {np.__version__}: batched seeding differs from "
            f"np.random.default_rng for {len(mismatches)} of {len(seeds)} "
            f"seeds, first {mismatches[:5]}"
        )

    def test_rows_match_per_op_sampling(self):
        seeds = self.seeds()[:2000]
        draw = np.random.default_rng(7)
        base = draw.uniform(0.0, 5e4, size=len(seeds))
        sigma = draw.uniform(0.01, 0.5, size=len(seeds))
        rows = lognormal_rows(base, sigma, seeds, self.DRAWS)
        expected = np.stack([
            sample_lognormal_times_us(b, s, self.DRAWS, np.random.default_rng(seed))
            for b, s, seed in zip(base.tolist(), sigma.tolist(), seeds)
        ])
        assert np.array_equal(rows, expected), (
            f"numpy {np.__version__}: lognormal_rows differs from "
            f"sample_lognormal_times_us"
        )

    def test_rows_require_positive_n(self):
        with pytest.raises(ValueError):
            lognormal_rows(np.ones(1), np.ones(1), [3], 0)
