"""Tests for trace record arithmetic (OpTiming / TrainingMeasurement)."""

import numpy as np
import pytest

from repro.sim.trace import TrainingMeasurement
from tests.oracle import op_timing_from_samples


class TestTrainingMeasurement:
    def _measurement(self, **overrides):
        defaults = dict(
            model="m", gpu_key="V100", num_gpus=2, instance_name="i",
            usd_per_hr=3.6, batch_size=32,
            compute_us_per_iteration=900.0, comm_overhead_us=100.0,
            iterations=3_600_000.0,
        )
        defaults.update(overrides)
        return TrainingMeasurement(**defaults)

    def test_per_iteration_sum(self):
        assert self._measurement().per_iteration_us == 1000.0

    def test_total_time_chain(self):
        m = self._measurement()
        assert m.total_us == pytest.approx(3.6e9)
        assert m.total_hours == pytest.approx(1.0)

    def test_cost(self):
        assert self._measurement().cost_dollars == pytest.approx(3.6)

    def test_zero_comm_allowed(self):
        m = self._measurement(comm_overhead_us=0.0)
        assert m.per_iteration_us == 900.0


class TestOpTimingStats:
    def test_normalized_std_zero_mean_safe(self, tiny_graph):
        op = tiny_graph.operations[0]
        timing = op_timing_from_samples(op, "V100", np.array([0.0, 0.0]))
        assert timing.normalized_std == 0.0

    def test_percentile_fields_ordered(self, tiny_graph):
        op = tiny_graph.operations[5]
        samples = np.random.default_rng(0).uniform(1, 100, 500)
        t = op_timing_from_samples(op, "K80", samples)
        assert t.min_us <= t.median_us <= t.max_us
        assert t.n_samples == 500

    def test_bytes_copied_from_op(self, tiny_graph):
        op = tiny_graph.operations[7]
        t = op_timing_from_samples(op, "T4", np.array([1.0, 2.0]))
        assert t.input_bytes == op.input_bytes
        assert t.output_bytes == op.output_bytes
