"""Tests for the single-device execution simulator."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.graph as graph_module
from repro.errors import ProfilingError
from repro.graph.graph import OpGraph
from repro.graph.ops import Device, Operation
from repro.graph.shapes import TensorShape
from repro.hardware.gpus import (
    GPU_KEYS,
    GpuSpec,
    register_gpu_spec,
    unregister_gpu_spec,
)
from repro.hardware import noise
from repro.models.zoo import build_model, model_names
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.profiling.profiler import Profiler
from repro.sim.executor import cell_stats, compute_us, run_iterations
from tests.oracle import oracle_timings, op_timing_from_samples
from tests.test_property_random_models import _architectures, _build_random


class TestRunIterations:
    def test_one_timing_per_op(self, tiny_graph):
        profile = run_iterations(tiny_graph, "V100", 50)
        assert len(profile.timings) == len(tiny_graph)
        names = {t.op_name for t in profile.timings}
        assert names == {op.name for op in tiny_graph}

    def test_metadata_propagated(self, tiny_graph):
        profile = run_iterations(tiny_graph, "V100", 50)
        assert profile.model == "tiny"
        assert profile.gpu_key == "V100"
        assert profile.num_parameters == tiny_graph.num_parameters
        assert profile.n_iterations == 50

    def test_family_name_normalised(self, tiny_graph):
        profile = run_iterations(tiny_graph, "P2", 10)
        assert profile.gpu_key == "K80"

    def test_deterministic(self, tiny_graph):
        a = run_iterations(tiny_graph, "T4", 30)
        b = run_iterations(tiny_graph, "T4", 30)
        assert [t.mean_us for t in a.timings] == [t.mean_us for t in b.timings]

    def test_seed_context_gives_independent_run(self, tiny_graph):
        a = run_iterations(tiny_graph, "T4", 30, "run-a")
        b = run_iterations(tiny_graph, "T4", 30, "run-b")
        assert [t.mean_us for t in a.timings] != [t.mean_us for t in b.timings]

    def test_requires_two_iterations(self, tiny_graph):
        with pytest.raises(ProfilingError):
            run_iterations(tiny_graph, "V100", 1)

    def test_compute_us_decomposes_by_device(self, tiny_graph):
        profile = run_iterations(tiny_graph, "V100", 30)
        assert profile.compute_us == pytest.approx(
            profile.gpu_compute_us + profile.cpu_compute_us
        )
        assert profile.gpu_compute_us > 0 and profile.cpu_compute_us > 0

    def test_gpu_ranking_on_whole_model(self):
        """On a real (large-kernel) model the ranking is the paper's:
        P3 < G4 < G3 < P2. (Tiny toy graphs are launch-bound and need not
        rank this way — that is the utilization effect behind Fig. 9.)"""
        from repro.models import build_model

        graph = build_model("vgg_11", batch_size=8)
        totals = {
            g: run_iterations(graph, g, 30).gpu_compute_us
            for g in ("V100", "K80", "T4", "M60")
        }
        assert totals["V100"] < totals["T4"] < totals["M60"] < totals["K80"]


class TestOpTiming:
    def test_from_samples_statistics(self, tiny_graph):
        import numpy as np

        op = tiny_graph.operations[10]
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        t = op_timing_from_samples(op, "V100", samples)
        assert t.mean_us == pytest.approx(2.5)
        assert t.median_us == pytest.approx(2.5)
        assert t.min_us == 1.0 and t.max_us == 4.0
        assert t.n_samples == 4
        assert t.normalized_std == pytest.approx(t.std_us / 2.5)

    def test_device_recorded(self, tiny_graph):
        profile = run_iterations(tiny_graph, "V100", 10)
        devices = {t.device for t in profile.timings}
        assert devices == {Device.GPU.value, Device.CPU.value}


class TestStackedStatistics:
    """The stacked (ops x iterations) reductions equal the per-op oracle
    bit for bit: same draws, same reductions, same floats."""

    @pytest.mark.parametrize("model_name", model_names())
    def test_zoo_matches_oracle(self, model_name):
        graph = build_model(model_name, batch_size=32)
        for gpu_key in GPU_KEYS:
            for n_iterations in (40, 300):
                profile = run_iterations(graph, gpu_key, n_iterations)
                assert profile.timings == oracle_timings(
                    graph, gpu_key, n_iterations
                )

    @settings(max_examples=12, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        _architectures,
        st.sampled_from(GPU_KEYS),
        st.integers(min_value=2, max_value=64),
        st.sampled_from(["", "evaluation", "run-7"]),
    )
    def test_random_graphs_match_oracle(self, layers, gpu_key, n_iterations,
                                        seed_context):
        graph = _build_random(layers)
        profile = run_iterations(graph, gpu_key, n_iterations, seed_context)
        assert profile.timings == oracle_timings(
            graph, gpu_key, n_iterations, seed_context
        )
        assert compute_us(graph, gpu_key, n_iterations, seed_context) == (
            profile.compute_us
        )


    @pytest.mark.parametrize("model_name", ["alexnet", "resnet_50"])
    def test_cell_stats_array_equal_oracle(self, model_name):
        graph = build_model(model_name, batch_size=16)
        for gpu_key in GPU_KEYS:
            stats = cell_stats(graph, gpu_key, 33, "array-equal")[1]
            expected = np.array([
                [t.mean_us, t.std_us, t.median_us, t.min_us, t.max_us]
                for t in oracle_timings(graph, gpu_key, 33, "array-equal")
            ]).T
            assert np.array_equal(stats, expected)


class TestColumnarCell:
    """What makes a cold cell cheap: no per-op Generator seeding, and one
    op table per graph whatever the number of GPUs."""

    def test_cold_cell_seeds_no_generator(self, monkeypatch):
        graph = _build_random(["conv_bn", "pool", "conv"])
        built = []

        def counting(name, real):
            def make(*args, **kwargs):
                built.append(name)
                return real(*args, **kwargs)
            return make

        for name in ("default_rng", "SeedSequence"):
            monkeypatch.setattr(
                noise.np.random, name, counting(name, getattr(noise.np.random, name))
            )
        run_iterations(graph, "V100", 6, "cold-cell")
        assert built == []
        noise.rng_for("the counter sees a per-op stream")
        assert built == ["default_rng"]

    def test_profiling_four_gpus_builds_one_table(self, monkeypatch):
        built = []

        class CountingTable(graph_module.OpTable):
            def __init__(self, ops):
                built.append(len(ops))
                super().__init__(ops)

        monkeypatch.setattr(graph_module, "OpTable", CountingTable)
        graph = _build_random(["conv", "avg_pool", "conv_bn"])
        dataset = Profiler(n_iterations=4).profile_many([graph], GPU_KEYS)
        assert built == [len(graph)]
        assert len(dataset) == len(graph) * len(GPU_KEYS)


def _host_graph(name="host-only", ops=1):
    """A CPU-only graph: simulable on any GPU key, admitted ones included."""
    graph = OpGraph(name=name, batch_size=4)
    for i in range(ops):
        graph.add(Operation(
            name=f"{name}/fetch{i}", op_type="IteratorGetNext", inputs=(),
            outputs=(TensorShape.of(4, 8, 8, 3),), device=Device.CPU,
        ))
    return graph


class TestCellMemo:
    """Each cell is simulated once per process; anything that changes
    what a cell would draw re-simulates it."""

    @pytest.fixture
    def cells(self):
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        yield lambda result: registry.counter("sim.cells", result=result).value
        set_default_registry(previous)

    def test_repeat_is_a_hit(self, cells):
        graph = _host_graph("repeat")
        first = run_iterations(graph, "V100", 17, "memo-repeat")
        again = run_iterations(graph, "V100", 17, "memo-repeat")
        assert (cells("miss"), cells("hit")) == (1, 1)
        assert again == first

    def test_same_name_different_ops_resimulates(self, cells):
        one = run_iterations(_host_graph("twin", ops=1), "T4", 11, "memo-twin")
        two = run_iterations(_host_graph("twin", ops=2), "T4", 11, "memo-twin")
        assert cells("miss") == 2 and cells("hit") == 0
        assert len(one.timings) == 1 and len(two.timings) == 2

    def test_add_after_run_resimulates(self, cells):
        graph = _host_graph("grown")
        before = run_iterations(graph, "K80", 13, "memo-grown")
        graph.add(Operation(
            name="grown/extra", op_type="Shape", inputs=(),
            outputs=(TensorShape.of(4),), device=Device.CPU,
        ))
        after = run_iterations(graph, "K80", 13, "memo-grown")
        assert cells("miss") == 2 and cells("hit") == 0
        assert after.timings[:1] == before.timings
        assert len(after.timings) == 2

    def test_seed_or_iterations_resimulate(self, cells):
        graph = _host_graph("knobs")
        base = run_iterations(graph, "M60", 9, "memo-a")
        other_seed = run_iterations(graph, "M60", 9, "memo-b")
        other_n = run_iterations(graph, "M60", 10, "memo-a")
        assert cells("miss") == 3 and cells("hit") == 0
        assert other_seed.timings != base.timings
        assert other_n.timings[0].n_samples == 10

    def test_replaced_admitted_gpu_resimulates(self, cells):
        spec = GpuSpec(
            key="MEMOGPU", family="GMEMO", marketing_name="Memo Test GPU",
            cuda_cores=4096, tensor_cores=0, memory_gb=16,
            peak_gflops=9000.0, memory_bandwidth_gbps=450.0,
            launch_overhead_us=4.0, saturation_elements=5.0e5,
            comm_base_us=5000.0, comm_us_per_mparam=400.0,
        )
        graph = _host_graph("admitted")
        try:
            register_gpu_spec(spec)
            run_iterations(graph, "MEMOGPU", 8)
            run_iterations(graph, "MEMOGPU", 8)
            register_gpu_spec(dataclasses.replace(spec, peak_gflops=20000.0))
            run_iterations(graph, "MEMOGPU", 8)
        finally:
            unregister_gpu_spec("MEMOGPU")
        assert cells("miss") == 2 and cells("hit") == 1

    def test_hit_equals_cold_process(self):
        graph = build_model("alexnet", batch_size=8)
        run_iterations(graph, "T4", 25, "memo-cold")
        hit = run_iterations(graph, "T4", 25, "memo-cold")
        script = (
            "from repro.models.zoo import build_model\n"
            "from repro.sim.executor import run_iterations\n"
            "print(repr(run_iterations(build_model('alexnet', batch_size=8),"
            " 'T4', 25, 'memo-cold')))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        cold = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        ).stdout.strip()
        assert repr(hit) == cold
