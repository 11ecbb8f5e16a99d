"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main
from repro.core.persistence import save_estimator
from repro.graph.serialization import graph_to_dict, save_graph


@pytest.fixture(scope="module")
def estimator_path(ceer_small, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ceer.json"
    save_estimator(ceer_small, path)
    return str(path)


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestModels:
    def test_lists_all_twelve(self):
        code, text = _run(["models"])
        assert code == 0
        for name in ("alexnet", "vgg_19", "inception_v3", "resnet_200"):
            assert name in text


class TestPredict:
    def test_zoo_model(self, estimator_path):
        code, text = _run(
            ["predict", "--estimator", estimator_path, "--model", "inception_v3",
             "--gpu", "T4", "--gpus", "2"]
        )
        assert code == 0
        assert "training cost" in text and "training time" in text
        assert "2x T4" in text

    def test_family_alias(self, estimator_path):
        code, text = _run(
            ["predict", "--estimator", estimator_path, "--model", "alexnet",
             "--gpu", "P3"]
        )
        assert code == 0
        assert "V100" in text

    def test_serialized_graph_input(self, estimator_path, tiny_graph, tmp_path):
        graph_path = tmp_path / "g.json"
        save_graph(tiny_graph, graph_path)
        code, text = _run(
            ["predict", "--estimator", estimator_path, "--graph", str(graph_path),
             "--gpu", "V100", "--batch", "4", "--samples", "6400"]
        )
        assert code == 0
        assert "tiny" in text

    def test_missing_model_errors(self, estimator_path):
        code, _ = _run(["predict", "--estimator", estimator_path, "--gpu", "T4"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["predict", "--model", "alexnet", "--gpu", "V100"],
        ["recommend", "--model", "alexnet"],
        ["tradeoff", "--model", "alexnet"],
    ])
    def test_missing_estimator_file_is_a_named_error(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.json")
        code, _ = _run([argv[0], "--estimator", missing, *argv[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert missing in err and "Traceback" not in err


class TestRecommend:
    def test_min_cost(self, estimator_path):
        code, text = _run(
            ["recommend", "--estimator", estimator_path, "--model",
             "inception_v3", "--objective", "min-cost"]
        )
        assert code == 0
        assert "Recommended instance" in text
        assert "g4dn" in text  # Fig 11's winner

    def test_market_prices_flip(self, estimator_path):
        code, text = _run(
            ["recommend", "--estimator", estimator_path, "--model",
             "inception_v3", "--objective", "min-cost", "--market-prices"]
        )
        assert code == 0
        assert "K80" in text  # Fig 12's winner

    def test_hourly_budget_requires_budget(self, estimator_path):
        code, _ = _run(
            ["recommend", "--estimator", estimator_path, "--model", "alexnet",
             "--objective", "hourly-budget"]
        )
        assert code == 2

    def test_hourly_budget(self, estimator_path):
        code, text = _run(
            ["recommend", "--estimator", estimator_path, "--model", "alexnet",
             "--objective", "hourly-budget", "--budget", "3.0",
             "--slack", "0.42"]
        )
        assert code == 0
        assert "Recommended instance" in text


class TestFigures:
    def test_unknown_figure_errors(self):
        code, _ = _run(["figures", "fig99"])
        assert code == 2

    def test_single_figure_runs(self):
        code, text = _run(["figures", "fig5", "--iterations", "60"])
        assert code == 0
        assert "normalized std" in text


class TestTradeoff:
    def test_frontier_rendered(self, estimator_path):
        code, text = _run(
            ["tradeoff", "--estimator", estimator_path, "--model",
             "inception_v3"]
        )
        assert code == 0
        assert "efficient" in text and "knee of the frontier" in text

    def test_market_prices_supported(self, estimator_path):
        code, text = _run(
            ["tradeoff", "--estimator", estimator_path, "--model",
             "inception_v3", "--market-prices"]
        )
        assert code == 0
        assert "market:" in text

    def test_full_catalog_frontier(self, estimator_path):
        code, text = _run(
            ["tradeoff", "--estimator", estimator_path, "--model",
             "inception_v3", "--full-catalog"]
        )
        assert code == 0
        assert "efficient of 36 candidates" in text
        assert "p3.16xlarge" in text  # the extended 8-GPU host is swept

    def test_full_catalog_with_batches(self, estimator_path):
        code, text = _run(
            ["tradeoff", "--estimator", estimator_path, "--model",
             "inception_v3", "--full-catalog", "--batches", "32,64"]
        )
        assert code == 0
        assert "efficient of 72 candidates" in text

    def test_full_catalog_spot_prices(self, estimator_path):
        code, text = _run(
            ["tradeoff", "--estimator", estimator_path, "--model",
             "inception_v3", "--full-catalog", "--spot"]
        )
        assert code == 0
        assert "spot:" in text and "aws-spot" in text

    def test_batches_requires_full_catalog(self, estimator_path):
        code, _ = _run(
            ["tradeoff", "--estimator", estimator_path, "--model",
             "inception_v3", "--batches", "32,64"]
        )
        assert code == 2

    def test_bad_batches_rejected(self, estimator_path):
        code, _ = _run(
            ["tradeoff", "--estimator", estimator_path, "--model",
             "inception_v3", "--full-catalog", "--batches", "32,abc"]
        )
        assert code == 2


class TestSpotFlag:
    def test_predict_spot_prices(self, estimator_path):
        code, text = _run(
            ["predict", "--estimator", estimator_path, "--model", "alexnet",
             "--gpu", "T4", "--spot"]
        )
        assert code == 0
        assert "spot:" in text

    def test_spot_conflicts_with_market(self, estimator_path):
        code, _ = _run(
            ["predict", "--estimator", estimator_path, "--model", "alexnet",
             "--gpu", "T4", "--spot", "--market-prices"]
        )
        assert code == 2

    def test_recommend_spot_cheaper_than_on_demand(self, estimator_path):
        code, on_demand = _run(
            ["recommend", "--estimator", estimator_path, "--model", "alexnet",
             "--objective", "min-cost"]
        )
        assert code == 0
        code, spot = _run(
            ["recommend", "--estimator", estimator_path, "--model", "alexnet",
             "--objective", "min-cost", "--spot"]
        )
        assert code == 0
        assert "spot:" in spot


class TestCatalogCommand:
    def test_lists_paper_and_extended_hosts(self):
        code, text = _run(["catalog", "list"])
        assert code == 0
        for name in ("p3.2xlarge", "p3.16xlarge", "g4dn.metal", "p2.16xlarge"):
            assert name in text
        assert "paper" in text
        assert "36 (GPU model, count) configurations" in text

    def test_gpu_filter(self):
        code, text = _run(["catalog", "list", "--gpu", "K80"])
        assert code == 0
        assert "p2.xlarge" in text and "p2.16xlarge" in text
        assert "p3.2xlarge" not in text

    def test_gpu_filter_family_alias(self):
        code, text = _run(["catalog", "list", "--gpu", "P2"])
        assert code == 0
        assert "p2.16xlarge" in text

    def test_unknown_gpu_errors(self):
        code, _ = _run(["catalog", "list", "--gpu", "H100"])
        assert code == 2


class TestFiguresOutput:
    def test_report_file_written(self, tmp_path):
        report = tmp_path / "report.txt"
        code, text = _run(
            ["figures", "fig4", "--iterations", "60", "--output", str(report)]
        )
        assert code == 0
        assert report.exists()
        assert "Relu" in report.read_text()


class TestWorkspaceFlag:
    def test_fit_uses_named_workspace(self, tmp_path):
        ws = tmp_path / "ws"
        out = tmp_path / "ceer.json"
        code, text = _run(
            ["fit", "--iterations", "30", "--output", str(out),
             "--workspace", str(ws), "--no-warm-test-profiles"]
        )
        assert code == 0
        assert str(ws) in text
        assert out.exists()
        assert (ws / "profile").exists()
        assert (ws / "fitted").exists()

    def test_figures_counters_out(self, tmp_path):
        counters_path = tmp_path / "counters.json"
        code, text = _run(
            ["figures", "fig5", "--iterations", "30",
             "--workspace", str(tmp_path / "ws"),
             "--counters-out", str(counters_path)]
        )
        assert code == 0
        import json

        counters = json.loads(counters_path.read_text())
        assert counters["profile"]["misses"] >= 1
        assert counters["figure"]["misses"] == 1

    def test_repeat_figures_invocation_hits_cache(self, tmp_path):
        ws = tmp_path / "ws"
        argv = ["figures", "fig5", "--iterations", "30", "--workspace", str(ws)]
        code, first = _run(argv)
        assert code == 0
        counters_path = tmp_path / "counters.json"
        code, second = _run(argv + ["--counters-out", str(counters_path)])
        assert code == 0
        import json

        counters = json.loads(counters_path.read_text())
        # The second run reuses the rendered figure outright, so profiles
        # are never even requested — no profile counter appears at all.
        assert counters.get("profile", {}).get("misses", 0) == 0
        assert counters["figure"]["misses"] == 0
        assert counters["figure"]["hits_disk"] == 1


class TestCacheCommand:
    def test_empty_list(self, tmp_path):
        code, text = _run(["cache", "list", "--workspace", str(tmp_path / "ws")])
        assert code == 0
        assert "empty" in text

    def test_list_info_clear_round_trip(self, tmp_path):
        ws = str(tmp_path / "ws")
        code, _ = _run(["figures", "fig5", "--iterations", "30",
                        "--workspace", ws])
        assert code == 0
        code, listing = _run(["cache", "list", "--workspace", ws])
        assert code == 0
        assert "figure" in listing and "profile" in listing

        from repro.artifacts.workspace import Workspace

        [info] = Workspace(ws).store.entries("figure")
        code, detail = _run(["cache", "info", info.key, "--workspace", ws])
        assert code == 0
        assert info.key in detail
        assert "fig5" in detail

        code, text = _run(["cache", "clear", "--kind", "figure",
                           "--workspace", ws])
        assert code == 0
        assert "removed 1" in text
        code, listing = _run(["cache", "list", "--workspace", ws])
        assert "figure " not in listing

    def test_info_unknown_key_errors(self, tmp_path):
        code, _ = _run(["cache", "info", "deadbeef",
                        "--workspace", str(tmp_path / "ws")])
        assert code == 2

    def test_info_without_key_summarizes_workspace(self, tmp_path):
        ws = str(tmp_path / "ws")
        code, _ = _run(["figures", "fig5", "--iterations", "30",
                        "--workspace", ws])
        assert code == 0
        code, summary = _run(["cache", "info", "--workspace", ws])
        assert code == 0
        assert "figure" in summary and "profile" in summary
        assert "artifact(s)" in summary

    def test_info_on_nonexistent_workspace_is_empty_not_error(self, tmp_path):
        missing = tmp_path / "never-created"
        code, text = _run(["cache", "info", "--workspace", str(missing)])
        assert code == 0
        assert "total: 0 artifact(s), 0 bytes" in text
        # A read-only inspection command must not create the directory.
        assert not missing.exists()

    def test_clear_on_nonexistent_workspace_is_empty_not_error(self, tmp_path):
        missing = tmp_path / "never-created"
        code, text = _run(["cache", "clear", "--workspace", str(missing)])
        assert code == 0
        assert "removed 0" in text
        assert not missing.exists()

    def test_key_is_stable_and_iteration_sensitive(self, tmp_path):
        ws = str(tmp_path / "ws")
        code, a = _run(["cache", "key", "--workspace", ws])
        assert code == 0
        code, b = _run(["cache", "key", "--workspace", ws])
        assert a == b
        assert len(a.strip()) == 20
        code, c = _run(["cache", "key", "--iterations", "60",
                        "--workspace", ws])
        assert c != a


class TestObservabilityFlags:
    def _x_names(self, trace_path):
        import json

        doc = json.loads(trace_path.read_text())
        return [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]

    def test_trace_out_after_subcommand(self, tmp_path):
        trace = tmp_path / "trace.json"
        code, text = _run(["models", "--trace-out", str(trace)])
        assert code == 0
        assert "trace written" in text
        assert "cli.models" in self._x_names(trace)

    def test_trace_out_before_subcommand(self, tmp_path):
        trace = tmp_path / "trace.json"
        code, _ = _run(["--trace-out", str(trace), "models"])
        assert code == 0
        assert "cli.models" in self._x_names(trace)

    def test_trace_env_var(self, tmp_path, monkeypatch):
        trace = tmp_path / "trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        code, _ = _run(["models"])
        assert code == 0
        assert trace.exists()

    def test_tracing_disabled_leaves_no_tracer(self, tmp_path):
        from repro.obs.spans import tracing_enabled

        code, _ = _run(["models"])
        assert code == 0
        assert not tracing_enabled()

    def test_figures_trace_records_pipeline_spans(self, tmp_path):
        trace = tmp_path / "trace.json"
        code, _ = _run(["figures", "fig5", "--iterations", "30",
                        "--workspace", str(tmp_path / "ws"),
                        "--trace-out", str(trace)])
        assert code == 0
        names = self._x_names(trace)
        assert "cli.figures" in names
        # A cold figures run profiles and fits, so pipeline spans nest
        # under the CLI root span.
        assert "profile.run" in names
        assert "store.compute" in names

    def test_metrics_out_includes_store_counters(self, tmp_path):
        import json

        metrics = tmp_path / "metrics.json"
        counters = tmp_path / "counters.json"
        code, text = _run(["figures", "fig5", "--iterations", "30",
                           "--workspace", str(tmp_path / "ws"),
                           "--metrics-out", str(metrics),
                           "--counters-out", str(counters)])
        assert code == 0
        assert "metrics written" in text
        doc = json.loads(metrics.read_text())
        assert doc["format"] == "repro-metrics"
        by_series = {
            (r["name"], r["labels"].get("kind")): r["value"]
            for r in doc["metrics"]
        }
        # The store's counters surface in the metrics export with the
        # exact same numbers as the legacy --counters-out JSON.
        legacy = json.loads(counters.read_text())
        for kind, fields in legacy.items():
            for field in ("misses", "hits_disk", "bytes_written"):
                assert by_series[(f"store.{field}", kind)] == fields[field]


class TestCatalogAdmit:
    """``catalog admit`` + transfer-backend predictions on spec-only GPUs."""

    SPEC = {
        "key": "A10G", "family": "G5", "marketing_name": "NVIDIA A10G",
        "cuda_cores": 9216, "tensor_cores": 288, "memory_gb": 24,
        "peak_gflops": 31200.0, "memory_bandwidth_gbps": 600.0,
        "launch_overhead_us": 4.0, "saturation_elements": 1.0e6,
        "comm_base_us": 4000.0, "comm_us_per_mparam": 300.0,
    }

    @pytest.fixture(scope="class")
    def transfer_estimator_path(self, train_profiles_small, tmp_path_factory):
        from repro.core.fit import fit_ceer

        fitted = fit_ceer(
            n_iterations=80, gpu_counts=(1, 2),
            train_profiles=train_profiles_small, backend="transfer",
        )
        path = tmp_path_factory.mktemp("cli-transfer") / "ceer.json"
        save_estimator(fitted.estimator, path)
        return str(path)

    @pytest.fixture
    def spec_file(self, tmp_path):
        import json

        path = tmp_path / "a10g.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    @pytest.fixture
    def clean_admitted(self):
        from repro.cloud.catalog import clear_admitted

        yield
        clear_admitted("A10G")

    def test_admit_then_predict_with_uncertainty(
        self, transfer_estimator_path, spec_file, tmp_path, clean_admitted
    ):
        ws = str(tmp_path / "ws")
        code, text = _run(
            ["catalog", "admit", "--spec", spec_file,
             "--usd-per-hr", "1.006", "--max-gpus", "4", "--workspace", ws]
        )
        assert code == 0
        assert "admitted A10G" in text and "admitted_gpus.json" in text
        code, text = _run(
            ["predict", "--estimator", transfer_estimator_path,
             "--model", "resnet_50", "--gpu", "A10G", "--gpus", "2",
             "--workspace", ws]
        )
        assert code == 0
        assert "2x A10G" in text
        # Spec-only predictions must surface their uncertainty bands.
        assert "(±" in text

    def test_admitted_gpu_listed_in_catalog(
        self, spec_file, tmp_path, clean_admitted
    ):
        ws = str(tmp_path / "ws")
        code, _ = _run(
            ["catalog", "admit", "--spec", spec_file,
             "--usd-per-hr", "1.006", "--workspace", ws]
        )
        assert code == 0
        code, text = _run(["catalog", "list", "--gpu", "A10G",
                           "--workspace", ws])
        assert code == 0
        assert "a10g.admitted" in text and "admitted" in text
        # No market snapshot exists for an admitted GPU: spot shows "-".
        assert "-" in text

    def test_per_gpu_estimator_rejects_admitted_gpu(
        self, estimator_path, spec_file, tmp_path, clean_admitted
    ):
        ws = str(tmp_path / "ws")
        code, _ = _run(
            ["catalog", "admit", "--spec", spec_file,
             "--usd-per-hr", "1.006", "--workspace", ws]
        )
        assert code == 0
        code, _ = _run(
            ["predict", "--estimator", estimator_path, "--model", "resnet_50",
             "--gpu", "A10G", "--workspace", ws]
        )
        assert code == 2

    def test_tradeoff_full_catalog_sweeps_admitted(
        self, transfer_estimator_path, spec_file, tmp_path, clean_admitted
    ):
        ws = str(tmp_path / "ws")
        code, _ = _run(
            ["catalog", "admit", "--spec", spec_file,
             "--usd-per-hr", "1.006", "--max-gpus", "4", "--workspace", ws]
        )
        assert code == 0
        code, text = _run(
            ["tradeoff", "--estimator", transfer_estimator_path,
             "--model", "resnet_50", "--full-catalog", "--workspace", ws]
        )
        assert code == 0
        assert "a10g.admitted" in text

    def test_missing_spec_field_errors(self, tmp_path):
        import json

        bad = dict(self.SPEC)
        del bad["peak_gflops"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _ = _run(
            ["catalog", "admit", "--spec", str(path), "--usd-per-hr", "1.0",
             "--workspace", str(tmp_path / "ws")]
        )
        assert code == 2

    def test_unknown_spec_field_errors(self, tmp_path):
        import json

        bad = dict(self.SPEC)
        bad["boost_clock_mhz"] = 1710
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _ = _run(
            ["catalog", "admit", "--spec", str(path), "--usd-per-hr", "1.0",
             "--workspace", str(tmp_path / "ws")]
        )
        assert code == 2

    def test_unreadable_spec_file_errors(self, tmp_path):
        code, _ = _run(
            ["catalog", "admit", "--spec", str(tmp_path / "missing.json"),
             "--usd-per-hr", "1.0", "--workspace", str(tmp_path / "ws")]
        )
        assert code == 2

    def test_duplicate_admit_errors_without_replace(
        self, spec_file, tmp_path, clean_admitted, capsys
    ):
        ws = str(tmp_path / "ws")
        code, _ = _run(
            ["catalog", "admit", "--spec", spec_file,
             "--usd-per-hr", "1.0", "--workspace", ws]
        )
        assert code == 0
        code, _ = _run(
            ["catalog", "admit", "--spec", spec_file,
             "--usd-per-hr", "2.0", "--workspace", ws]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "already admitted" in err and "--replace" in err

    def test_duplicate_admit_succeeds_with_replace(
        self, spec_file, tmp_path, clean_admitted
    ):
        from repro.cloud.catalog import instance_by_name

        ws = str(tmp_path / "ws")
        code, _ = _run(
            ["catalog", "admit", "--spec", spec_file,
             "--usd-per-hr", "1.0", "--workspace", ws]
        )
        assert code == 0
        code, text = _run(
            ["catalog", "admit", "--spec", spec_file,
             "--usd-per-hr", "2.0", "--replace", "--workspace", ws]
        )
        assert code == 0
        assert "admitted A10G" in text
        assert instance_by_name("a10g.admitted").usd_per_hr == 2.0


class TestFitBackendFlag:
    def test_transfer_backend_fit_writes_v2_estimator(self, tmp_path):
        import json

        out = tmp_path / "ceer.json"
        code, text = _run(
            ["fit", "--iterations", "30", "--backend", "transfer",
             "--output", str(out), "--workspace", str(tmp_path / "ws"),
             "--no-warm-test-profiles"]
        )
        assert code == 0
        assert out.exists()
        doc = json.loads(out.read_text())
        assert doc["version"] == 2
        assert doc["backend"] == "transfer"

    def test_unknown_backend_rejected(self, tmp_path):
        # argparse rejects the choice before the command body runs
        with pytest.raises(SystemExit):
            _run(
                ["fit", "--iterations", "30", "--backend", "nope",
                 "--output", str(tmp_path / "x.json"),
                 "--workspace", str(tmp_path / "ws")]
            )


class TestSpotScenario:
    """``recommend --scenario spot``: trace-driven preemption-aware ranking."""

    def test_spot_recommendation_renders(self, estimator_path):
        code, text = _run(
            ["recommend", "--estimator", estimator_path, "--model",
             "alexnet", "--scenario", "spot", "--seed", "7",
             "--risk-aversion", "0.5"]
        )
        assert code == 0
        assert "spot scenario (seed 7" in text
        assert "expected makespan" in text and "expected cost" in text
        assert "spot:" in text

    def test_ticks_advance_the_market(self, estimator_path):
        code1, text1 = _run(
            ["recommend", "--estimator", estimator_path, "--model",
             "alexnet", "--scenario", "spot", "--seed", "7"]
        )
        code2, text2 = _run(
            ["recommend", "--estimator", estimator_path, "--model",
             "alexnet", "--scenario", "spot", "--seed", "7",
             "--ticks", "3"]
        )
        assert code1 == code2 == 0
        assert "tick 0" in text1 and "tick 2" in text2
        assert text1 != text2

    def test_deterministic_for_a_seed(self, estimator_path):
        args = ["recommend", "--estimator", estimator_path, "--model",
                "alexnet", "--scenario", "spot", "--seed", "11",
                "--ticks", "2"]
        assert _run(args) == _run(args)

    @pytest.mark.parametrize("extra", [
        ["--spot"],
        ["--market-prices"],
        ["--objective", "min-time"],
        ["--budget", "3"],
        ["--slack", "0.1"],
    ])
    def test_conflicting_flags_rejected(self, estimator_path, extra,
                                        capsys):
        code, _ = _run(
            ["recommend", "--estimator", estimator_path, "--model",
             "alexnet", "--scenario", "spot"] + extra
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "conflict" in err and "spot-risk" in err

    @pytest.mark.parametrize("extra", [
        ["--seed", "7"],
        ["--ticks", "2"],
        ["--risk-aversion", "0.5"],
    ])
    def test_spot_flags_require_spot_scenario(self, estimator_path, extra,
                                              capsys):
        code, _ = _run(
            ["recommend", "--estimator", estimator_path, "--model",
             "alexnet"] + extra
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"{extra[0]} requires scenario 'spot'" in err

    @pytest.mark.parametrize("flag, extra", [
        ("--risk-aversion", ["--scenario", "spot", "--risk-aversion", "nan"]),
        ("--budget", ["--objective", "total-budget", "--budget", "nan"]),
        ("--budget", ["--objective", "total-budget", "--budget", "inf"]),
        ("--slack", ["--objective", "hourly-budget", "--budget", "3",
                     "--slack", "inf"]),
    ])
    def test_non_finite_number_exits_2_naming_flag(self, flag, extra, capsys):
        """Regression: a NaN risk aversion or budget used to fail later
        with a misleading "no candidate" error."""
        code, _ = _run(["recommend", "--estimator", "unused.json", "--model",
                        "alexnet"] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{flag} must be a finite number" in err

    def test_negative_risk_aversion_rejected(self, estimator_path, capsys):
        code, _ = _run(
            ["recommend", "--estimator", estimator_path, "--model",
             "alexnet", "--scenario", "spot", "--risk-aversion", "-1"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "risk-aversion" in err

    def test_negative_seed_exits_2_naming_it(self, estimator_path, capsys):
        """Regression: a negative trace seed ended in a numpy traceback."""
        code, _ = _run(
            ["recommend", "--estimator", estimator_path, "--model",
             "alexnet", "--scenario", "spot", "--seed", "-1"]
        )
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_serve_negative_spot_seed_exits_2_naming_it(
        self, estimator_path, tmp_path, capsys
    ):
        """Regression: ``serve --spot-seed -1`` ended in a numpy traceback;
        it now fails before the estimator loads."""
        code, _ = _run(
            ["serve", "--estimator", estimator_path, "--spot-seed", "-1",
             "--workspace", str(tmp_path / "ws")]
        )
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err


class TestAdmitSpotRatio:
    """``catalog admit --spot-ratio`` persists and surfaces in predictions."""

    @pytest.fixture
    def spec_file(self, tmp_path):
        import json

        spec = dict(TestCatalogAdmit.SPEC)
        path = tmp_path / "a10g.json"
        path.write_text(json.dumps(spec))
        return str(path)

    @pytest.fixture
    def clean_admitted(self):
        from repro.cloud.catalog import clear_admitted

        yield
        clear_admitted("A10G")

    def test_ratio_recorded_and_reloaded(
        self, spec_file, tmp_path, clean_admitted
    ):
        import json

        from repro.cloud.catalog import admitted_spot_ratios, clear_admitted

        ws = str(tmp_path / "ws")
        code, text = _run(
            ["catalog", "admit", "--spec", spec_file, "--usd-per-hr",
             "1.006", "--spot-ratio", "0.35", "--workspace", ws]
        )
        assert code == 0
        assert "spot at 0.35x On-Demand" in text
        doc = json.loads(
            (tmp_path / "ws" / "admitted_gpus.json").read_text()
        )
        assert doc["gpus"][0]["spot_ratio"] == 0.35
        clear_admitted("A10G")
        # A fresh command pointed at the workspace re-admits with ratio.
        code, _ = _run(["catalog", "list", "--workspace", ws])
        assert code == 0
        assert admitted_spot_ratios()["A10G"] == 0.35

    def test_bad_ratio_rejected(self, spec_file, tmp_path, clean_admitted,
                                capsys):
        code, _ = _run(
            ["catalog", "admit", "--spec", spec_file, "--usd-per-hr",
             "1.006", "--spot-ratio", "1.5",
             "--workspace", str(tmp_path / "ws")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "spot_ratio" in err


class TestGraphFile:
    @pytest.mark.parametrize("command", ["predict", "recommend", "tradeoff"])
    @pytest.mark.parametrize("case", ["missing-file", "no-op-inputs", "tpu-device"])
    def test_bad_graph_file_is_a_named_error(
        self, estimator_path, tiny_graph, tmp_path, capsys, command, case
    ):
        graph_path = tmp_path / "g.json"
        doc = graph_to_dict(tiny_graph)
        if case == "no-op-inputs":
            del doc["ops"][1]["inputs"]
        elif case == "tpu-device":
            doc["ops"][1]["device"] = "TPU"
        if case != "missing-file":
            graph_path.write_text(json.dumps(doc))
        argv = [command, "--estimator", estimator_path, "--graph", str(graph_path),
                "--batch", "4"]
        if command == "predict":
            argv += ["--gpu", "V100"]
        code, _ = _run(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert str(graph_path) in err and "Traceback" not in err
        if case != "missing-file":
            field = "inputs" if case == "no-op-inputs" else "device"
            assert f"'ops[1].{field}'" in err
