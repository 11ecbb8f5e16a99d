"""One request model, two front ends: the CLI and HTTP agree row by row.

Every row of the table goes through both front ends. A valid row must
give the same request fingerprint from ``build_request`` (argparse) and
``parse_*`` (JSON). An invalid row must give HTTP 400 and CLI exit 2
with the same message, the offending fields written as ``'field'`` on
HTTP and as the flag that set them on the CLI.
"""

from __future__ import annotations

import math
import subprocess
import sys
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro import cli
from repro.core.persistence import save_estimator
from repro.obs.metrics import MetricsRegistry
from repro.serve.app import ServeApp, ServeState
from repro.serve.protocol import parse_pareto, parse_predict, parse_recommend
from tests.serve.conftest import request

SPOT_CONFLICT = (
    "conflict with scenario 'spot' — spot recommendations price against "
    "the live trace under the 'spot-risk' objective"
)

#: (HTTP path, JSON parser, default body, default argv). A row's own
#: body fields and flags come after the defaults and override them
#: (argparse keeps the last value of a repeated flag).
ENDPOINTS = {
    "predict": ("/predict", parse_predict, {"model": "alexnet", "gpu": "V100"},
                ["predict", "--estimator", "unused.json", "--model",
                 "alexnet", "--gpu", "V100"]),
    "recommend": ("/recommend", parse_recommend, {"model": "alexnet"},
                  ["recommend", "--estimator", "unused.json", "--model",
                   "alexnet"]),
    "pareto": ("/pareto", parse_pareto, {"model": "alexnet"},
               ["tradeoff", "--estimator", "unused.json", "--model",
                "alexnet", "--full-catalog"]),
}


class Row(NamedTuple):
    endpoint: str
    body: Dict[str, Any]
    argv: List[str]
    #: For an invalid row: the offending fields and the message after them.
    fields: Tuple[str, ...] = ()
    detail: Optional[str] = None
    #: The CLI flag of each field, where it is not ``--field-name``.
    flags: Optional[Tuple[str, ...]] = None


VALID = {
    "predict-defaults": Row("predict", {"gpu": "V100"}, []),
    "predict-explicit": Row(
        "predict", {"gpu": "T4", "gpus": 2, "batch": 64, "samples": 6400,
                    "epochs": 3, "pricing": "spot"},
        ["--gpu", "T4", "--gpus", "2", "--batch", "64", "--samples", "6400",
         "--epochs", "3", "--spot"]),
    "predict-market": Row("predict", {"gpu": "V100", "pricing": "market"},
                          ["--market-prices"]),
    "recommend-defaults": Row("recommend", {}, []),
    "recommend-explicit-defaults": Row(
        "recommend", {"objective": "min-cost", "pricing": "on-demand",
                      "scenario": "static", "batch": 32},
        ["--objective", "min-cost", "--scenario", "static", "--batch", "32"]),
    "recommend-min-time-market": Row(
        "recommend", {"objective": "min-time", "pricing": "market"},
        ["--objective", "min-time", "--market-prices"]),
    "recommend-hourly-budget": Row(
        "recommend", {"objective": "hourly-budget", "budget": 3, "slack": 0.42},
        ["--objective", "hourly-budget", "--budget", "3", "--slack", "0.42"]),
    "recommend-hourly-budget-zero-slack": Row(
        "recommend", {"objective": "hourly-budget", "budget": 3.0, "slack": 0},
        ["--objective", "hourly-budget", "--budget", "3", "--slack", "0"]),
    "recommend-total-budget": Row(
        "recommend", {"objective": "total-budget", "budget": 10.0},
        ["--objective", "total-budget", "--budget", "10"]),
    "recommend-spot": Row("recommend", {"scenario": "spot"},
                          ["--scenario", "spot"]),
    "recommend-spot-risk": Row(
        "recommend", {"scenario": "spot", "risk_aversion": 0.5},
        ["--scenario", "spot", "--risk-aversion", "0.5"]),
    "pareto-defaults": Row("pareto", {}, []),
    "pareto-batches": Row("pareto", {"batches": [16, 32], "pricing": "spot"},
                          ["--batches", "16,32", "--spot"]),
}

INVALID = {
    # non-empty model and gpu
    "empty-model": Row("recommend", {"model": ""}, ["--model", ""],
                       ("model",), "must be a non-empty string, got ''"),
    "empty-gpu": Row("predict", {"gpu": ""}, ["--gpu", ""],
                     ("gpu",), "must be a non-empty string, got ''"),
    # integers >= 1
    "zero-gpus": Row("predict", {"gpus": 0}, ["--gpus", "0"],
                     ("gpus",), "must be an integer >= 1, got 0"),
    "zero-batch-predict": Row("predict", {"batch": 0}, ["--batch", "0"],
                              ("batch",), "must be an integer >= 1, got 0"),
    "zero-batch-recommend": Row("recommend", {"batch": 0}, ["--batch", "0"],
                                ("batch",), "must be an integer >= 1, got 0"),
    "zero-samples": Row("recommend", {"samples": 0}, ["--samples", "0"],
                        ("samples",), "must be an integer >= 1, got 0"),
    "negative-epochs": Row("pareto", {"epochs": -1}, ["--epochs", "-1"],
                           ("epochs",), "must be an integer >= 1, got -1"),
    "zero-in-batches": Row(
        "pareto", {"batches": [16, 0]}, ["--batches", "16,0"], ("batches",),
        "must be a non-empty list of integers >= 1, got [16, 0]"),
    "duplicate-batches": Row(
        "pareto", {"batches": [32, 32]}, ["--batches", "32,32"], ("batches",),
        "must not contain duplicates, got [32, 32]"),
    # finite floats
    "nan-budget": Row(
        "recommend", {"objective": "total-budget", "budget": math.nan},
        ["--objective", "total-budget", "--budget", "nan"],
        ("budget",), "must be a finite number, got nan"),
    "inf-slack": Row(
        "recommend",
        {"objective": "hourly-budget", "budget": 3.0, "slack": math.inf},
        ["--objective", "hourly-budget", "--budget", "3", "--slack", "inf"],
        ("slack",), "must be a finite number, got inf"),
    "nan-risk-aversion": Row(
        "recommend", {"scenario": "spot", "risk_aversion": math.nan},
        ["--scenario", "spot", "--risk-aversion", "nan"],
        ("risk_aversion",), "must be a finite number, got nan"),
    # ranges
    "negative-risk-aversion": Row(
        "recommend", {"scenario": "spot", "risk_aversion": -0.5},
        ["--scenario", "spot", "--risk-aversion", "-0.5"],
        ("risk_aversion",), "must be >= 0, got -0.5"),
    "negative-budget": Row(
        "recommend", {"objective": "total-budget", "budget": -1},
        ["--objective", "total-budget", "--budget", "-1"],
        ("budget",), "must be > 0, got -1.0"),
    "zero-budget": Row(
        "recommend", {"objective": "hourly-budget", "budget": 0},
        ["--objective", "hourly-budget", "--budget", "0"],
        ("budget",), "must be > 0, got 0.0"),
    "negative-slack": Row(
        "recommend",
        {"objective": "hourly-budget", "budget": 3, "slack": -0.1},
        ["--objective", "hourly-budget", "--budget", "3", "--slack", "-0.1"],
        ("slack",), "must be >= 0, got -0.1"),
    # budget objectives
    "hourly-budget-needs-budget": Row(
        "recommend", {"objective": "hourly-budget"},
        ["--objective", "hourly-budget"],
        ("budget",), "is required with objective 'hourly-budget'"),
    "total-budget-needs-budget": Row(
        "recommend", {"objective": "total-budget"},
        ["--objective", "total-budget"],
        ("budget",), "is required with objective 'total-budget'"),
    "budget-with-min-cost": Row(
        "recommend", {"budget": 3}, ["--budget", "3"], ("budget",),
        "applies only to objectives ['hourly-budget', 'total-budget'], "
        "not 'min-cost'"),
    "budget-with-min-time": Row(
        "recommend", {"objective": "min-time", "budget": 3},
        ["--objective", "min-time", "--budget", "3"], ("budget",),
        "applies only to objectives ['hourly-budget', 'total-budget'], "
        "not 'min-time'"),
    "slack-with-total-budget": Row(
        "recommend",
        {"objective": "total-budget", "budget": 10, "slack": 0.4},
        ["--objective", "total-budget", "--budget", "10", "--slack", "0.4"],
        ("slack",), "applies only to objective 'hourly-budget', "
                    "not 'total-budget'"),
    "slack-with-default-objective": Row(
        "recommend", {"slack": 0}, ["--slack", "0"], ("slack",),
        "applies only to objective 'hourly-budget', not 'min-cost'"),
    # the spot scenario
    "spot-with-spot-pricing": Row(
        "recommend", {"scenario": "spot", "pricing": "spot"},
        ["--scenario", "spot", "--spot"], ("pricing",), SPOT_CONFLICT,
        flags=("--spot",)),
    "spot-with-market-pricing": Row(
        "recommend", {"scenario": "spot", "pricing": "market"},
        ["--scenario", "spot", "--market-prices"], ("pricing",),
        SPOT_CONFLICT, flags=("--market-prices",)),
    "spot-with-objective": Row(
        "recommend", {"scenario": "spot", "objective": "min-cost"},
        ["--scenario", "spot", "--objective", "min-cost"], ("objective",),
        SPOT_CONFLICT),
    "spot-with-budget": Row(
        "recommend", {"scenario": "spot", "budget": 3.0},
        ["--scenario", "spot", "--budget", "3"], ("budget",), SPOT_CONFLICT),
    "spot-with-zero-slack": Row(
        "recommend", {"scenario": "spot", "slack": 0},
        ["--scenario", "spot", "--slack", "0"], ("slack",), SPOT_CONFLICT),
    "spot-with-two-conflicts": Row(
        "recommend", {"scenario": "spot", "objective": "min-time",
                      "pricing": "spot"},
        ["--scenario", "spot", "--objective", "min-time", "--spot"],
        ("pricing", "objective"), SPOT_CONFLICT,
        flags=("--spot", "--objective")),
    "risk-aversion-needs-spot": Row(
        "recommend", {"risk_aversion": 0.0}, ["--risk-aversion", "0"],
        ("risk_aversion",), "requires scenario 'spot'"),
}

#: Rows argparse rejects before a request exists (a choice outside the
#: shared constants, or a value of the wrong type): both front ends must
#: reject them naming the field, but argparse words its own message.
WIRE = {
    "unknown-objective": Row("recommend", {"objective": "fastest"},
                             ["--objective", "fastest"], ("objective",)),
    "unknown-scenario": Row("recommend", {"scenario": "futures"},
                            ["--scenario", "futures"], ("scenario",)),
    "non-integer-batch": Row("predict", {"batch": "64"}, ["--batch", "64x"],
                             ("batch",)),
    "non-number-budget": Row(
        "recommend", {"objective": "total-budget", "budget": "ten"},
        ["--objective", "total-budget", "--budget", "ten"], ("budget",)),
}


def _body(row: Row) -> Dict[str, Any]:
    return {**ENDPOINTS[row.endpoint][2], **row.body}


def _argv(row: Row) -> List[str]:
    return ENDPOINTS[row.endpoint][3] + row.argv


@pytest.fixture(scope="module")
def app(ceer_small, tmp_path_factory):
    path = tmp_path_factory.mktemp("parity") / "ceer.json"
    save_estimator(ceer_small, path)
    state = ServeState(str(path), warm=False, registry=MetricsRegistry())
    yield ServeApp(state)
    state.close()


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_row_has_one_fingerprint(name):
    row = VALID[name]
    parse = ENDPOINTS[row.endpoint][1]
    args = cli._build_parser().parse_args(_argv(row))
    assert cli.build_request(args).fingerprint() == parse(_body(row)).fingerprint()


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_row_has_one_message(name, app, capsys):
    row = INVALID[name]
    path = ENDPOINTS[row.endpoint][0]
    status, doc = request(app, "POST", path, _body(row))
    assert status == 400
    assert doc["error"] == f"{', '.join(map(repr, row.fields))} {row.detail}"

    code = cli.main(_argv(row))
    err = capsys.readouterr().err
    flags = row.flags or tuple(
        "--" + field.replace("_", "-") for field in row.fields
    )
    assert code == 2
    assert err == f"error: {', '.join(flags)} {row.detail}\n"


@pytest.mark.parametrize("name", sorted(WIRE))
def test_wire_row_rejected_by_both(name, app, capsys):
    row = WIRE[name]
    (field,) = row.fields
    path = ENDPOINTS[row.endpoint][0]
    status, doc = request(app, "POST", path, _body(row))
    assert status == 400
    assert doc["error"].startswith(repr(field))

    with pytest.raises(SystemExit) as exc:
        cli.main(_argv(row))
    assert exc.value.code == 2
    assert f"argument --{field}" in capsys.readouterr().err


def test_cli_only_rules_exit_2_naming_flags(capsys):
    cases = [
        (["predict", "--estimator", "x", "--model", "alexnet", "--gpu", "T4",
          "--spot", "--market-prices"],
         "--spot, --market-prices exclude each other"),
        (["tradeoff", "--estimator", "x", "--model", "alexnet",
          "--batches", "16,32"], "--batches requires --full-catalog"),
        (["recommend", "--estimator", "x", "--model", "alexnet",
          "--seed", "7"], "--seed requires scenario 'spot'"),
        (["recommend", "--estimator", "x", "--model", "alexnet",
          "--scenario", "spot", "--ticks", "0"], "--ticks must be >= 1, got 0"),
    ]
    for argv, message in cases:
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_import_leaves_serve_unloaded():
    code = (
        "import sys, repro.cli; "
        "loaded = [m for m in sys.modules if m.startswith('repro.serve')]; "
        "print(loaded); sys.exit(1 if loaded else 0)"
    )
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
