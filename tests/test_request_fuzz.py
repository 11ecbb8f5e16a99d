"""Bounded fuzzing of the one request validator through both front ends.

Any JSON value into a ``parse_*`` adapter gives a usable request or a
:class:`~repro.errors.RequestError` (HTTP 400), and any argv into the
CLI's request-building step gives a request or exit 2 — never another
exception. Derandomized, so tier-1 runs the same examples every time.
"""

from __future__ import annotations

import contextlib
import io
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.errors import ReproError, RequestError
from repro.serve.protocol import parse_pareto, parse_predict, parse_recommend

FUZZ = settings(
    max_examples=300, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=6),
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
#: Per field: mostly values of the right JSON type near the rule
#: boundaries, sometimes any JSON value at all.
count = st.integers(-2, 64)
number = st.one_of(count, st.floats(-5, 50), st.sampled_from(
    (0.0, -0.0, 3.0, math.nan, math.inf, -math.inf)))
FIELD_VALUES = {
    "model": st.sampled_from(("alexnet", "alexnet", "alexnet", "")),
    "gpu": st.sampled_from(("V100", "T4", "T4", "")),
    "gpus": count, "batch": count, "samples": count, "epochs": count,
    "batches": st.lists(count, max_size=4),
    "pricing": st.sampled_from(("on-demand", "spot", "market", "free")),
    "objective": st.sampled_from(
        ("min-cost", "min-time", "hourly-budget", "total-budget", "fast")),
    "scenario": st.sampled_from(("static", "spot", "futures")),
    "budget": number, "slack": number, "risk_aversion": number,
}


#: (required, optional) fields of each adapter.
SCHEMAS = {
    parse_predict: (("model", "gpu"),
                    ("gpus", "batch", "samples", "epochs", "pricing")),
    parse_recommend: (("model",),
                      ("objective", "budget", "slack", "batch", "samples",
                       "epochs", "pricing", "scenario", "risk_aversion")),
    parse_pareto: (("model",), ("batches", "samples", "epochs", "pricing")),
}


def json_bodies(parse):
    """Objects over ``parse``'s fields (plus, rarely, anything at all)."""
    required, optional = SCHEMAS[parse]
    wild = {name: json_value for name in required[1:] + optional}
    typed = st.fixed_dictionaries(
        {name: FIELD_VALUES[name] for name in required},
        optional={name: FIELD_VALUES[name] for name in optional},
    )
    wild_body = st.fixed_dictionaries(
        {"model": FIELD_VALUES["model"]}, optional={**wild, "btach": count})
    return st.one_of(json_value, typed, wild_body)


def _use(request) -> None:
    """A request that validated is usable as the library's arguments."""
    assert len(request.fingerprint()) == 20
    assert request.job().batch_size >= 1
    request.pricing_scheme()
    if hasattr(request, "objective_instance"):
        request.objective_instance()


@FUZZ
@given(data=st.data(), parse=st.sampled_from(
    (parse_predict, parse_recommend, parse_pareto)))
def test_json_gives_a_request_or_a_request_error(data, parse):
    body = data.draw(json_bodies(parse))
    try:
        request = parse(body)
    except RequestError as exc:
        assert str(exc)
        return
    _use(request)


ints = st.sampled_from(("0", "1", "-1", "3", "32"))
floats = st.sampled_from(("0", "3", "10", "0.42", "-0.5", "nan", "inf"))
FLAG_VALUES = {
    "--model": st.sampled_from(("alexnet", "alexnet", "")),
    "--gpu": st.sampled_from(("V100", "V100", "")),
    "--gpus": ints, "--batch": ints, "--samples": ints, "--epochs": ints,
    "--seed": ints, "--ticks": ints,
    "--batches": st.sampled_from(("16,32", "32,32", "0,16", "", "x")),
    "--objective": st.sampled_from(
        ("min-cost", "min-time", "hourly-budget", "total-budget")),
    "--scenario": st.sampled_from(("static", "spot", "spot")),
    "--budget": floats, "--slack": floats, "--risk-aversion": floats,
}
#: The request flags of each command (other flags are argparse errors).
COMMAND_FLAGS = {
    "predict": ("--model", "--gpu", "--gpus", "--batch", "--samples",
                "--epochs", "--spot", "--market-prices"),
    "recommend": ("--model", "--batch", "--samples", "--epochs", "--spot",
                  "--market-prices", "--objective", "--budget", "--slack",
                  "--scenario", "--seed", "--ticks", "--risk-aversion"),
    "tradeoff": ("--model", "--batch", "--samples", "--epochs", "--spot",
                 "--market-prices", "--full-catalog", "--batches"),
}


def argv_tails(command):
    """Flags with values of the right type, or with any text at all."""

    def tail(values):
        item = st.sampled_from(COMMAND_FLAGS[command]).flatmap(
            lambda flag: st.tuples(st.just(flag), values(flag))
            if flag in FLAG_VALUES else st.just((flag,)))
        return st.lists(item, max_size=6)

    return tail(FLAG_VALUES.__getitem__) | tail(
        lambda flag: FLAG_VALUES[flag] | st.text(max_size=3))


@FUZZ
@given(data=st.data(),
       command=st.sampled_from(("predict", "recommend", "tradeoff")))
def test_argv_gives_a_request_or_exit_2(data, command):
    tail = data.draw(argv_tails(command))
    argv = [command, "--estimator", "unused.json", "--model", "alexnet"]
    if command == "predict":
        argv += ["--gpu", "T4"]
    for item in tail:
        argv.extend(item)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = cli._build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's own typing and choices
        assert exc.code == 2
        return
    try:
        request = cli.build_request(args)
    except ReproError as exc:  # main() prints this and exits 2
        message = cli.error_message(exc, args)
        if isinstance(exc, RequestError) and exc.fields:
            assert message.startswith("--"), message  # named as a flag
        return
    _use(request)
