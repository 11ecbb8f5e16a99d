#!/usr/bin/env python
"""CI perf-regression gate: fresh bench reports vs the committed baselines.

Each ``--<bench>-fresh`` report is compared with its committed
``BENCH_*.json`` baseline and the gate fails (exit 1) on regression.
Absolute latencies are machine-dependent — a CI runner is not the
machine a baseline was recorded on — so every gate checks
*machine-independent* quantities: exact correctness flags, coverage
counts, and same-process speedup ratios (host speed cancels out), each
with an absolute floor and/or a drift tripwire against the baseline.
Absolute latencies are printed for information only.

The Eq. (2) benchmark (``tools/bench_sweep_catalog.py`` /
``BENCH_sweep_catalog.json``) is checked when ``--catalog-fresh`` is
given: the warm batched/loop speedup ratio must stay above an absolute
floor (default 10x) *and* within tolerance of the committed baseline; the
cold sweep's ratio to the same loop gets a drift tripwire against the
baseline; the sweep must cover at least 1000 candidates; and the
batched/loop equivalence must hold to 1e-9 (correctness, no tolerance).
Single-predict latency is informational.

The cross-hardware transfer benchmark
(``tools/bench_transfer.py`` / ``BENCH_transfer.json``) is checked when
``--transfer-fresh`` is given: the LOGO report must cover every paper
GPU with finite MAPEs, the worst fold's transfer MAPE must stay under an
absolute ceiling and within ``--transfer-tolerance`` of the committed
baseline, spec-only sweep predictions must be finite with positive
uncertainty bands, and the spec-only/profiled warm sweep ratio must stay
within ``--transfer-max-overhead``.

The spot re-rank benchmark (``tools/bench_spot_rerank.py`` /
``BENCH_spot_rerank.json``) is checked when ``--spot-fresh`` is given:
the re-rank and full re-sweep rankings must be bit-identical across
ticks (exact booleans, no tolerance), the spot sweep must cover at
least 1000 candidates, the admitted-GPU masking contract must hold,
and the same-process re-rank/re-sweep speedup must clear an absolute
floor (default 10x) plus a drift tripwire against the committed
baseline.

The serving-layer benchmark (``tools/bench_serve.py`` /
``BENCH_serve.json``) is checked when ``--serve-fresh`` is given: exact
contracts (an identical concurrent burst collapses to one evaluation,
hot swaps under live traffic drop zero requests, every endpoint answers)
plus two same-process ratios — warm-vs-cold first-query latency and
distinct-vs-identical burst wall time — each with an absolute floor and
a drift tripwire against the committed baseline. qps and percentile
latencies are informational.

Usage (the CI ``perf`` job)::

    PYTHONPATH=src python tools/bench_sweep_catalog.py --json catalog-fresh.json
    PYTHONPATH=src python tools/bench_transfer.py --json transfer-fresh.json
    python tools/perf_gate.py --catalog-baseline BENCH_sweep_catalog.json \
        --catalog-fresh catalog-fresh.json \
        --transfer-baseline BENCH_transfer.json \
        --transfer-fresh transfer-fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Tuple


def _lookup(report: dict, path: Tuple[str, str]) -> float:
    section, field = path
    try:
        value = report[section][field]
    except KeyError as exc:
        raise SystemExit(f"malformed bench report: missing {section}.{field}"
                         f" ({exc})")
    return float(value)


#: Batched/loop disagreement above this is a correctness failure.
CATALOG_EQUIVALENCE_BOUND = 1e-9

#: The tentpole's coverage floor: a full-catalog sweep must price at
#: least this many candidates.
CATALOG_MIN_CANDIDATES = 1000


def compare_catalog(
    baseline: dict, fresh: dict, tolerance: float, min_speedup: float
) -> Tuple[List[str], List[str]]:
    """Checks for the batched catalog-sweep benchmark reports.

    Everything gated here is machine-independent: candidate counts and
    equivalence are deterministic, and the warm and cold speedups are
    same-process batched-vs-loop ratios. The warm ratio is noisy — the
    batched side finishes in ~0.3 ms, so scheduler jitter moves it by
    tens of percent run-to-run — which is why ``tolerance`` (the
    ``--catalog-tolerance`` flag) is wide. The hard ``min_speedup`` floor
    and the equivalence bound carry the actual contract; the baseline
    ratios are drift tripwires.
    """
    lines: List[str] = []
    failures: List[str] = []

    candidates = int(_lookup(fresh, ("sweep", "candidates")))
    count_ok = candidates >= CATALOG_MIN_CANDIDATES
    lines.append(
        f"  {'catalog candidates':<28s} fresh {candidates:10d}    "
        f"floor {CATALOG_MIN_CANDIDATES}  [{'ok' if count_ok else 'FAIL'}]"
    )
    if not count_ok:
        failures.append(
            f"catalog: sweep covers {candidates} candidates, below the "
            f"{CATALOG_MIN_CANDIDATES}-candidate floor"
        )

    speedup = _lookup(fresh, ("sweep", "speedup_warm"))
    floor_ok = speedup >= min_speedup
    lines.append(
        f"  {'catalog sweep speedup, warm':<28s} fresh {speedup:10.1f}x   "
        f"floor {min_speedup:.1f}x  [{'ok' if floor_ok else 'REGRESSION'}]"
    )
    if not floor_ok:
        failures.append(
            f"catalog: warm batched speedup {speedup:.1f}x is below the "
            f"{min_speedup:.1f}x floor"
        )

    # Drift tripwires: the warm sweep, and the cold sweep (stacking plus
    # compiling every batch graph), each as a ratio to the same loop.
    for field, label in (
        ("speedup_warm", "catalog warm vs baseline"),
        ("speedup_cold", "catalog cold vs baseline"),
    ):
        base = _lookup(baseline, ("sweep", field))
        new = _lookup(fresh, ("sweep", field))
        change = (new - base) / base if base else float("inf")
        verdict = "ok"
        if change < -tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"catalog: {field} {new:.2f}x is {-change:.0%} below "
                f"the committed {base:.2f}x (tolerance {tolerance:.0%})"
            )
        elif change > tolerance:
            verdict = "improved — consider refreshing the baseline"
        lines.append(
            f"  {label:<28s} baseline {base:10.2f}x   "
            f"fresh {new:10.2f}x   {change:+7.1%}  [{verdict}]"
        )

    eq = _lookup(fresh, ("equivalence", "max_rel_diff"))
    eq_ok = eq <= CATALOG_EQUIVALENCE_BOUND
    lines.append(
        f"  {'batched/loop equivalence':<28s} fresh {eq:10.2e}   "
        f"[{'ok' if eq_ok else 'FAIL'}]"
    )
    if not eq_ok:
        failures.append(
            f"catalog: max_rel_diff {eq:.2e} exceeds "
            f"{CATALOG_EQUIVALENCE_BOUND:.0e} — batched and per-candidate "
            f"paths disagree"
        )

    lines.append(
        f"  -- absolute latencies (informational; machine-dependent) --"
    )
    for path, label in (
        (("sweep", "loop_warm_ms"), "loop warm ms"),
        (("sweep", "batched_cold_ms"), "batched cold ms"),
        (("sweep", "batched_warm_ms"), "batched warm ms"),
        (("sweep", "single_predict_warm_us"), "single predict warm us"),
    ):
        base = _lookup(baseline, path)
        new = _lookup(fresh, path)
        delta = (new - base) / base if base else float("inf")
        lines.append(
            f"  {label:<28s} baseline {base:10.3f}    fresh {new:10.3f}    "
            f"{delta:+7.1%}"
        )
    return lines, failures


#: Absolute ceiling on any LOGO fold's transfer MAPE: extrapolating to a
#: held-out GPU from device specs alone is lossy (the K80's architecture
#: gap costs the most), but errors past this mean the pooled fit broke.
TRANSFER_MAPE_CEILING = 2.0


def compare_transfer(
    baseline: dict, fresh: dict, tolerance: float, max_ratio: float
) -> Tuple[List[str], List[str]]:
    """Checks for the cross-hardware transfer benchmark reports.

    Everything gated here is machine-independent: LOGO MAPEs are
    deterministic functions of the simulated profiles, the boolean
    sanity flags are exact, and the spec-only sweep overhead is a
    same-process ratio so host speed cancels out. The MAPE comparison
    against the committed baseline is the drift tripwire — a change to
    the pooled design matrix or the collapse arithmetic moves it
    immediately.
    """
    lines: List[str] = []
    failures: List[str] = []

    covers = bool(fresh["logo"].get("covers_all_gpus"))
    lines.append(
        f"  {'LOGO covers all paper GPUs':<28s} "
        f"[{'ok' if covers else 'FAIL'}]"
    )
    if not covers:
        failures.append(
            "transfer: LOGO report does not cover every profiled GPU"
        )

    for flag, label, message in (
        (bool(fresh["logo"].get("all_finite")), "LOGO MAPEs finite",
         "transfer: non-finite LOGO MAPE"),
        (bool(fresh["spec_only"].get("all_finite")),
         "spec-only sweep finite",
         "transfer: non-finite spec-only sweep prediction"),
        (bool(fresh["spec_only"].get("uncertainty_positive")),
         "spec-only uncertainty bands",
         "transfer: spec-only prediction lacks uncertainty bands"),
    ):
        lines.append(f"  {label:<28s} [{'ok' if flag else 'FAIL'}]")
        if not flag:
            failures.append(message)

    base_mape = _lookup(baseline, ("logo", "max_transfer_mape"))
    new_mape = _lookup(fresh, ("logo", "max_transfer_mape"))
    ceiling_ok = new_mape <= TRANSFER_MAPE_CEILING
    # MAPE gates invert the speedup convention: higher is worse.
    change = (new_mape - base_mape) / base_mape if base_mape else float("inf")
    verdict = "ok"
    if not ceiling_ok:
        verdict = "FAIL"
        failures.append(
            f"transfer: worst LOGO MAPE {new_mape:.1%} exceeds the "
            f"{TRANSFER_MAPE_CEILING:.0%} ceiling"
        )
    elif change > tolerance:
        verdict = "REGRESSION"
        failures.append(
            f"transfer: worst LOGO MAPE {new_mape:.1%} is {change:.0%} "
            f"above the committed {base_mape:.1%} (tolerance "
            f"{tolerance:.0%})"
        )
    elif change < -tolerance:
        verdict = "improved — consider refreshing the baseline"
    lines.append(
        f"  {'worst LOGO transfer MAPE':<28s} baseline {base_mape:10.1%}   "
        f"fresh {new_mape:10.1%}   {change:+7.1%}  [{verdict}]"
    )

    ratio = _lookup(fresh, ("spec_only", "overhead_ratio"))
    ratio_ok = ratio <= max_ratio
    lines.append(
        f"  {'spec-only sweep overhead':<28s} fresh {ratio:10.2f}x   "
        f"budget {max_ratio:.1f}x  [{'ok' if ratio_ok else 'REGRESSION'}]"
    )
    if not ratio_ok:
        failures.append(
            f"transfer: spec-only warm sweep is {ratio:.2f}x the "
            f"profiled sweep, over the {max_ratio:.1f}x budget"
        )

    lines.append(
        "  -- per-fold MAPEs (informational) --"
    )
    for gpu in fresh["logo"].get("gpus", []):
        fold = fresh["logo"]["folds"][gpu]
        base_fold = baseline["logo"]["folds"].get(gpu, {})
        base_v = float(base_fold.get("transfer_mape", float("nan")))
        lines.append(
            f"  holdout {gpu:<20s} baseline {base_v:10.1%}   "
            f"fresh {float(fold['transfer_mape']):10.1%}"
        )
    return lines, failures


#: The spot re-rank layer's coverage floor, mirroring the catalog gate.
SPOT_MIN_CANDIDATES = 1000


def compare_spot(
    baseline: dict, fresh: dict, tolerance: float, min_speedup: float
) -> Tuple[List[str], List[str]]:
    """Checks for the spot re-rank benchmark reports.

    The contracts are exact: re-rank and full re-sweep rankings must
    agree candidate-for-candidate with bitwise-equal scores, and a
    ratio-less admitted GPU must mask (not raise) under spot pricing.
    The re-rank/re-sweep speedup is a same-process ratio (host speed
    cancels) with an absolute floor; the baseline comparison is a drift
    tripwire with a wide tolerance — the re-rank side finishes in tens
    of microseconds, so scheduler jitter moves the ratio run-to-run.
    """
    lines: List[str] = []
    failures: List[str] = []

    for flag, label, message in (
        (bool(fresh["equivalence"].get("rankings_identical")),
         "rerank/re-sweep rankings",
         f"spot: {fresh['equivalence'].get('ranking_mismatches')} ranking "
         f"mismatch(es) between re-rank and full re-sweep"),
        (bool(fresh["equivalence"].get("scores_bitwise_equal")),
         "scores bitwise equal",
         "spot: re-rank scores are not bitwise equal to the full "
         "re-sweep's"),
        (bool(fresh["admitted"].get("spot_admitted_sweep_ok")),
         "admitted-GPU spot masking",
         "spot: sweep over a ratio-less admitted GPU broke the "
         "mask-not-raise contract"),
    ):
        lines.append(f"  {label:<28s} [{'ok' if flag else 'FAIL'}]")
        if not flag:
            failures.append(message)

    candidates = int(_lookup(fresh, ("rerank", "candidates")))
    count_ok = candidates >= SPOT_MIN_CANDIDATES
    lines.append(
        f"  {'spot candidates':<28s} fresh {candidates:10d}    "
        f"floor {SPOT_MIN_CANDIDATES}  [{'ok' if count_ok else 'FAIL'}]"
    )
    if not count_ok:
        failures.append(
            f"spot: re-rank covers {candidates} candidates, below the "
            f"{SPOT_MIN_CANDIDATES}-candidate floor"
        )

    speedup = _lookup(fresh, ("rerank", "speedup"))
    floor_ok = speedup >= min_speedup
    lines.append(
        f"  {'rerank vs re-sweep speedup':<28s} fresh {speedup:10.1f}x   "
        f"floor {min_speedup:.1f}x  [{'ok' if floor_ok else 'REGRESSION'}]"
    )
    if not floor_ok:
        failures.append(
            f"spot: re-rank speedup {speedup:.1f}x is below the "
            f"{min_speedup:.1f}x floor"
        )

    base_speedup = _lookup(baseline, ("rerank", "speedup"))
    change = (speedup - base_speedup) / base_speedup if base_speedup else float("inf")
    verdict = "ok"
    if change < -tolerance:
        verdict = "REGRESSION"
        failures.append(
            f"spot: re-rank speedup {speedup:.1f}x is {-change:.0%} below "
            f"the committed {base_speedup:.1f}x (tolerance {tolerance:.0%})"
        )
    elif change > tolerance:
        verdict = "improved — consider refreshing the baseline"
    lines.append(
        f"  {'spot vs baseline':<28s} baseline {base_speedup:10.1f}x   "
        f"fresh {speedup:10.1f}x   {change:+7.1%}  [{verdict}]"
    )

    lines.append(
        "  -- absolute latencies (informational; machine-dependent) --"
    )
    for path, label in (
        (("rerank", "resweep_warm_ms"), "full re-sweep warm ms"),
        (("rerank", "rerank_ms"), "re-rank ms"),
    ):
        base = _lookup(baseline, path)
        new = _lookup(fresh, path)
        delta = (new - base) / base if base else float("inf")
        lines.append(
            f"  {label:<28s} baseline {base:10.3f}    fresh {new:10.3f}    "
            f"{delta:+7.1%}"
        )
    return lines, failures


#: Floors for the serving-layer ratios. Warm-vs-cold is large by
#: construction (a cold query pays graph build + compile + stacking; a
#: warm one reads caches), so 5x is a deliberately loose tripwire; the
#: coalesce floor says a burst of N distinct queries must cost
#: meaningfully more wall-clock than N identical coalesced ones.
SERVE_WARM_COLD_FLOOR = 5.0
SERVE_COALESCE_FLOOR = 1.5


def compare_serve(
    baseline: dict, fresh: dict, tolerance: float
) -> Tuple[List[str], List[str]]:
    """Checks for the serving-layer benchmark reports.

    The hard contracts are exact booleans: an identical concurrent burst
    must collapse to exactly one evaluation, a hot swap under live
    traffic must drop zero requests while overlapping at least one
    reload, and every sanity endpoint must answer 200. The two ratios —
    warm-vs-cold first-query latency and distinct-vs-identical burst
    wall time — are same-process, so host speed cancels; each has an
    absolute floor plus a baseline drift tripwire. qps and percentile
    latencies are machine-dependent and informational only.
    """
    lines: List[str] = []
    failures: List[str] = []

    for flag, label, message in (
        (bool(fresh.get("endpoints", {}).get("all_ok")),
         "endpoint sanity", "serve: an endpoint sanity request failed"),
        (int(fresh.get("load", {}).get("errors", 1)) == 0,
         "load errors == 0",
         f"serve: {fresh.get('load', {}).get('errors')} load requests "
         f"failed"),
        (bool(fresh.get("coalesce", {}).get("single_evaluation")),
         "identical burst -> 1 eval",
         f"serve: identical burst ran "
         f"{fresh.get('coalesce', {}).get('identical_evaluations')} "
         f"evaluations (expected 1)"),
        (int(fresh.get("hotswap", {}).get("dropped", 1)) == 0,
         "hot swap drops == 0",
         f"serve: hot swap dropped "
         f"{fresh.get('hotswap', {}).get('dropped')} request(s)"),
        (bool(fresh.get("hotswap", {}).get("overlapped_swaps")),
         "traffic overlapped a swap",
         "serve: hot-swap traffic never overlapped a reload"),
    ):
        lines.append(f"  {label:<28s} [{'ok' if flag else 'FAIL'}]")
        if not flag:
            failures.append(message)

    for path, label, floor in (
        (("warm_vs_cold", "warm_vs_cold_ratio"), "warm-vs-cold ratio",
         SERVE_WARM_COLD_FLOOR),
        (("coalesce", "coalesce_ratio"), "coalesce ratio",
         SERVE_COALESCE_FLOOR),
    ):
        base = _lookup(baseline, path)
        new = _lookup(fresh, path)
        floor_ok = new >= floor
        change = (new - base) / base if base else float("inf")
        verdict = "ok"
        if not floor_ok:
            verdict = "REGRESSION"
            failures.append(
                f"serve: {label} {new:.1f}x is below the {floor:.1f}x floor"
            )
        elif change < -tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"serve: {label} {new:.1f}x is {-change:.0%} below the "
                f"committed {base:.1f}x (tolerance {tolerance:.0%})"
            )
        elif change > tolerance:
            verdict = "improved — consider refreshing the baseline"
        lines.append(
            f"  {label:<28s} baseline {base:10.1f}x   fresh {new:10.1f}x   "
            f"{change:+7.1%}  floor {floor:.1f}x  [{verdict}]"
        )

    lines.append(
        "  -- throughput/latency (informational; machine-dependent) --"
    )
    for path, label in (
        (("load", "qps"), "sustained qps"),
        (("load", "p50_ms"), "p50 ms"),
        (("load", "p99_ms"), "p99 ms"),
        (("warm_vs_cold", "cache_hit_ms"), "LRU hit ms"),
    ):
        base = _lookup(baseline, path)
        new = _lookup(fresh, path)
        delta = (new - base) / base if base else float("inf")
        lines.append(
            f"  {label:<28s} baseline {base:10.3f}    fresh {new:10.3f}    "
            f"{delta:+7.1%}"
        )
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--catalog-baseline", type=Path,
                        default=Path("BENCH_sweep_catalog.json"),
                        help="committed catalog-sweep benchmark report")
    parser.add_argument("--catalog-fresh", type=Path, default=None,
                        help="freshly generated catalog-sweep report; "
                             "enables the batched-sweep checks")
    parser.add_argument("--catalog-tolerance", type=float, default=0.5,
                        help="allowed fractional drop in the catalog warm "
                             "and cold speedups vs their baseline (wide: the "
                             "~0.3 ms batched side makes the ratio noisy)")
    parser.add_argument("--catalog-min", type=float, default=10.0,
                        help="minimum warm batched-vs-loop catalog sweep "
                             "speedup (default 10.0)")
    parser.add_argument("--transfer-baseline", type=Path,
                        default=Path("BENCH_transfer.json"),
                        help="committed transfer benchmark report")
    parser.add_argument("--transfer-fresh", type=Path, default=None,
                        help="freshly generated transfer report; enables "
                             "the cross-hardware transfer checks")
    parser.add_argument("--transfer-tolerance", type=float, default=0.25,
                        help="allowed fractional rise in the worst LOGO "
                             "transfer MAPE vs its baseline")
    parser.add_argument("--transfer-max-overhead", type=float, default=3.0,
                        help="maximum spec-only/profiled warm sweep ratio "
                             "(default 3.0)")
    parser.add_argument("--spot-baseline", type=Path,
                        default=Path("BENCH_spot_rerank.json"),
                        help="committed spot re-rank benchmark report")
    parser.add_argument("--spot-fresh", type=Path, default=None,
                        help="freshly generated spot re-rank report; "
                             "enables the spot-dynamics checks")
    parser.add_argument("--spot-tolerance", type=float, default=0.5,
                        help="allowed fractional drop in the re-rank "
                             "speedup vs its baseline (wide: the re-rank "
                             "side is tens of microseconds)")
    parser.add_argument("--spot-min", type=float, default=10.0,
                        help="minimum re-rank vs warmed full re-sweep "
                             "speedup (default 10.0)")
    parser.add_argument("--serve-baseline", type=Path,
                        default=Path("BENCH_serve.json"),
                        help="committed serving-layer benchmark report")
    parser.add_argument("--serve-fresh", type=Path, default=None,
                        help="freshly generated serve report; enables the "
                             "serving-layer checks")
    parser.add_argument("--serve-tolerance", type=float, default=0.5,
                        help="allowed fractional drop in the serve ratios vs "
                             "their baseline (wide: millisecond-scale burst "
                             "walls make the ratios noisy)")
    args = parser.parse_args(argv)

    failures: List[str] = []
    if args.catalog_fresh is not None:
        catalog_baseline = json.loads(args.catalog_baseline.read_text())
        catalog_fresh = json.loads(args.catalog_fresh.read_text())
        catalog_lines, catalog_failures = compare_catalog(
            catalog_baseline, catalog_fresh, args.catalog_tolerance,
            args.catalog_min,
        )
        print(f"catalog gate: {args.catalog_fresh} vs {args.catalog_baseline}")
        print("\n".join(catalog_lines))
        failures.extend(catalog_failures)
    if args.transfer_fresh is not None:
        transfer_baseline = json.loads(args.transfer_baseline.read_text())
        transfer_fresh = json.loads(args.transfer_fresh.read_text())
        transfer_lines, transfer_failures = compare_transfer(
            transfer_baseline, transfer_fresh, args.transfer_tolerance,
            args.transfer_max_overhead,
        )
        print(f"transfer gate: {args.transfer_fresh} vs "
              f"{args.transfer_baseline}")
        print("\n".join(transfer_lines))
        failures.extend(transfer_failures)
    if args.spot_fresh is not None:
        spot_baseline = json.loads(args.spot_baseline.read_text())
        spot_fresh = json.loads(args.spot_fresh.read_text())
        spot_lines, spot_failures = compare_spot(
            spot_baseline, spot_fresh, args.spot_tolerance, args.spot_min
        )
        print(f"spot gate: {args.spot_fresh} vs {args.spot_baseline}")
        print("\n".join(spot_lines))
        failures.extend(spot_failures)
    if args.serve_fresh is not None:
        serve_baseline = json.loads(args.serve_baseline.read_text())
        serve_fresh = json.loads(args.serve_fresh.read_text())
        serve_lines, serve_failures = compare_serve(
            serve_baseline, serve_fresh, args.serve_tolerance
        )
        print(f"serve gate: {args.serve_fresh} vs {args.serve_baseline}")
        print("\n".join(serve_lines))
        failures.extend(serve_failures)
    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
