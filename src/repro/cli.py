"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

* ``models`` — list the CNN zoo with op/parameter counts.
* ``fit`` — run the offline phase (profile + fit) and save the estimator.
* ``predict`` — training time/cost of one CNN on one instance.
* ``recommend`` — optimal-instance recommendation under an objective.
* ``tradeoff`` — the time-cost Pareto frontier across instances; with
  ``--full-catalog`` (and optionally ``--batches``) the batched sweep
  prices every configuration the catalog offers in one tensor pass.
* ``catalog`` — list the priced AWS instance menu (On-Demand and spot).
* ``figures`` — regenerate paper figures by name (or ``all``).
* ``cache`` — inspect or clear the artifact workspace backing fit/figures.
* ``serve`` — run the recommendation service: a long-lived HTTP server
  answering predict/recommend/pareto queries over one warmed estimator.

``fit`` and ``figures`` share one artifact workspace (``--workspace``, or
``$REPRO_WORKSPACE``, or ``~/.cache/repro/workspace``), so running them as
separate processes profiles the CNN matrix exactly once.

Observability: every command accepts ``--trace-out trace.json`` (Chrome
trace-event JSON of the run's spans — open in Perfetto or
``chrome://tracing``) and ``--metrics-out metrics.json`` (counters /
gauges / histograms, including the workspace store's hit/miss counters).
``$REPRO_TRACE`` / ``$REPRO_METRICS`` set the same paths environment-wide.
Tracing is off (and costs nothing) unless one of these asks for it.

Example session::

    python -m repro fit --output ceer.json --iterations 300
    python -m repro recommend --estimator ceer.json --model inception_v3 \
        --objective min-cost
    python -m repro figures fig11 --trace-out fig11-trace.json
    python -m repro cache list
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence, Union

from repro.analysis.reporting import format_table
from repro.artifacts import kinds
from repro.artifacts.workspace import (
    Workspace,
    active_workspace,
    set_active_workspace,
)
from repro.cloud.pricing import SPOT
from repro.core.persistence import load_estimator, save_estimator
from repro.core.recommend import Recommender, SpotRiskObjective
from repro.errors import ReproError, RequestError
from repro.graph.serialization import load_graph
from repro.models.zoo import build_model, model_names
from repro.obs.export import write_metrics, write_trace
from repro.obs.metrics import default_registry
from repro.obs.spans import disable_tracing, enable_tracing, span
from repro.requests import (
    DEFAULT_BATCH,
    DEFAULT_SAMPLES,
    OBJECTIVES,
    SCENARIOS,
    SPOT_ONLY,
    ParetoRequest,
    PredictRequest,
    RecommendRequest,
)
from repro.units import us_to_ms

#: Environment variables mirroring ``--trace-out`` / ``--metrics-out``.
TRACE_ENV = "REPRO_TRACE"
METRICS_ENV = "REPRO_METRICS"


def _add_obs_args(p, suppress: bool) -> None:
    # The observability flags are valid both before and after the
    # subcommand (``repro --trace-out t.json figures ...`` and
    # ``repro figures ... --trace-out t.json``). argparse applies subparser
    # defaults *after* the main parser has filled the namespace, so the
    # subcommand copies use SUPPRESS to avoid clobbering a pre-subcommand
    # value with None.
    default = argparse.SUPPRESS if suppress else None
    p.add_argument("--trace-out", default=default, metavar="PATH",
                   help="write a Chrome trace-event JSON of this run "
                        "(open in Perfetto); also $REPRO_TRACE")
    p.add_argument("--metrics-out", default=default, metavar="PATH",
                   help="write counters/gauges/histograms JSON for this "
                        "run; also $REPRO_METRICS")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ceer (IISWC 2020 reproduction): CNN training time/cost "
                    "prediction and instance recommendation.",
    )
    _add_obs_args(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    models = sub.add_parser("models", help="list the CNN zoo")
    _add_obs_args(models, suppress=True)

    def add_workspace_arg(p):
        p.add_argument("--workspace",
                       help="artifact workspace directory (default: "
                            "$REPRO_WORKSPACE or ~/.cache/repro/workspace)")
        _add_obs_args(p, suppress=True)

    fit = sub.add_parser("fit", help="profile training CNNs and fit Ceer")
    fit.add_argument("--output", required=True, help="path for the estimator JSON")
    fit.add_argument("--iterations", type=int, default=300,
                     help="profiling iterations per (model, GPU); paper: 1000")
    fit.add_argument("--placement", default="single-host",
                     choices=("single-host", "multi-host"),
                     help="GPU topology the comm model is trained for")
    fit.add_argument("--backend", default="per_gpu",
                     choices=("per_gpu", "transfer"),
                     help="op-model backend: per-GPU fits (paper-faithful "
                          "default) or pooled cross-hardware transfer fits "
                          "that extrapolate to spec-only GPUs")
    fit.add_argument("--no-warm-test-profiles", action="store_true",
                     help="skip pre-profiling the held-out test CNNs "
                          "(figures needing them will profile later)")
    fit.add_argument("--jobs", type=int, metavar="N",
                     help="profile and fit with N worker processes "
                          "(artifacts are byte-identical at any N; "
                          "default: serial)")
    add_workspace_arg(fit)

    def add_workload_args(p):
        p.add_argument("--workspace",
                       help="artifact workspace directory whose admitted "
                            "spec-only GPUs join the catalog (default: "
                            "$REPRO_WORKSPACE or ~/.cache/repro/workspace)")
        p.add_argument("--model", help="zoo model name")
        p.add_argument("--graph", help="path to a serialized op-graph JSON")
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                       help="training samples per epoch (default: ImageNet)")
        p.add_argument("--batch", type=int, default=DEFAULT_BATCH,
                       help="batch per GPU")
        p.add_argument("--epochs", type=int, default=1)
        p.add_argument("--market-prices", action="store_true",
                       help="use commodity market-ratio prices (paper "
                            "Fig. 12); mutually exclusive with --spot")
        p.add_argument("--spot", action="store_true",
                       help="use spot-market prices (per-family discount "
                            "ratios on the On-Demand rates); mutually "
                            "exclusive with --market-prices")
        _add_obs_args(p, suppress=True)

    predict = sub.add_parser("predict", help="predict time/cost on one instance")
    predict.add_argument("--estimator", required=True)
    add_workload_args(predict)
    predict.add_argument("--gpu", required=True,
                         help="GPU model (V100/K80/T4/M60) or family (P3/P2/G4/G3)")
    predict.add_argument("--gpus", type=int, default=1, help="GPU count")

    rec = sub.add_parser("recommend", help="recommend the optimal instance")
    rec.add_argument("--estimator", required=True)
    add_workload_args(rec)
    rec.add_argument("--objective", default=None, choices=OBJECTIVES,
                     help="static-scenario objective (default: min-cost); "
                          "conflicts with --scenario spot, which always "
                          "ranks by the spot-risk objective")
    rec.add_argument("--budget", type=float,
                     help="$/hr for hourly-budget, $ total for total-budget")
    rec.add_argument("--slack", type=float, default=None,
                     help="hourly-budget slack in $/hr (paper uses 0.42; "
                          "default: 0)")
    rec.add_argument("--scenario", default="static", choices=SCENARIOS,
                     help="'static' ranks fixed price tiers; 'spot' streams "
                          "a seeded synthetic spot-price trace and ranks by "
                          "preemption-aware expected cost (default: static)")
    rec.add_argument("--seed", type=int, default=None,
                     help="spot trace seed (requires --scenario spot; "
                          "default: 2020)")
    rec.add_argument("--ticks", type=int, default=None,
                     help="advance the spot market this many price ticks "
                          "and rank at the last one (requires --scenario "
                          "spot; default: 1)")
    rec.add_argument("--risk-aversion", type=float, default=None,
                     metavar="LAMBDA",
                     help="spot-risk trade-off in $ per expected hour: "
                          "score = expected cost + LAMBDA * expected "
                          "makespan (requires --scenario spot; default: 0)")

    tradeoff = sub.add_parser(
        "tradeoff", help="show the full time-cost Pareto frontier"
    )
    tradeoff.add_argument("--estimator", required=True)
    add_workload_args(tradeoff)
    tradeoff.add_argument("--full-catalog", action="store_true",
                          help="sweep every (GPU, count) the catalog offers "
                               "via the batched engine instead of the "
                               "paper's 16-candidate grid")
    tradeoff.add_argument("--batches", metavar="B1,B2,...",
                          help="comma-separated per-GPU batch sizes to add "
                               "as a sweep axis (requires --full-catalog)")

    catalog = sub.add_parser(
        "catalog", help="inspect the priced AWS instance catalog"
    )
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)
    catalog_list = catalog_sub.add_parser(
        "list", help="list every rentable instance with its price tiers"
    )
    catalog_list.add_argument("--gpu",
                              help="filter by GPU model (V100/K80/T4/M60) "
                                   "or family (P3/P2/G4/G3)")
    add_workspace_arg(catalog_list)
    catalog_admit = catalog_sub.add_parser(
        "admit", help="admit a never-profiled GPU into the catalog from "
                      "a spec JSON (predict with a transfer-backend "
                      "estimator)"
    )
    catalog_admit.add_argument("--spec", required=True, metavar="PATH",
                               help="JSON file with the GpuSpec fields "
                                    "(key, family, marketing_name, "
                                    "cuda_cores, ... comm_us_per_mparam)")
    catalog_admit.add_argument("--usd-per-hr", type=float, required=True,
                               help="On-Demand price of the 1-GPU instance")
    catalog_admit.add_argument("--max-gpus", type=int, default=8,
                               help="largest instance size to admit "
                                    "(default: 8)")
    catalog_admit.add_argument("--spot-ratio", type=float, default=None,
                               metavar="RATIO",
                               help="spot-to-On-Demand price ratio in "
                                    "(0, 1] for this GPU; without it the "
                                    "admitted GPU prices On-Demand only "
                                    "and spot pricing raises")
    catalog_admit.add_argument("--replace", action="store_true",
                               help="overwrite an existing admission of the "
                                    "same GPU key (without this, re-admitting "
                                    "is an error)")
    add_workspace_arg(catalog_admit)

    serve = sub.add_parser(
        "serve", help="run the recommendation service over a fitted estimator"
    )
    serve.add_argument("--estimator", required=True,
                       help="fitted estimator JSON (from 'repro fit')")
    serve.add_argument("--host", default="127.0.0.1",
                       help="address to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8100,
                       help="port to bind; 0 picks an ephemeral port "
                            "(default: 8100)")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="bounded response-cache entries (default: 1024)")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip pre-compiling graphs at startup (first "
                            "query per model pays compilation instead)")
    serve.add_argument("--models", metavar="M1,M2,...",
                       help="comma-separated zoo models to pre-warm "
                            "(default: the whole zoo)")
    serve.add_argument("--warm-batches", metavar="B1,B2,...",
                       help="comma-separated batch sizes to pre-warm "
                            "(default: 32)")
    serve.add_argument("--spot-seed", type=int, default=2020,
                       help="seed for the service's synthetic spot-price "
                            "trace (POST /spot/tick advances it; "
                            "default: 2020)")
    add_workspace_arg(serve)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("names", nargs="+",
                         help="figure names (fig2..fig12, ablations, "
                              "spot_dynamics) or 'all'")
    figures.add_argument("--iterations", type=int, default=300)
    figures.add_argument("--output",
                         help="also write the rendered figures to this file")
    figures.add_argument("--counters-out",
                         help="write per-kind workspace hit/miss counters "
                              "JSON to this file")
    figures.add_argument("--jobs", type=int, metavar="N",
                         help="render figures with N worker processes "
                              "(output is identical; default: serial)")
    add_workspace_arg(figures)

    cache = sub.add_parser("cache", help="inspect the artifact workspace")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_list = cache_sub.add_parser("list", help="list stored artifacts")
    cache_list.add_argument("--kind", choices=sorted(kinds.KINDS))
    add_workspace_arg(cache_list)
    cache_info = cache_sub.add_parser(
        "info", help="summarize the workspace, or show one artifact's detail"
    )
    cache_info.add_argument("key", nargs="?",
                            help="artifact key (see 'cache list'); omit for "
                                 "a per-kind workspace summary")
    add_workspace_arg(cache_info)
    cache_clear = cache_sub.add_parser("clear", help="delete stored artifacts")
    cache_clear.add_argument("--kind", choices=sorted(kinds.KINDS))
    add_workspace_arg(cache_clear)
    cache_key = cache_sub.add_parser(
        "key", help="print the canonical profile fingerprint (for CI cache keys)"
    )
    cache_key.add_argument("--iterations", type=int, default=300)
    add_workspace_arg(cache_key)

    check = sub.add_parser(
        "check", help="static analysis: unit, routing, axis, fork, "
                      "fingerprint, and obs rule families"
    )
    from repro.staticcheck.cli import add_check_arguments

    add_check_arguments(check)
    _add_obs_args(check, suppress=True)
    return parser


#: The workspace the current command resolved, if any — lets ``main()``
#: fold the store's hit/miss counters into ``--metrics-out`` after dispatch.
_last_workspace: Optional[Workspace] = None


def _resolve_workspace(args) -> Workspace:
    global _last_workspace
    if getattr(args, "workspace", None):
        workspace = Workspace(args.workspace)
    else:
        workspace = active_workspace()
    _last_workspace = workspace
    return workspace


def _load_admitted(args) -> Sequence[str]:
    """Re-admit the workspace's spec-only GPUs before a workload command.

    Reads the resolved workspace's ``admitted_gpus.json`` (if any) so
    ``predict --gpu <admitted>`` and catalog sweeps see the same extended
    catalog as the ``catalog admit`` process that recorded it.
    """
    return _resolve_workspace(args).load_admitted_gpus()


Request = Union[PredictRequest, RecommendRequest, ParetoRequest]


def build_request(args) -> Request:
    """The request a ``predict``/``recommend``/``tradeoff`` invocation asks.

    The request type owns every rule of the question (see
    :mod:`repro.requests`); only the rules about CLI-only flags are
    checked here. Raises :class:`~repro.errors.RequestError` (exit 2).
    """
    if args.graph is None and args.model is None:
        raise ReproError("provide either --model <zoo name> or --graph <path>")
    if args.spot and args.market_prices:
        raise RequestError(("spot", "market_prices"), "exclude each other")
    common = {
        "model": args.graph if args.graph is not None else args.model,
        "samples": args.samples,
        "epochs": args.epochs,
    }
    if args.spot or args.market_prices:
        common["pricing"] = "spot" if args.spot else "market"
    if args.command == "predict":
        return PredictRequest(gpu=args.gpu, gpus=args.gpus, batch=args.batch,
                              **common)
    if args.command == "tradeoff":
        if args.batches is None:
            return ParetoRequest(batches=(args.batch,), **common)
        if not args.full_catalog:
            raise RequestError(("batches",), "requires --full-catalog")
        return ParetoRequest(
            batches=_parse_batches(args.batches, "--batches"), **common
        )
    if args.scenario != "spot":
        for field in ("seed", "ticks"):
            if getattr(args, field) is not None:
                raise RequestError((field,), SPOT_ONLY)
    elif args.ticks is not None and args.ticks < 1:
        raise RequestError(("ticks",), f"must be >= 1, got {args.ticks}")
    return RecommendRequest(
        batch=args.batch, objective=args.objective, budget=args.budget,
        slack=args.slack, scenario=args.scenario,
        risk_aversion=args.risk_aversion, **common,
    )


def _flag(args, field: str) -> str:
    """The flag that set a request field, as error messages name it."""
    if field == "pricing":
        return "--spot" if args.spot else "--market-prices"
    if field == "model" and getattr(args, "graph", None) is not None:
        return "--graph"
    if field == "batches" and getattr(args, "batches", None) is None:
        return "--batch"
    return "--" + field.replace("_", "-")


def error_message(exc: ReproError, args) -> str:
    """The exit-2 message: request fields written as the flags that set them."""
    if isinstance(exc, RequestError):
        return exc.render(lambda field: _flag(args, field))
    return str(exc)


def _resolve_model(args, req: Request):
    """The model to evaluate: a loaded ``--graph`` or a zoo name."""
    return load_graph(args.graph) if args.graph is not None else req.model


def _cmd_models(args, out) -> int:
    rows = []
    for name in sorted(model_names()):
        graph = build_model(name, batch_size=32)
        rows.append(
            [name, len(graph), len(graph.op_type_counts()),
             f"{graph.num_parameters / 1e6:.1f}M"]
        )
    print(
        format_table(["model", "ops", "unique op types", "parameters"], rows,
                     title="CNN zoo (paper, Section III)"),
        file=out,
    )
    return 0


def _cmd_fit(args, out) -> int:
    workspace = _resolve_workspace(args)
    fitted = workspace.fitted_ceer(
        args.iterations, placement=args.placement, jobs=args.jobs,
        backend=args.backend,
    )
    if not args.no_warm_test_profiles:
        # Pre-profile the held-out CNNs so a later ``repro figures`` process
        # (validation/ablation figures) starts from a fully warm workspace.
        workspace.test_profiles(args.iterations, jobs=args.jobs)
    save_estimator(fitted.estimator, args.output)
    print(fitted.diagnostics.summary(), file=out)
    print(f"estimator saved to {args.output}", file=out)
    print(f"workspace: {workspace.directory}", file=out)
    return 0


def _cmd_predict(args, out) -> int:
    req = build_request(args)
    _load_admitted(args)
    estimator = load_estimator(args.estimator)
    prediction = estimator.predict_training(
        _resolve_model(args, req), req.gpu, req.gpus, req.job(),
        pricing=req.pricing_scheme(),
    )
    print(
        f"{prediction.model} on {prediction.instance_name} "
        f"({prediction.num_gpus}x {prediction.gpu_key}):", file=out,
    )
    print(f"  per-iteration: {us_to_ms(prediction.per_iteration_us):.2f} ms "
          f"(compute {us_to_ms(prediction.compute_us_per_iteration):.2f} ms + "
          f"sync {us_to_ms(prediction.comm_overhead_us):.2f} ms)", file=out)
    time_band_hr = (
        f" (± {prediction.total_std_hours:.2f} h)"
        if prediction.compute_std_us > 0 else ""
    )
    cost_band_usd = (
        f" (± ${prediction.cost_std_dollars:.2f})"
        if prediction.compute_std_us > 0 else ""
    )
    print(f"  training time: {prediction.total_hours:.2f} h{time_band_hr} over "
          f"{prediction.iterations:.0f} iterations", file=out)
    print(f"  training cost: ${prediction.cost_dollars:.2f}{cost_band_usd} at "
          f"${prediction.usd_per_hr:.3f}/hr", file=out)
    return 0


def _cmd_recommend(args, out) -> int:
    req = build_request(args)
    _load_admitted(args)
    estimator = load_estimator(args.estimator)
    model = _resolve_model(args, req)
    if req.scenario == "spot":
        return _recommend_spot(args, req, estimator, model, out)
    recommendation = Recommender(estimator, pricing=req.pricing_scheme()).recommend(
        model, req.job(), req.objective_instance()
    )
    print(recommendation.summary(), file=out)
    return 0


def _recommend_spot(args, req: RecommendRequest, estimator, model, out) -> int:
    from repro.cloud.spotsim import SpotMarket
    from repro.core.preempt import DEFAULT_PREEMPTION
    from repro.core.rerank import SpotRerankSession

    job = req.job()
    seed = 2020 if args.seed is None else args.seed
    ticks = 1 if args.ticks is None else args.ticks
    objective = req.objective_instance()
    assert isinstance(objective, SpotRiskObjective)
    risk_aversion = objective.risk_aversion_usd_per_hr
    market = SpotMarket(seed=seed)
    session = SpotRerankSession.from_estimator(
        estimator, model, job, batch_sizes=(job.batch_size,)
    )
    for _ in range(ticks - 1):
        market.tick()
    ranking = session.rerank(
        market.ratios(),
        market.hazards_per_hr(),
        risk_aversion_usd_per_hr=risk_aversion,
        preempt=DEFAULT_PREEMPTION,
    )
    best = ranking.best()
    print(
        f"spot scenario (seed {seed}, tick {market.tick_index}, "
        f"{ranking.n_candidates} priceable candidates, "
        f"risk aversion ${risk_aversion:.2f}/h):",
        file=out,
    )
    ratios = market.ratios()
    print(
        "  ratios: " + ", ".join(
            f"{key}={ratios[key]:.3f}" for key in sorted(ratios)
        ),
        file=out,
    )
    print(
        f"best: {best.model} on {best.instance_name} "
        f"({best.num_gpus}x {best.gpu_key}, batch {best.batch_size})",
        file=out,
    )
    print(
        f"  expected makespan: {best.expected_makespan_hours:.2f} h "
        f"(deterministic {best.total_hours:.2f} h, hazard "
        f"{best.hazard_per_hr:.3f}/h)",
        file=out,
    )
    print(
        f"  expected cost: ${best.expected_cost_usd:.2f} at "
        f"${best.usd_per_hr:.3f}/hr",
        file=out,
    )
    runners_up = ranking.predictions(top=4)[1:]
    if runners_up:
        print("runners-up:", file=out)
        for p in runners_up:
            print(
                f"  {p.instance_name} ({p.num_gpus}x {p.gpu_key}): "
                f"${p.expected_cost_usd:.2f}, "
                f"{p.expected_makespan_hours:.2f} h",
                file=out,
            )
    return 0


def _parse_batches(spec: str, flag: str):
    try:
        return tuple(int(b) for b in spec.split(","))
    except ValueError:
        raise ReproError(f"{flag} must be comma-separated integers, got {spec!r}")


def _cmd_tradeoff(args, out) -> int:
    from repro.core.pareto import analyze_tradeoff

    req = build_request(args)
    _load_admitted(args)
    estimator = load_estimator(args.estimator)
    model = _resolve_model(args, req)
    pricing = req.pricing_scheme()
    if args.full_catalog:
        from repro.analysis.reporting import format_dollars, format_us
        from repro.cloud.catalog import admitted_gpu_keys
        from repro.core.batch import SweepPlan, evaluate_sweep
        from repro.hardware.gpus import GPU_KEYS

        # Admitted spec-only GPUs join the sweep when the estimator can
        # synthesize models for them (transfer backend); a per-GPU
        # estimator silently sweeps the built-in four as before.
        extra = [
            key for key in admitted_gpu_keys()
            if estimator.compute_models.supports_gpu(key)
        ]
        plan = SweepPlan.full_catalog(
            batch_sizes=req.batches, pricings=(pricing,),
            gpu_keys=tuple(GPU_KEYS) + tuple(extra) if extra else None,
        )
        result = evaluate_sweep(estimator, model, req.job(), plan)
        frontier = result.frontier()
        rows = [
            [
                p.instance_name, f"{p.num_gpus}x{p.gpu_key}", p.batch_size,
                format_us(p.total_us), format_dollars(p.cost_dollars),
            ]
            for p in frontier
        ]
        print(
            format_table(
                ["instance", "config", "batch", "time", "cost"], rows,
                title=f"Catalog frontier for {result.model_name!r}: "
                      f"{len(frontier)} efficient of {result.n_candidates} "
                      f"candidates ({pricing.name} prices)",
            ),
            file=out,
        )
        return 0
    analysis = analyze_tradeoff(
        Recommender(estimator, pricing=pricing), model, req.job()
    )
    print(analysis.render(), file=out)
    knee = analysis.knee()
    print(
        f"knee of the frontier: {knee.instance_name} "
        f"({knee.total_hours:.2f} h, ${knee.cost_dollars:.2f})",
        file=out,
    )
    return 0


def _cmd_catalog(args, out) -> int:
    if args.catalog_command == "admit":
        return _cmd_catalog_admit(args, out)
    from repro.cloud.catalog import (
        PAPER_INSTANCES,
        admitted_gpu_keys,
        all_instances,
        candidate_instances,
    )
    from repro.errors import CatalogError
    from repro.hardware.gpus import gpu_spec

    _load_admitted(args)
    gpu_filter = gpu_spec(args.gpu).key if args.gpu else None
    paper_names = {inst.name for inst in PAPER_INSTANCES}
    admitted = set(admitted_gpu_keys())
    rows = []
    for inst in sorted(all_instances(), key=lambda i: (i.gpu_key, i.num_gpus, i.usd_per_hr)):
        if gpu_filter is not None and inst.gpu_key != gpu_filter:
            continue
        try:
            spot_hr = f"${SPOT.instance(inst.gpu_key, inst.num_gpus).usd_per_hr:.3f}"
        except CatalogError:
            spot_hr = "-"  # admitted GPUs have no spot-ratio snapshot
        rows.append(
            [
                inst.name, f"{inst.num_gpus}x {inst.gpu_key}", inst.family,
                f"${inst.usd_per_hr:.3f}",
                f"${inst.usd_per_hr / inst.num_gpus:.3f}",
                spot_hr,
                "admitted" if inst.gpu_key in admitted
                else "paper" if inst.name in paper_names else "",
            ]
        )
    if not rows:
        raise ReproError(f"no catalog instance carries GPU {args.gpu!r}")
    print(
        format_table(
            ["instance", "GPUs", "family", "on-demand/hr", "per-GPU/hr",
             "spot/hr", ""],
            rows,
            title="AWS GPU instance catalog",
        ),
        file=out,
    )
    n_configs = len(candidate_instances())
    print(
        f"\n{len(rows)} instance type(s); a full sweep prices {n_configs} "
        f"(GPU model, count) configurations per pricing tier "
        f"(spot rate shown for the instance's cheapest exact/proxy host)",
        file=out,
    )
    return 0


def _cmd_catalog_admit(args, out) -> int:
    import json
    from dataclasses import fields
    from pathlib import Path

    from repro.hardware.gpus import GpuSpec

    try:
        data = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReproError(f"cannot read GPU spec {args.spec!r}: {exc}")
    except ValueError as exc:
        raise ReproError(f"GPU spec {args.spec!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ReproError(f"GPU spec {args.spec!r} must be a JSON object")
    expected = {f.name for f in fields(GpuSpec)}
    missing = sorted(expected - set(data))
    extra = sorted(set(data) - expected)
    if missing or extra:
        raise ReproError(
            f"GPU spec {args.spec!r} has wrong fields: "
            f"missing {missing or 'none'}, unexpected {extra or 'none'}"
        )
    spec = GpuSpec(**data)
    workspace = _resolve_workspace(args)
    workspace.load_admitted_gpus()
    workspace.admit_gpu(
        spec, usd_per_hr=args.usd_per_hr, max_gpus=args.max_gpus,
        replace=args.replace, spot_ratio=args.spot_ratio,
    )
    spot_note = (
        f", spot at {args.spot_ratio:.2f}x On-Demand"
        if args.spot_ratio is not None else ""
    )
    print(
        f"admitted {spec.key} ({spec.marketing_name}) at "
        f"${args.usd_per_hr:.3f}/hr per GPU, up to {args.max_gpus} GPUs"
        f"{spot_note}",
        file=out,
    )
    print(
        f"recorded in {workspace.admitted_gpus_path}; predict with a "
        f"transfer-backend estimator: repro predict --gpu {spec.key} ...",
        file=out,
    )
    return 0


def _cmd_figures(args, out) -> int:
    from repro import experiments

    available = {
        "fig2": experiments.run_fig2, "fig3": experiments.run_fig3,
        "fig4": experiments.run_fig4, "fig5": experiments.run_fig5,
        "fig6": experiments.run_fig6, "fig7": experiments.run_fig7,
        "fig8": experiments.run_fig8, "fig9": experiments.run_fig9,
        "fig10": experiments.run_fig10, "fig11": experiments.run_fig11,
        "fig12": experiments.run_fig12, "ablations": experiments.run_ablations,
        "spot_dynamics": experiments.run_spot_dynamics,
    }
    names = list(available) if "all" in args.names else args.names
    unknown = [n for n in names if n not in available]
    if unknown:
        raise ReproError(
            f"unknown figures {unknown}; available: {', '.join(available)}, all"
        )
    workspace = _resolve_workspace(args)
    # Install the chosen workspace process-wide so every driver (and the
    # helpers in experiments.common) resolves artifacts from it.
    previous = set_active_workspace(workspace)
    try:
        if args.jobs is not None and len(names) > 1:
            # Render every figure into the workspace in parallel first;
            # the assembly loop below then reads back pure cache hits, so
            # the report's content and order match a serial run exactly.
            from repro.parallel import FigureTask, run_fanout

            run_fanout(
                [
                    FigureTask(
                        name=name, n_iterations=args.iterations,
                        workspace_dir=str(workspace.directory),
                    )
                    for name in names
                ],
                jobs=args.jobs,
            )
        sections = []
        for name in names:
            rendered = workspace.figure(
                name, args.iterations,
                lambda runner=available[name]:
                    runner(n_iterations=args.iterations).render(),
            )
            section = f"{'=' * 72}\n{name}\n{'=' * 72}\n{rendered}"
            print(f"\n{section}", file=out)
            sections.append(section)
    finally:
        set_active_workspace(previous)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text("\n\n".join(sections) + "\n")
        print(f"\nreport written to {args.output}", file=out)
    if args.counters_out:
        import json
        from pathlib import Path

        Path(args.counters_out).write_text(
            json.dumps(workspace.counters_to_json(), indent=2) + "\n"
        )
        print(f"workspace counters written to {args.counters_out}", file=out)
    return 0


def _cmd_cache(args, out) -> int:
    import time

    workspace = _resolve_workspace(args)
    store = workspace.store
    if args.cache_command == "list":
        infos = store.entries(getattr(args, "kind", None))
        if not infos:
            print(f"workspace {workspace.directory} is empty", file=out)
            return 0
        now_s = time.time()  # staticcheck: ignore[determinism] — CLI age display, not a model path
        rows = [
            [
                info.kind, info.key, info.size_bytes,
                f"{max(now_s - info.mtime, 0.0):.0f}s",
                info.schema_version if info.schema_version is not None else "?",
            ]
            for info in infos
        ]
        print(
            format_table(
                ["kind", "key", "bytes", "age", "schema"], rows,
                title=f"artifact workspace {workspace.directory}",
            ),
            file=out,
        )
        return 0
    if args.cache_command == "info":
        import json

        infos = store.entries()
        if args.key is None:
            # Per-kind summary. A workspace directory that does not exist
            # yet is simply an empty workspace, not an error: entries()
            # returns nothing and this prints zeros and exits 0.
            per_kind = {}
            for info in infos:
                count, size_bytes = per_kind.get(info.kind, (0, 0))
                per_kind[info.kind] = (count + 1, size_bytes + info.size_bytes)
            rows = [
                [kind, count, size_bytes]
                for kind, (count, size_bytes) in sorted(per_kind.items())
            ]
            total_bytes = sum(size for _, _, size in rows)
            print(
                format_table(
                    ["kind", "artifacts", "bytes"], rows,
                    title=f"artifact workspace {workspace.directory}",
                ),
                file=out,
            )
            print(f"total: {len(infos)} artifact(s), {total_bytes} bytes",
                  file=out)
            return 0
        matches = [i for i in infos if i.key == args.key]
        if not matches:
            raise ReproError(f"no artifact with key {args.key!r} in "
                             f"{workspace.directory}")
        for info in matches:
            print(f"kind:     {info.kind}", file=out)
            print(f"key:      {info.key}", file=out)
            print(f"path:     {info.path}", file=out)
            print(f"size:     {info.size_bytes} bytes", file=out)
            print(f"schema:   {info.schema_version}", file=out)
            print(f"spec:     {json.dumps(info.spec, sort_keys=True)}", file=out)
        return 0
    if args.cache_command == "clear":
        removed = store.clear(getattr(args, "kind", None))
        print(f"removed {removed} artifact(s) from {workspace.directory}",
              file=out)
        return 0
    # "key": the canonical training-profile fingerprint, so CI can key its
    # workspace cache on it.
    print(store.key_for(kinds.PROFILE, _canonical_profile_spec(args.iterations)),
          file=out)
    return 0


def _canonical_profile_spec(iterations: int) -> dict:
    """The canonical training-profile spec: everything that invalidates
    profiles (models, GPUs, iteration count, batch, seed scheme) and
    nothing else — kept as a dedicated pure builder so the
    fingerprint-purity check holds it to the no-clocks/no-env contract.
    """
    from repro.hardware.gpus import GPU_KEYS
    from repro.models.zoo import TRAIN_MODELS

    return {
        "models": sorted(TRAIN_MODELS),
        "gpus": sorted(GPU_KEYS),
        "iterations": iterations,
        "batch": 32,
        "seed": "",
    }


def _cmd_serve(args, out) -> int:
    import asyncio

    from repro.models.zoo import model_names
    from repro.serve.app import ServeApp, ServeState
    from repro.serve.http import serve_forever

    _load_admitted(args)  # admitted spec-only GPUs join the served catalog
    models = None
    if args.models:
        models = tuple(m.strip() for m in args.models.split(",") if m.strip())
        unknown = sorted(set(models) - set(model_names()))
        if unknown:
            raise ReproError(
                f"unknown model(s) {unknown}; available: "
                f"{', '.join(sorted(model_names()))}"
            )
    batches = (
        _parse_batches(args.warm_batches, "--warm-batches")
        if args.warm_batches else (DEFAULT_BATCH,)
    )
    if any(b < 1 for b in batches):
        raise ReproError(f"--warm-batches values must be >= 1, got {batches}")
    if args.cache_size < 1:
        raise ReproError(f"--cache-size must be >= 1, got {args.cache_size}")
    state = ServeState(
        args.estimator,
        cache_size=args.cache_size,
        warm=not args.no_warm,
        models=models,
        batch_sizes=batches,
        spot_seed=args.spot_seed,
    )
    snapshot = state.holder.current
    if snapshot.warm_report is not None:
        report = snapshot.warm_report
        print(
            f"warmed {len(report.models)} model(s) x "
            f"{len(report.batch_sizes)} batch size(s): "
            f"{report.candidates} candidates pre-priced",
            file=out,
        )

    def ready(server) -> None:
        print(
            f"serving {args.estimator} (generation {snapshot.generation}, "
            f"backend {snapshot.backend}) on "
            f"http://{args.host}:{server.bound_port}",
            file=out,
        )
        print(
            "endpoints: GET /healthz /metrics; POST /predict /recommend "
            "/pareto /spot/tick /admin/reload  (SIGHUP reloads, "
            "SIGTERM stops)",
            file=out,
        )
        out.flush()

    try:
        asyncio.run(
            serve_forever(ServeApp(state), host=args.host, port=args.port,
                          ready=ready)
        )
    except KeyboardInterrupt:
        pass
    finally:
        state.close()
    print("server stopped", file=out)
    return 0


def _cmd_check(args, out) -> int:
    from repro.staticcheck.cli import run_check

    return run_check(args, prog="repro check", out=out)


_COMMANDS = {
    "models": _cmd_models,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "recommend": _cmd_recommend,
    "tradeoff": _cmd_tradeoff,
    "catalog": _cmd_catalog,
    "figures": _cmd_figures,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "check": _cmd_check,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    global _last_workspace
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    trace_out = args.trace_out or os.environ.get(TRACE_ENV)
    metrics_out = args.metrics_out or os.environ.get(METRICS_ENV)
    _last_workspace = None
    tracer = enable_tracing() if trace_out else None
    try:
        with span(f"cli.{args.command}"):
            code = _COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {error_message(exc, args)}", file=sys.stderr)
        code = 2
    finally:
        if tracer is not None:
            disable_tracing()
    if tracer is not None and trace_out:
        write_trace(trace_out, tracer)
        print(f"trace written to {trace_out}", file=out)
    if metrics_out:
        registries = [default_registry()]
        if _last_workspace is not None:
            registries.append(_last_workspace.metrics)
        write_metrics(metrics_out, *registries)
        print(f"metrics written to {metrics_out}", file=out)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
