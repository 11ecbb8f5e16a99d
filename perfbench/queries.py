"""The seeded "which instance?" queries and their direct library answers."""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Optional, Tuple

MODELS = ("alexnet", "resnet_50", "vgg_16", "inception_v3")
GPUS = ("V100", "K80", "T4", "M60")
#: Every batch size a query sends; the server warms all of them.
BATCHES = (16, 32, 64)
SPOT_SEED = 2020
#: The hot pool is the same for every workload seed, so which queries
#: are popular (and how costly they are) does not vary from run to run;
#: the workload seed draws the request sequence from it.
POOL_SEED = 2020

#: Query mix (counts in the 64-query pool): about 60/30/10
#: predict/recommend/pareto, with some of the recommends in the spot
#: scenario.
POOL_COUNTS = (("predict", 36), ("recommend", 16), ("spot", 6), ("pareto", 6))

#: (kind, path, body, encoded body)
Query = Tuple[str, str, Dict[str, Any], bytes]


def make_query(rng: random.Random, kind: str,
               samples: Optional[int] = None) -> Query:
    model = rng.choice(MODELS)
    batch = rng.choice(BATCHES)
    if kind == "predict":
        body: Dict[str, Any] = {
            "model": model, "gpu": rng.choice(GPUS),
            "gpus": rng.randint(1, 4), "batch": batch,
            "pricing": rng.choice(("on-demand", "spot")),
        }
        path = "/predict"
    elif kind == "recommend":
        body = {"model": model,
                "objective": rng.choice(("min-cost", "min-time")),
                "batch": batch}
        path = "/recommend"
    elif kind == "spot":
        body = {"model": model, "scenario": "spot", "batch": batch,
                "risk_aversion": rng.choice((0.0, 0.5, 2.0))}
        path = "/recommend"
    else:
        body = {"model": model, "batches": [batch]}
        path = "/pareto"
    if samples is not None:
        body["samples"] = samples
    return kind, path, body, json.dumps(body).encode()


class QuerySource:
    """The seeded query stream of one workload.

    ``hot``: a fixed 64-query pool drawn with Zipf(1) popularity, so
    almost every request repeats an earlier one. Otherwise every query is
    distinct: same kinds and shapes, a unique ``samples`` value each.
    """

    def __init__(self, hot: bool, seed: int, stream: str) -> None:
        self.hot = hot
        self.rng = random.Random(f"{stream}:{seed}")
        self._kinds = [kind for kind, count in POOL_COUNTS for _ in range(count)]
        self._next_samples = 600_000
        if hot:
            pool_rng = random.Random(f"pool:{POOL_SEED}")
            self.pool = [make_query(pool_rng, kind) for kind in self._kinds]
            pool_rng.shuffle(self.pool)
            total = 0.0
            self._cumulative: List[float] = []
            for rank in range(len(self.pool)):
                total += 1.0 / (rank + 1)
                self._cumulative.append(total)

    def next(self) -> Query:
        if self.hot:
            return self.rng.choices(self.pool, cum_weights=self._cumulative)[0]
        self._next_samples += 1
        return make_query(self.rng, self.rng.choice(self._kinds),
                          samples=self._next_samples)


class LibraryAnswers:
    """Answers queries with direct library calls on one estimator.

    The documents match the service's response bodies, minus the
    snapshot ``generation`` stamp.
    """

    def __init__(self, estimator: Any) -> None:
        from repro.cloud.spotsim import SpotMarket

        self.estimator = estimator
        self.market = SpotMarket(seed=SPOT_SEED)

    def answer(self, query: Query, spot_generation: int = 0) -> Dict[str, Any]:
        from repro.cloud.pricing import ON_DEMAND, SPOT
        from repro.cloud.spotsim import observe
        from repro.core.batch import SweepPlan, evaluate_sweep
        from repro.core.preempt import DEFAULT_PREEMPTION
        from repro.core.recommend import MinimizeCost, MinimizeTime, Recommender
        from repro.core.rerank import SpotRerankSession
        from repro.serve.protocol import prediction_to_json, recommendation_to_json
        from repro.workloads.dataset import DatasetSpec, TrainingJob

        kind, _, body, _ = query
        estimator = self.estimator
        pricing = {"on-demand": ON_DEMAND, "spot": SPOT}[
            body.get("pricing", "on-demand")]
        batch = body["batches"][0] if kind == "pareto" else body["batch"]
        job = TrainingJob(
            DatasetSpec("serve-dataset",
                        num_samples=body.get("samples", 1_200_000)),
            batch_size=batch, epochs=1)
        if kind == "predict":
            return {"prediction": prediction_to_json(
                estimator.predict_training(body["model"], body["gpu"],
                                           body["gpus"], job, pricing=pricing))}
        if kind == "recommend":
            objective = (MinimizeCost() if body["objective"] == "min-cost"
                         else MinimizeTime())
            return recommendation_to_json(
                Recommender(estimator, pricing=pricing).recommend(
                    body["model"], job, objective))
        if kind == "spot":
            ratios, hazards = observe(self.market, spot_generation)
            ranking = SpotRerankSession.from_estimator(
                estimator, body["model"], job, batch_sizes=(batch,)
            ).rerank(ratios, hazards,
                     risk_aversion_usd_per_hr=body["risk_aversion"],
                     preempt=DEFAULT_PREEMPTION)
            top = ranking.predictions(top=4)
            return {
                "scenario": "spot", "spot_generation": spot_generation,
                "objective": "spot-risk",
                "risk_aversion": body["risk_aversion"],
                "ratios": dict(sorted(ratios.items())),
                "n_candidates": ranking.n_candidates,
                "best": prediction_to_json(ranking.best()),
                "runners_up": [prediction_to_json(p) for p in top[1:]],
            }
        plan = SweepPlan.full_catalog(batch_sizes=tuple(body["batches"]),
                                      pricings=(pricing,))
        result = evaluate_sweep(estimator, body["model"], job, plan)
        return {"model": result.model_name,
                "n_candidates": result.n_candidates,
                "frontier": [prediction_to_json(p) for p in result.frontier()]}
