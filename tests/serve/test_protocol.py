"""Request schemas: strict parsing and canonical fingerprints."""

import pytest

from repro.core.recommend import MinimizeCost
from repro.errors import RequestError
from repro.serve.protocol import (
    DEFAULT_SAMPLES,
    parse_pareto,
    parse_predict,
    parse_recommend,
)


class TestParsePredict:
    def test_minimal_request_fills_defaults(self):
        req = parse_predict({"model": "alexnet", "gpu": "V100"})
        assert req.model == "alexnet"
        assert req.gpu == "V100"
        assert req.gpus == 1
        assert req.batch == 32
        assert req.samples == DEFAULT_SAMPLES
        assert req.epochs == 1
        assert req.pricing == "on-demand"

    def test_non_object_body_rejected(self):
        with pytest.raises(RequestError, match="JSON object"):
            parse_predict([1, 2, 3])

    def test_missing_required_field_rejected(self):
        with pytest.raises(RequestError, match="model"):
            parse_predict({"gpu": "V100"})

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(RequestError, match="batchsize"):
            parse_predict({"model": "alexnet", "gpu": "V100", "batchsize": 64})

    def test_bool_is_not_an_int(self):
        # JSON has no bool/int pun, but Python does; the parser must not.
        with pytest.raises(RequestError, match="batch"):
            parse_predict({"model": "alexnet", "gpu": "V100", "batch": True})

    def test_unknown_pricing_rejected(self):
        with pytest.raises(RequestError, match="pricing"):
            parse_predict({"model": "alexnet", "gpu": "V100",
                           "pricing": "free-tier"})


class TestParseRecommend:
    def test_defaults_to_min_cost(self):
        req = parse_recommend({"model": "resnet_50"})
        assert req.objective is None  # not given
        assert req.objective_instance() == MinimizeCost()
        assert req.spec()["objective"] == "min-cost"
        assert req.budget is None

    def test_budget_objectives_require_budget(self):
        with pytest.raises(RequestError, match="budget"):
            parse_recommend({"model": "resnet_50",
                             "objective": "hourly-budget"})
        req = parse_recommend({"model": "resnet_50",
                               "objective": "hourly-budget",
                               "budget": 3.0, "slack": 0.42})
        assert req.budget == 3.0
        assert req.slack == 0.42

    def test_unknown_objective_rejected(self):
        with pytest.raises(RequestError, match="objective"):
            parse_recommend({"model": "resnet_50", "objective": "fastest"})


class TestParsePareto:
    def test_batches_default_and_explicit(self):
        assert parse_pareto({"model": "alexnet"}).batches == (32,)
        req = parse_pareto({"model": "alexnet", "batches": [16, 32, 64]})
        assert req.batches == (16, 32, 64)

    def test_bad_batches_rejected(self):
        for bad in ([], [0], [32, 32], ["32"], [True], "32"):
            with pytest.raises(RequestError, match="batches"):
                parse_pareto({"model": "alexnet", "batches": bad})


class TestFingerprints:
    def test_identical_requests_share_a_fingerprint(self):
        a = parse_predict({"model": "alexnet", "gpu": "V100", "batch": 64})
        b = parse_predict({"batch": 64, "gpu": "V100", "model": "alexnet"})
        assert a.fingerprint() == b.fingerprint()

    def test_every_field_is_load_bearing(self):
        base = {"model": "alexnet", "gpu": "V100"}
        baseline = parse_predict(base).fingerprint()
        for delta in ({"gpus": 2}, {"batch": 64}, {"samples": 1000},
                      {"epochs": 2}, {"pricing": "spot"}):
            changed = parse_predict({**base, **delta}).fingerprint()
            assert changed != baseline, delta

    def test_endpoints_never_alias(self):
        # Same model, same defaults — still three distinct cache keys.
        fps = {
            parse_predict({"model": "alexnet", "gpu": "V100"}).fingerprint(),
            parse_recommend({"model": "alexnet"}).fingerprint(),
            parse_pareto({"model": "alexnet"}).fingerprint(),
        }
        assert len(fps) == 3

    def test_explicit_defaults_match_implicit(self):
        implicit = parse_recommend({"model": "vgg_16"})
        explicit = parse_recommend({"model": "vgg_16",
                                    "objective": "min-cost",
                                    "batch": 32, "epochs": 1,
                                    "pricing": "on-demand"})
        assert implicit.fingerprint() == explicit.fingerprint()
