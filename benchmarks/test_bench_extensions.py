"""Benchmarks: extension studies beyond the paper's figures.

Multi-host placement (the paper's Section VI limitation, implemented),
training-set-size sensitivity, and the median-vs-mean estimator choice.
"""

from repro.experiments import (
    run_estimator_choice_study,
    run_multihost_study,
    run_sensitivity_study,
)


def test_bench_multihost_study(benchmark, emit):
    result = benchmark.pedantic(run_multihost_study, rounds=1, iterations=1)
    emit("extension_multihost", result.render())
    retrained = result.multihost_errors["multi-host Ceer (retrained, Section VI)"]
    stale = result.multihost_errors["single-host Ceer (stale comm model)"]
    assert retrained < stale


def test_bench_sensitivity_study(benchmark, emit):
    result = benchmark.pedantic(
        run_sensitivity_study, kwargs={"sizes": (3, 5, 8)}, rounds=1, iterations=1
    )
    emit("extension_sensitivity", result.render())
    assert all(error < 0.20 for _, error in result.by_size.values())


def test_bench_estimator_choice_study(benchmark, emit):
    result = benchmark.pedantic(run_estimator_choice_study, rounds=1, iterations=1)
    emit("extension_estimator_choice", result.render())
    assert set(result.errors) == {"median", "mean"}


def test_bench_batch_size_study(benchmark, emit):
    from repro.experiments import run_batch_size_study

    result = benchmark.pedantic(run_batch_size_study, rounds=1, iterations=1)
    emit("extension_batch_size", result.render())
    assert all(error < 0.12 for error in result.errors.values())

