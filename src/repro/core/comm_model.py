"""The communication-overhead model S_GPU(CNN) (paper, Section IV-C).

For every (GPU model, GPU count k) pair, Ceer fits a simple linear
regression of the per-iteration communication overhead against the CNN's
*number of model parameters* — the paper's key Fig. 7 finding is that this
relationship is nearly linear (regression R² 0.88-0.98), making the model
CNN-oblivious.

Observations are gathered the way the paper describes:

* k = 1: the CPU<->GPU communication time comes from GPU logs — in our
  simulation, directly from the comm sampler;
* k > 1: "subtracting the average per-iteration training time for 1 GPU
  from the average per-iteration training time for multiple GPUs" (same
  per-GPU batch size), then adding back the measured k=1 overhead so the
  fitted quantity is the total per-iteration overhead of Eq. (2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ModelingError
from repro.graph.graph import OpGraph
from repro.models.zoo import build_model
from repro.hardware.gpus import gpu_spec
from repro.sim.dataparallel import sample_comm_overhead_us
from repro.sim.executor import compute_us
from repro.core.regression import RegressionModel, fit_regression


@dataclass(frozen=True)
class CommObservation:
    """One measured per-iteration communication overhead."""

    model: str
    gpu_key: str
    num_gpus: int
    num_parameters: int
    overhead_us: float


def collect_comm_observations(
    models: Sequence[Union[str, OpGraph]],
    gpu_keys: Sequence[str],
    gpu_counts: Sequence[int] = (1, 2, 3, 4),
    n_iterations: int = 300,
    batch_size: int = 32,
    seed_context: str = "",
    placement: str = "single-host",
) -> List[CommObservation]:
    """Measure communication overheads for every (model, GPU, k) triple.

    ``placement`` selects the GPU topology the overheads are measured on
    (Section VI: a multi-host deployment needs a retrained comm model).
    """
    observations: List[CommObservation] = []
    for model in models:
        graph = (
            build_model(model, batch_size=batch_size)
            if isinstance(model, str)
            else model
        )
        for gpu_key in gpu_keys:
            # The compute term cancels below but is kept for its rounding.
            compute_1 = compute_us(graph, gpu_key, n_iterations, seed_context)
            comm_1 = float(
                sample_comm_overhead_us(
                    gpu_key, 1, graph.num_parameters, n_iterations, seed_context,
                    num_variables=graph.num_variables, placement=placement,
                ).mean()
            )
            per_iter_1 = compute_1 + comm_1
            for k in gpu_counts:
                if k == 1:
                    overhead_us = comm_1
                else:
                    comm_k = float(
                        sample_comm_overhead_us(
                            gpu_key, k, graph.num_parameters, n_iterations,
                            seed_context, num_variables=graph.num_variables,
                            placement=placement,
                        ).mean()
                    )
                    per_iter_k = compute_1 + comm_k
                    overhead_us = (per_iter_k - per_iter_1) + comm_1
                observations.append(
                    CommObservation(
                        model=graph.name,
                        gpu_key=gpu_spec(gpu_key).key,
                        num_gpus=k,
                        num_parameters=graph.num_parameters,
                        overhead_us=overhead_us,
                    )
                )
    return observations


@dataclass
class CommunicationModel:
    """Fitted S_GPU(params; k) linear models, one per (GPU model, k)."""

    models: Dict[Tuple[str, int], RegressionModel]
    r2: Dict[Tuple[str, int], float] = field(default_factory=dict)

    def predict_us(self, gpu_key: str, num_gpus: int, num_parameters: int) -> float:
        """Per-iteration communication overhead estimate (microseconds)."""
        key = (gpu_key, num_gpus)
        model = self.models.get(key)
        if model is None:
            # Extrapolate beyond fitted k by scaling the largest fitted k's
            # per-parameter slope linearly — communication volume grows
            # roughly linearly with GPU count past the fitted range.
            fitted_ks = sorted(k for g, k in self.models if g == gpu_key)
            if not fitted_ks:
                from repro.hardware.gpus import gpu_spec, is_runtime_gpu

                if is_runtime_gpu(gpu_key):
                    # Spec prior for runtime-admitted (never-profiled)
                    # GPUs: the admitted GpuSpec carries its own
                    # synchronisation coefficients; the count-growth
                    # factors are the documented single-host topology
                    # law shared with the simulator. Built-in GPUs keep
                    # the fitted-or-error semantics unchanged.
                    from repro.sim.dataparallel import h_factor, k_factor

                    spec = gpu_spec(gpu_key)
                    return float(
                        spec.comm_base_us * h_factor(num_gpus)
                        + spec.comm_us_per_mparam * k_factor(num_gpus)
                        * (num_parameters / 1e6)
                    )
                raise ModelingError(
                    f"no communication model for GPU {gpu_key!r}; "
                    f"fit with observations for this GPU first"
                )
            k_max = fitted_ks[-1]
            base = self.models[(gpu_key, k_max)]
            scale = num_gpus / k_max
            return float(
                base.intercept + scale * (
                    base.predict_one([num_parameters / 1e6]) - base.intercept
                )
            )
        return model.predict_one([num_parameters / 1e6])

    def fitted_configs(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted(self.models))


def fit_comm_model(observations: Sequence[CommObservation]) -> CommunicationModel:
    """Fit per-(GPU, k) linear regressions of overhead vs parameter count."""
    if not observations:
        raise ModelingError("cannot fit a communication model with no observations")
    grouped: Dict[Tuple[str, int], List[CommObservation]] = {}
    for obs in observations:
        grouped.setdefault((obs.gpu_key, obs.num_gpus), []).append(obs)

    models: Dict[Tuple[str, int], RegressionModel] = {}
    r2: Dict[Tuple[str, int], float] = {}
    for key, group in grouped.items():
        if len(group) < 3:
            raise ModelingError(
                f"need >= 3 CNNs to fit the communication model for {key}, "
                f"got {len(group)}"
            )
        x = np.asarray([[o.num_parameters / 1e6] for o in group])
        y = np.asarray([o.overhead_us for o in group])
        models[key] = fit_regression(x, y, ("mparams",), allow_quadratic=False)
        r2[key] = models[key].r2
    return CommunicationModel(models=models, r2=r2)
