"""End-to-end simulated training runs ("observed" ground truth).

:func:`measure_training` plays the role of actually renting the AWS
instance and training the model: it simulates per-op compute for the
requested number of profile iterations, adds the data-parallel
communication overhead, scales to the full workload, and prices the run.
Every "observed" bar/dot in the paper's evaluation figures (Figs. 6, 8-12)
comes from this function in our reproduction.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.cloud.catalog import InstanceType
from repro.cloud.pricing import ON_DEMAND, PricingScheme
from repro.graph.graph import OpGraph
from repro.hardware.gpus import gpu_spec
from repro.models.zoo import build_model
from repro.sim.dataparallel import sample_comm_overhead_us
from repro.sim.executor import compute_us
from repro.sim.trace import TrainingMeasurement
from repro.workloads.dataset import TrainingJob


def measure_training(
    model: Union[str, OpGraph],
    gpu_key: str,
    num_gpus: int,
    job: TrainingJob,
    pricing: PricingScheme = ON_DEMAND,
    n_profile_iterations: int = 300,
    seed_context: str = "",
    instance: Optional[InstanceType] = None,
    placement: str = "single-host",
) -> TrainingMeasurement:
    """Simulate training ``model`` on ``num_gpus`` GPUs of type ``gpu_key``.

    Under data parallelism each GPU holds a full model replica and processes
    ``job.batch_size`` samples per iteration, so per-GPU compute time equals
    the single-GPU profile at the same batch size, and each iteration adds
    the synchronisation overhead (paper, Sections III-D and IV-A).

    Args:
        model: zoo model name or an already-built graph (its batch size
            should match ``job.batch_size``).
        gpu_key: GPU model key or AWS family name.
        num_gpus: GPUs used in parallel (k in the paper's Eq. (2)).
        job: workload (dataset size D, per-GPU batch size B, epochs).
        pricing: pricing scheme used to rent the instance.
        n_profile_iterations: iterations to average compute times over.
        seed_context: vary to simulate an independent run.
        instance: override the instance (for custom price points); defaults
            to ``pricing.instance(gpu_key, num_gpus)``.
        placement: ``"single-host"`` (the paper's setting) or
            ``"multi-host"`` (GPUs spread across hosts; Section VI).

    Returns:
        A :class:`TrainingMeasurement` with observed time and cost.
    """
    graph = build_model(model, batch_size=job.batch_size) if isinstance(model, str) else model
    compute = compute_us(graph, gpu_key, n_profile_iterations, seed_context)
    comm = sample_comm_overhead_us(
        gpu_key, num_gpus, graph.num_parameters, n_profile_iterations,
        seed_context, num_variables=graph.num_variables, placement=placement,
    )
    if instance is None:
        instance = pricing.instance(gpu_key, num_gpus)
    return TrainingMeasurement(
        model=graph.name,
        gpu_key=gpu_spec(gpu_key).key,
        num_gpus=num_gpus,
        instance_name=instance.name,
        usd_per_hr=instance.usd_per_hr,
        batch_size=job.batch_size,
        compute_us_per_iteration=compute,
        comm_overhead_us=float(comm.mean()),
        iterations=job.iterations(num_gpus),
    )
