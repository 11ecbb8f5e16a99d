"""Ground-truth kernel-time law for the simulated GPUs and host CPU.

This module is the reproduction's stand-in for physical hardware: given an
operation (with resolved shapes) and a device, it produces the
*deterministic base* compute time; :func:`sample_op_times_us` then adds the
measurement noise from :mod:`repro.hardware.noise`.

The law is a classic roofline with per-(GPU, category) achieved
efficiencies::

    t = launch_overhead
        + max(flops / achieved_gflops, bytes / achieved_bandwidth)
        * op_tweak * quadratic_factor

plus a mild superlinear term for the ops the paper found to need quadratic
regression fits (Conv2DBackpropFilter; Section IV-B). Host (CPU) ops use a
separate bandwidth + overhead model.

:func:`sample_cell_times_us` is the same law over a graph's
:class:`~repro.graph.table.OpTable`: every op of a cell at once, equal
float for float to :func:`sample_op_times_us` per op, which stays as the
reference.

Nothing in :mod:`repro.core` (Ceer) imports this module: Ceer only ever
sees sampled measurements, never the law that generated them.
"""

from __future__ import annotations

import numpy as np

from repro.graph.flops import flop_count, memory_bytes
from repro.graph.ops import Device, OpCategory, Operation
from repro.graph.table import CATEGORIES, DEVICES, OpTable
from repro.hardware.calibration import (
    QUADRATIC_OP_TYPES,
    QUADRATIC_SCALE_BYTES,
    efficiency,
    op_tweak,
)
from repro.hardware.gpus import HOST_CPU, CpuSpec, GpuSpec, gpu_spec
from repro.hardware.noise import (
    first_randoms,
    lognormal_rows,
    noise_sigma,
    rng_for,
    sample_lognormal_times_us,
    seed_for,
)


def host_base_time_us(op: Operation, cpu: CpuSpec = HOST_CPU) -> float:
    """Deterministic base time for a CPU-pinned op.

    Host ops are bookkeeping-dominated; data-bearing ops (decode, batch
    fetch) additionally pay an effective-bandwidth cost on the larger of
    their input/output footprints (prefetching hides most of the raw work,
    which is why the effective bandwidth is generous).
    """
    data = max(op.input_bytes, op.output_bytes)
    return cpu.overhead_us + data / (cpu.effective_bandwidth_gbps * 1e3)


def utilization(op: Operation, gpu: GpuSpec) -> float:
    """Occupancy factor in (0, 1]: fraction of the achievable rate realised.

    A kernel only saturates a GPU when it offers enough parallel work.
    We measure parallelism as output elements (~CUDA threads) and apply the
    standard latency-throughput interpolation ``p / (p + p_half)``, where
    ``p_half`` (:attr:`GpuSpec.saturation_elements`) is the half-saturation
    point. Wide chips (V100) have a much higher ``p_half`` than narrow ones
    (T4), which is why small-kernel networks like AlexNet close much of the
    nominal performance gap on real hardware — the effect behind the
    paper's Fig. 9 finding that 3x G4 beats 1x P3 for AlexNet/ResNet-101.
    """
    parallelism = max(
        sum(s.num_elements for s in op.inputs),
        sum(s.num_elements for s in op.outputs),
    )
    return parallelism / (parallelism + gpu.saturation_elements)


#: Spread of the per-instance heterogeneity factor (see below).
_INSTANCE_SPREAD = 0.10


def instance_factor(op: Operation, gpu_key: str) -> float:
    """Stable per-(op instance, GPU) heterogeneity factor in [0.9, 1.1].

    Two instances of the same op type with identical sizes still differ on
    real hardware — cache residency, kernel-algorithm selection (cuDNN
    picks per-shape algorithms), and memory layout all vary per call site.
    The factor is a deterministic function of the op's name and the GPU,
    *constant across iterations*: it shifts an instance's mean without
    adding iteration-to-iteration variance, which is exactly the scatter
    visible around the paper's Fig. 4 regression lines (and the reason its
    heavy-op R² values are 0.84-0.98 rather than 1.0).
    """
    rng = rng_for("instance", gpu_key, op.name)
    return 1.0 + _INSTANCE_SPREAD * (2.0 * rng.random() - 1.0)


def gpu_base_time_us(op: Operation, gpu: GpuSpec) -> float:
    """Deterministic base time for a GPU op under the roofline law."""
    compute_eff, memory_eff = efficiency(gpu.key, op.category)
    flops = flop_count(op)
    bytes_moved = memory_bytes(op)
    compute_us = flops / (gpu.peak_gflops * compute_eff * 1e3)
    memory_us = bytes_moved / (gpu.memory_bandwidth_gbps * memory_eff * 1e3)
    t = gpu.launch_overhead_us + max(compute_us, memory_us) / utilization(op, gpu)
    t *= op_tweak(op.op_type, gpu.key)
    t *= instance_factor(op, gpu.key)
    if op.op_type in QUADRATIC_OP_TYPES:
        t *= 1.0 + op.input_bytes / QUADRATIC_SCALE_BYTES
    return t


def base_time_us(op: Operation, device_key: str) -> float:
    """Dispatch to the GPU or host law based on the op's placement.

    ``device_key`` identifies the GPU model the graph is running on; CPU
    ops ignore it (the host is the same across instance families).
    """
    if op.device is Device.CPU or op.category is OpCategory.HOST:
        return host_base_time_us(op)
    return gpu_base_time_us(op, gpu_spec(device_key))


def sample_op_times_us(
    op: Operation,
    device_key: str,
    n_samples: int,
    seed_context: str = "",
) -> np.ndarray:
    """Simulate ``n_samples`` measured compute times (microseconds) for one op.

    Sampling is vectorised (one RNG call per op) and deterministic: the
    stream is keyed by (device, op name, op type, context), so repeated
    profiling runs of the same graph reproduce identical traces unless the
    caller varies ``seed_context`` (e.g. per training run).
    """
    base = base_time_us(op, device_key)
    sigma = noise_sigma(op.op_type)
    rng = rng_for(device_key, op.name, op.op_type, seed_context)
    return sample_lognormal_times_us(base, sigma, n_samples, rng)


def host_base_times_us(
    table: OpTable, rows: np.ndarray, cpu: CpuSpec = HOST_CPU
) -> np.ndarray:
    """:func:`host_base_time_us` of the table's ``rows``, as a column."""
    data = np.maximum(table.input_bytes[rows], table.output_bytes[rows])
    return cpu.overhead_us + data / (cpu.effective_bandwidth_gbps * 1e3)


def gpu_base_times_us(table: OpTable, rows: np.ndarray, gpu: GpuSpec) -> np.ndarray:
    """:func:`gpu_base_time_us` of the table's ``rows``: the roofline as
    columns.

    Only IEEE +, -, *, / and max run over the columns, in the per-op
    order, so every entry equals the per-op float. A factor the per-op law
    skips (no quadratic term) is a multiplication by exactly 1.0.
    """
    category = table.category[rows]
    compute_eff = np.zeros(len(CATEGORIES))
    memory_eff = np.zeros(len(CATEGORIES))
    for code in np.unique(category).tolist():
        compute_eff[code], memory_eff[code] = efficiency(gpu.key, CATEGORIES[code])
    compute_us = table.flops[rows] / (gpu.peak_gflops * compute_eff[category] * 1e3)
    memory_us = table.memory_bytes[rows] / (
        gpu.memory_bandwidth_gbps * memory_eff[category] * 1e3
    )
    parallelism = np.maximum(
        table.input_elements[rows], table.output_elements[rows]
    ).astype(float)
    utilization = parallelism / (parallelism + gpu.saturation_elements)
    t = gpu.launch_overhead_us + np.maximum(compute_us, memory_us) / utilization
    t *= table.per_type([op_tweak(name, gpu.key) for name in table.type_names])[rows]
    first = first_randoms(
        [seed_for("instance", gpu.key, table.names[row]) for row in rows.tolist()]
    )
    t *= 1.0 + _INSTANCE_SPREAD * (2.0 * first - 1.0)
    quadratic = table.per_type(
        [name in QUADRATIC_OP_TYPES for name in table.type_names]
    )[rows]
    t *= np.where(
        quadratic, 1.0 + table.input_bytes[rows] / QUADRATIC_SCALE_BYTES, 1.0
    )
    return t


def sample_cell_times_us(
    table: OpTable,
    device_key: str,
    n_samples: int,
    seed_context: str = "",
) -> np.ndarray:
    """:func:`sample_op_times_us` for every op of a table, bit for bit.

    Returns an (ops x ``n_samples``) matrix, rows in table order: the
    same base times, sigmas and streams, seeded in one batch.
    """
    on_host = (
        (table.device == DEVICES.index(Device.CPU))
        | (table.category == CATEGORIES.index(OpCategory.HOST))
    )
    base = np.empty(len(table))
    host_rows = np.flatnonzero(on_host)
    gpu_rows = np.flatnonzero(~on_host)
    base[host_rows] = host_base_times_us(table, host_rows)
    if gpu_rows.size:
        base[gpu_rows] = gpu_base_times_us(table, gpu_rows, gpu_spec(device_key))
    sigma = table.per_type([noise_sigma(name) for name in table.type_names])
    seeds = [
        seed_for(device_key, name, op_type, seed_context)
        for name, op_type in zip(table.names, table.op_types)
    ]
    return lognormal_rows(base, sigma, seeds, n_samples)
