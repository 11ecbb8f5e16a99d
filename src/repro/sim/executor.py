"""Single-device execution simulator.

"Runs" N training iterations of an op graph on one simulated device and
returns per-op timing statistics — the equivalent of profiling a TensorFlow
training loop with the timeline profiler, which is how the paper gathers
its measurements (Section III: "compute times ... averaged over 1,000
iterations").

A cell is simulated as columns: the roofline runs over the graph's cached
:class:`~repro.graph.table.OpTable`, every op's random streams are seeded
in one batch, and each op's N samples are one draw on a reused Generator
(:func:`repro.hardware.kernel_model.sample_cell_times_us`). Profiling a
2,500-op graph for 1,000 iterations thus costs a few numpy calls per op,
not millions of Python-level events. The samples form one (ops x
iterations) matrix, reduced once per statistic; each statistic equals
the per-op reference (:func:`~repro.hardware.kernel_model.sample_op_times_us`
then five reductions) bit for bit.

Like the paper's harness, each cell — one (graph content, GPU spec,
iteration count, seed context) — is measured once per process: every
consumer (profiler, comm collection, ground-truth training runs) reads
the same memoised statistics columns.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Tuple

import numpy as np

from repro.errors import ProfilingError
from repro.graph.graph import OpGraph
from repro.graph.ops import Device
from repro.graph.table import DEVICES
from repro.hardware.gpus import gpu_spec
from repro.hardware.kernel_model import sample_cell_times_us
from repro.obs.metrics import default_registry
from repro.sim.trace import IterationProfile, OpTiming

#: Rows of the mean, std (ddof=1) and median in a cell's (5, n_ops)
#: statistics matrix, whose rows are mean, std, median, min and max.
MEAN, STD, MEDIAN = 0, 1, 2

#: Cells the per-process memo keeps, least recently used evicted first. A
#: cell is 40 bytes per op (~40 KB for inception_v3), and the whole figure
#: suite touches well under this many.
MEMO_CELLS = 256

_memo: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()
_memo_lock = threading.Lock()


def _simulate(graph: OpGraph, key: str, n_iterations: int,
              seed_context: str) -> np.ndarray:
    """Draw every op's samples (one RNG stream per op) and reduce them."""
    samples = sample_cell_times_us(
        graph.op_table(), key, n_iterations, seed_context
    )
    stats = np.stack([
        samples.mean(axis=1),
        samples.std(axis=1, ddof=1),
        np.median(samples, axis=1),
        samples.min(axis=1),
        samples.max(axis=1),
    ])
    stats.flags.writeable = False
    return stats


def cell_stats(
    graph: OpGraph,
    gpu_key: str,
    n_iterations: int,
    seed_context: str = "",
) -> Tuple[str, np.ndarray]:
    """One cell's per-op statistics, simulated at most once per process.

    The cell is keyed on the graph's content (extension graphs reuse zoo
    names), the GPU's full spec (a re-admitted spec is a new device), the
    iteration count and the seed context.

    Returns:
        The normalised GPU key and a read-only (5, n_ops) matrix: rows
        mean, std (ddof=1), median, min and max; columns in
        ``graph.operations`` order.
    """
    if n_iterations < 2:
        raise ProfilingError(
            f"need >= 2 iterations for timing statistics, got {n_iterations}"
        )
    spec = gpu_spec(gpu_key)  # "P3" -> V100 spec, for stable seeds
    cell = (graph.content_digest(), spec, n_iterations, seed_context)
    with _memo_lock:
        stats = _memo.get(cell)
        if stats is not None:
            _memo.move_to_end(cell)
    default_registry().counter(
        "sim.cells", result="miss" if stats is None else "hit"
    ).inc()
    if stats is None:
        stats = _simulate(graph, spec.key, n_iterations, seed_context)
        with _memo_lock:
            _memo[cell] = stats
            while len(_memo) > MEMO_CELLS:
                _memo.popitem(last=False)
    return spec.key, stats


def compute_us(
    graph: OpGraph,
    gpu_key: str,
    n_iterations: int,
    seed_context: str = "",
) -> float:
    """Mean per-iteration compute time of one cell.

    Bit-identical to :attr:`IterationProfile.compute_us`: the same builtin
    sum over the same floats in the same order (GPU ops, then CPU ops).
    """
    means = cell_stats(graph, gpu_key, n_iterations, seed_context)[1][MEAN].tolist()
    devices = [DEVICES[code] for code in graph.op_table().device.tolist()]
    gpu = sum(m for m, device in zip(means, devices) if device is Device.GPU)
    cpu = sum(m for m, device in zip(means, devices) if device is Device.CPU)
    return gpu + cpu


def run_iterations(
    graph: OpGraph,
    gpu_key: str,
    n_iterations: int = 1000,
    seed_context: str = "",
) -> IterationProfile:
    """Simulate ``n_iterations`` training iterations of ``graph`` on a device.

    Args:
        graph: a finalized training op-graph (forward + backward + updates).
        gpu_key: GPU model key (``"V100"``) or AWS family (``"P3"``).
        n_iterations: how many iterations to measure; the paper uses 1,000.
        seed_context: extra seeding context; vary it to simulate an
            independent re-run of the same configuration.

    Returns:
        An :class:`IterationProfile` with one :class:`OpTiming` per op.
    """
    key, stats = cell_stats(graph, gpu_key, n_iterations, seed_context)
    table = graph.op_table()
    return IterationProfile(
        model=graph.name,
        gpu_key=key,
        batch_size=graph.batch_size,
        n_iterations=n_iterations,
        num_parameters=graph.num_parameters,
        timings=tuple(
            OpTiming(name, op_type, DEVICES[device].value, key, input_bytes,
                     output_bytes, n_iterations, *column)
            for name, op_type, device, input_bytes, output_bytes, column in zip(
                table.names, table.op_types, table.device.tolist(),
                table.input_bytes.tolist(), table.output_bytes.tolist(),
                stats.T.tolist(),
            )
        ),
    )
