"""Single-device execution simulator.

"Runs" N training iterations of an op graph on one simulated device and
returns per-op timing statistics — the equivalent of profiling a TensorFlow
training loop with the timeline profiler, which is how the paper gathers
its measurements (Section III: "compute times ... averaged over 1,000
iterations").

The simulation is vectorised per op: one RNG draw of N samples per
operation, so profiling a 2,500-op graph for 1,000 iterations costs a few
thousand numpy calls, not millions of Python-level events. The samples are
stacked into one (ops x iterations) matrix and reduced once per statistic.

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
from repro.hardware.gpus import gpu_spec
from repro.hardware.kernel_model import sample_op_times_us
from repro.obs.metrics import default_registry
from repro.sim.trace import IterationProfile, OpTiming

#: Row of the mean in a cell's (5, n_ops) statistics matrix, whose rows
#: are mean, std (ddof=1), median, min and max.
MEAN = 0

#: Cells the per-process memo keeps, least recently used evicted first. A
#: cell is 40 bytes per op (~40 KB for inception_v3), and the whole figure
#: suite touches well under this many.
MEMO_CELLS = 256

_memo: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()
_memo_lock = threading.Lock()


def _simulate(graph: OpGraph, key: str, n_iterations: int,
              seed_context: str) -> np.ndarray:
    """Draw every op's samples (one RNG stream per op) and reduce them."""
    ops = graph.operations
    samples = np.empty((len(ops), n_iterations))
    for row, op in enumerate(ops):
        samples[row] = sample_op_times_us(op, key, n_iterations, seed_context)
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
    ops = graph.operations
    gpu = sum(m for m, op in zip(means, ops) if op.device is Device.GPU)
    cpu = sum(m for m, op in zip(means, ops) if op.device is Device.CPU)
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
    return IterationProfile(
        model=graph.name,
        gpu_key=key,
        batch_size=graph.batch_size,
        n_iterations=n_iterations,
        num_parameters=graph.num_parameters,
        timings=tuple(
            OpTiming(op.name, op.op_type, op.device.value, key, op.input_bytes,
                     op.output_bytes, n_iterations, *column)
            for op, column in zip(graph.operations, stats.T.tolist())
        ),
    )
