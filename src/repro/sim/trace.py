"""Timing records produced by the execution simulator.

These mirror what TensorFlow's profiler emits on real hardware: per-op
compute-time statistics over many training iterations, plus aggregate
per-iteration and whole-training measurements. Everything downstream of the
simulation boundary (profiling, Ceer, experiments) consumes these records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.graph.ops import Device
from repro.units import us_to_hr, usd_per_hr_to_usd


@dataclass(frozen=True)
class OpTiming:
    """Compute-time statistics for one operation over N iterations.

    All times are microseconds. ``normalized_std`` (std/mean) is the
    variability metric of the paper's Fig. 5.
    """

    op_name: str
    op_type: str
    device: str  # "GPU" or "CPU"
    gpu_key: str
    input_bytes: int
    output_bytes: int
    n_samples: int
    mean_us: float
    std_us: float
    median_us: float
    min_us: float
    max_us: float

    @property
    def normalized_std(self) -> float:
        """Standard deviation normalised by the mean (paper, Fig. 5)."""
        return self.std_us / self.mean_us if self.mean_us > 0 else 0.0


@dataclass(frozen=True)
class IterationProfile:
    """Per-op timings for one model on one device over N iterations."""

    model: str
    gpu_key: str
    batch_size: int
    n_iterations: int
    num_parameters: int
    timings: Tuple[OpTiming, ...]

    @property
    def gpu_compute_us(self) -> float:
        """Mean per-iteration GPU compute time (sum of GPU-op means)."""
        return sum(t.mean_us for t in self.timings if t.device == Device.GPU.value)

    @property
    def cpu_compute_us(self) -> float:
        """Mean per-iteration host compute time (sum of CPU-op means)."""
        return sum(t.mean_us for t in self.timings if t.device == Device.CPU.value)

    @property
    def compute_us(self) -> float:
        """Mean per-iteration compute time across all operations."""
        return self.gpu_compute_us + self.cpu_compute_us


@dataclass(frozen=True)
class TrainingMeasurement:
    """An end-to-end "observed" training run on a (possibly multi-GPU) instance.

    Produced by :func:`repro.sim.trainer.measure_training`; this is the
    ground-truth side of every paper evaluation figure (the "observed" bars
    in Figs. 8-12).
    """

    model: str
    gpu_key: str
    num_gpus: int
    instance_name: str
    usd_per_hr: float
    batch_size: int
    compute_us_per_iteration: float
    comm_overhead_us: float
    iterations: float

    @property
    def per_iteration_us(self) -> float:
        """Mean wall-clock time of one training iteration (compute + comm)."""
        return self.compute_us_per_iteration + self.comm_overhead_us

    @property
    def total_us(self) -> float:
        return self.per_iteration_us * self.iterations

    @property
    def total_hours(self) -> float:
        return us_to_hr(self.total_us)

    @property
    def cost_dollars(self) -> float:
        """Rental cost of the run (paper: C = T x instance hourly cost)."""
        return usd_per_hr_to_usd(self.usd_per_hr, self.total_hours)
