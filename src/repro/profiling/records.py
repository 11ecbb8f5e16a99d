"""Profile datasets: the measurement records Ceer trains and validates on.

A :class:`ProfileRecord` is one profiled operation instance — op identity,
static size features, and compute-time statistics over N iterations. A
:class:`ProfileDataset` is an immutable collection with the grouping and
filtering operations the modeling pipeline needs. The ``profile`` artifact
kind (:mod:`repro.artifacts.kinds`) stores datasets on disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.sim.trace import OpTiming


@dataclass(frozen=True)
class ProfileRecord:
    """One profiled operation on one GPU model in one CNN."""

    model: str
    gpu_key: str
    op_name: str
    op_type: str
    device: str  # "GPU" or "CPU"
    features: Tuple[float, ...]
    input_bytes: int
    n_samples: int
    mean_us: float
    std_us: float
    median_us: float

    @classmethod
    def from_timing(
        cls, model: str, timing: OpTiming, features: Tuple[float, ...]
    ) -> "ProfileRecord":
        return cls(
            model=model,
            gpu_key=timing.gpu_key,
            op_name=timing.op_name,
            op_type=timing.op_type,
            device=timing.device,
            features=tuple(features),
            input_bytes=timing.input_bytes,
            n_samples=timing.n_samples,
            mean_us=timing.mean_us,
            std_us=timing.std_us,
            median_us=timing.median_us,
        )

    @property
    def normalized_std(self) -> float:
        return self.std_us / self.mean_us if self.mean_us > 0 else 0.0


class ProfileDataset:
    """An immutable collection of :class:`ProfileRecord` with query helpers."""

    def __init__(self, records: Iterable[ProfileRecord]) -> None:
        self._records: Tuple[ProfileRecord, ...] = tuple(records)

    # -- basic container protocol -----------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ProfileRecord]:
        return iter(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    @property
    def records(self) -> Tuple[ProfileRecord, ...]:
        return self._records

    # -- queries ---------------------------------------------------------------
    def filter(self, predicate: Callable[[ProfileRecord], bool]) -> "ProfileDataset":
        return ProfileDataset(r for r in self._records if predicate(r))

    def for_gpu(self, gpu_key: str) -> "ProfileDataset":
        return self.filter(lambda r: r.gpu_key == gpu_key)

    def for_model(self, model: str) -> "ProfileDataset":
        return self.filter(lambda r: r.model == model)

    def for_op_type(self, op_type: str) -> "ProfileDataset":
        return self.filter(lambda r: r.op_type == op_type)

    def gpu_records(self) -> "ProfileDataset":
        return self.filter(lambda r: r.device == "GPU")

    def cpu_records(self) -> "ProfileDataset":
        return self.filter(lambda r: r.device == "CPU")

    def op_types(self) -> Tuple[str, ...]:
        return tuple(sorted({r.op_type for r in self._records}))

    def gpu_keys(self) -> Tuple[str, ...]:
        return tuple(sorted({r.gpu_key for r in self._records}))

    def models(self) -> Tuple[str, ...]:
        return tuple(sorted({r.model for r in self._records}))

    def group_by_op_type(self) -> Dict[str, "ProfileDataset"]:
        groups: Dict[str, List[ProfileRecord]] = {}
        for r in self._records:
            groups.setdefault(r.op_type, []).append(r)
        return {k: ProfileDataset(v) for k, v in groups.items()}

    def merge(self, *others: "ProfileDataset") -> "ProfileDataset":
        merged: List[ProfileRecord] = list(self._records)
        for other in others:
            merged.extend(other.records)
        return ProfileDataset(merged)

    # -- aggregate views ---------------------------------------------------------
    def mean_us_by_op_type(self) -> Dict[str, float]:
        """Mean of per-instance mean times, per op type (paper Fig. 2 rows)."""
        sums: Dict[str, Tuple[float, int]] = {}
        for r in self._records:
            total, count = sums.get(r.op_type, (0.0, 0))
            sums[r.op_type] = (total + r.mean_us, count + 1)
        return {k: total / count for k, (total, count) in sums.items()}

    def total_us_by_op_type(self) -> Dict[str, float]:
        """Summed per-iteration time contribution of each op type."""
        sums: Dict[str, float] = {}
        for r in self._records:
            sums[r.op_type] = sums.get(r.op_type, 0.0) + r.mean_us
        return sums

    @classmethod
    def concat(cls, datasets: Sequence["ProfileDataset"]) -> "ProfileDataset":
        records: List[ProfileRecord] = []
        for ds in datasets:
            records.extend(ds.records)
        return cls(records)
