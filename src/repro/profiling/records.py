"""Profile datasets: the measurement records Ceer trains and validates on.

A profiled operation instance — op identity, static size features, and
compute-time statistics over N iterations — is one *row*. A
:class:`ProfileDataset` keeps its rows as columns (:class:`ProfileColumns`)
plus an index array into them, so every query (``for_gpu``,
``for_op_type``, ``gpu_records``, ``group_by_op_type``, ``merge``, ...) is
an index mask over the same arrays and copies no record. A
(GPU, op type) subset hands the regression fits its feature matrix and
target vector directly (:meth:`ProfileDataset.feature_matrix`,
:attr:`ProfileDataset.mean_us`). :class:`ProfileRecord` is the row view,
for per-record callers.

Exact summation: an aggregate that feeds an output adds
``column[mask].tolist()`` left to right in row order, in the form the
record loop it replaces used. The per-op-type and per-device totals
(:func:`left_sum`) are a plain ``+`` fold from ``0.0``: from Python 3.12
the builtin ``sum`` of floats is compensated (Neumaier) and rounds
differently from a ``+`` loop. Sums that were always a builtin ``sum``
(``profiled_iteration_us``, the Fig. 2 totals, which match
``compute_us``) stay one. Never numpy's pairwise reduction. Only IEEE
element-wise operations (comparisons, one division per row) run in
numpy.

The ``profile`` artifact kind (:mod:`repro.artifacts.kinds`) stores
datasets on disk.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.graph.table import DEVICES

#: Device name of a code in :attr:`ProfileColumns.device` (the codes of
#: :attr:`repro.graph.table.OpTable.device`).
DEVICE_NAMES: Tuple[str, ...] = tuple(device.value for device in DEVICES)

#: :attr:`ProfileColumns.flops` of a row whose FLOPs are not known (rows
#: built from :class:`ProfileRecord`, which carries none).
UNKNOWN_FLOPS = -1


@dataclass(frozen=True)
class ProfileRecord:
    """One profiled operation on one GPU model in one CNN (a row view)."""

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

    @property
    def normalized_std(self) -> float:
        return self.std_us / self.mean_us if self.mean_us > 0 else 0.0


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right with ``+``, from ``0.0``: the bits a
    ``total += value`` loop gets, on every Python version."""
    return reduce(operator.add, values, 0.0)


def _frozen(values: object, dtype: object) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column


def pad_features(rows: Sequence[Sequence[float]]) -> Tuple[np.ndarray, np.ndarray]:
    """Ragged feature rows as (per-row widths, NaN-padded float64 matrix)."""
    widths = [len(row) for row in rows]
    width = max(widths, default=0)
    matrix = np.full((len(rows), width), np.nan)
    for i, row in enumerate(rows):
        matrix[i, :len(row)] = row
    return np.array(widths, dtype=np.intp), matrix


def first_appearance(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes`` in order of first appearance."""
    unique, first = np.unique(codes, return_index=True)
    return unique[np.argsort(first)]


def _groups(keys: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """(key, positions) per distinct key, keys in first-appearance order,
    positions ascending."""
    if len(keys) == 0:
        return []
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    splits = np.split(order, np.cumsum(np.bincount(inverse))[:-1])
    return [(int(unique[j]), splits[j]) for j in np.argsort(first)]


class ProfileColumns:
    """The read-only columns a dataset's rows index into.

    String-valued fields are codes into a vocabulary (``models``,
    ``gpus``, ``op_types``, :data:`DEVICE_NAMES`). ``features`` is padded
    with NaN to the widest row; ``width`` says how many of a row's
    entries are real (2 or 4 per op type for profiled ops).
    """

    __slots__ = (
        "models", "gpus", "op_types", "model", "gpu", "op_type", "device",
        "op_names", "input_bytes", "flops", "width", "features", "n_samples",
        "mean_us", "std_us", "median_us",
    )

    def __init__(
        self,
        models: Sequence[str],
        gpus: Sequence[str],
        op_types: Sequence[str],
        model: object,
        gpu: object,
        op_type: object,
        device: object,
        op_names: Sequence[str],
        input_bytes: object,
        flops: object,
        width: object,
        features: object,
        n_samples: object,
        mean_us: object,
        std_us: object,
        median_us: object,
    ) -> None:
        self.models: Tuple[str, ...] = tuple(models)
        self.gpus: Tuple[str, ...] = tuple(gpus)
        self.op_types: Tuple[str, ...] = tuple(op_types)
        self.model = _frozen(model, np.intp)
        self.gpu = _frozen(gpu, np.intp)
        self.op_type = _frozen(op_type, np.intp)
        self.device = _frozen(device, np.intp)
        self.op_names: Tuple[str, ...] = tuple(op_names)
        self.input_bytes = _frozen(input_bytes, np.int64)
        self.flops = _frozen(flops, np.int64)
        self.width = _frozen(width, np.intp)
        self.features = _frozen(features, np.float64)
        self.n_samples = _frozen(n_samples, np.int64)
        self.mean_us = _frozen(mean_us, np.float64)
        self.std_us = _frozen(std_us, np.float64)
        self.median_us = _frozen(median_us, np.float64)

    def __len__(self) -> int:
        return len(self.op_names)

    @classmethod
    def from_records(cls, records: Sequence[ProfileRecord]) -> "ProfileColumns":
        vocab: Tuple[Dict[str, int], Dict[str, int], Dict[str, int]] = ({}, {}, {})
        codes: Tuple[List[int], List[int], List[int]] = ([], [], [])
        for record in records:
            for names, column, value in zip(
                vocab, codes, (record.model, record.gpu_key, record.op_type)
            ):
                column.append(names.setdefault(value, len(names)))
        width, features = pad_features([r.features for r in records])
        return cls(
            *vocab, *codes,
            device=[DEVICE_NAMES.index(r.device) for r in records],
            op_names=[r.op_name for r in records],
            input_bytes=[r.input_bytes for r in records],
            flops=np.full(len(records), UNKNOWN_FLOPS),
            width=width, features=features,
            n_samples=[r.n_samples for r in records],
            mean_us=[r.mean_us for r in records],
            std_us=[r.std_us for r in records],
            median_us=[r.median_us for r in records],
        )

    @classmethod
    def concat(
        cls, parts: Sequence[Tuple["ProfileColumns", np.ndarray]]
    ) -> "ProfileColumns":
        """The rows ``positions`` of each part, in order, as one table;
        vocabularies are merged and codes remapped."""
        vocabs = [
            tuple(dict.fromkeys(name for part, _ in parts for name in getattr(part, field)))
            for field in ("models", "gpus", "op_types")
        ]

        def recode(field: str, vocab: Tuple[str, ...]) -> np.ndarray:
            index = {name: code for code, name in enumerate(vocab)}
            return np.concatenate([np.zeros(0, np.intp)] + [
                np.array([index[n] for n in getattr(part, field + "s")], np.intp)[
                    getattr(part, field)[rows]
                ]
                for part, rows in parts
            ])

        def stack(field: str, dtype: object) -> np.ndarray:
            return np.concatenate(
                [np.zeros(0, dtype)] + [getattr(part, field)[rows] for part, rows in parts]
            )

        width = max([0] + [part.features.shape[1] for part, _ in parts])
        features = np.full((sum(len(rows) for _, rows in parts), width), np.nan)
        start = 0
        for part, rows in parts:
            features[start:start + len(rows), :part.features.shape[1]] = part.features[rows]
            start += len(rows)
        op_names: List[str] = []
        for part, rows in parts:
            if len(rows) == len(part) and np.array_equal(rows, np.arange(len(part))):
                op_names.extend(part.op_names)
            else:
                op_names.extend(part.op_names[i] for i in rows.tolist())
        return cls(
            *vocabs,
            model=recode("model", vocabs[0]),
            gpu=recode("gpu", vocabs[1]),
            op_type=recode("op_type", vocabs[2]),
            device=stack("device", np.intp),
            op_names=op_names,
            input_bytes=stack("input_bytes", np.int64),
            flops=stack("flops", np.int64),
            width=stack("width", np.intp),
            features=features,
            n_samples=stack("n_samples", np.int64),
            mean_us=stack("mean_us", np.float64),
            std_us=stack("std_us", np.float64),
            median_us=stack("median_us", np.float64),
        )


class ProfileDataset:
    """An immutable set of profile rows with query helpers.

    ``ProfileDataset(records)`` builds one from :class:`ProfileRecord`
    rows; :meth:`from_columns` wraps columns as they are. Iterating
    yields row views.
    """

    __slots__ = ("_columns", "_rows", "_records")

    def __init__(self, records: Iterable[ProfileRecord] = ()) -> None:
        self._columns = ProfileColumns.from_records(tuple(records))
        self._rows = np.arange(len(self._columns), dtype=np.intp)
        self._records: Optional[Tuple[ProfileRecord, ...]] = None

    @classmethod
    def from_columns(cls, columns: ProfileColumns) -> "ProfileDataset":
        return cls._view(columns, np.arange(len(columns), dtype=np.intp))

    @classmethod
    def _view(cls, columns: ProfileColumns, rows: np.ndarray) -> "ProfileDataset":
        dataset = cls.__new__(cls)
        dataset._columns = columns
        dataset._rows = rows
        dataset._records = None
        return dataset

    def compact(self) -> ProfileColumns:
        """This dataset's rows alone, in order, as a columns table."""
        return ProfileColumns.concat([(self._columns, self._rows)])

    # -- basic container protocol -----------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[ProfileRecord]:
        return iter(self.records)

    def __bool__(self) -> bool:
        return len(self._rows) > 0

    @property
    def records(self) -> Tuple[ProfileRecord, ...]:
        """Every row as a :class:`ProfileRecord`, in row order."""
        if self._records is None:
            c, rows = self._columns, self._rows
            self._records = tuple(
                ProfileRecord(
                    c.models[model], c.gpus[gpu], c.op_names[i], c.op_types[op_type],
                    DEVICE_NAMES[device], tuple(features[:width]), input_bytes,
                    n_samples, mean, std, median,
                )
                for i, model, gpu, op_type, device, features, width, input_bytes,
                n_samples, mean, std, median in zip(
                    rows.tolist(), c.model[rows].tolist(), c.gpu[rows].tolist(),
                    c.op_type[rows].tolist(), c.device[rows].tolist(),
                    c.features[rows].tolist(), c.width[rows].tolist(),
                    c.input_bytes[rows].tolist(), c.n_samples[rows].tolist(),
                    c.mean_us[rows].tolist(), c.std_us[rows].tolist(),
                    c.median_us[rows].tolist(),
                )
            )
        return self._records

    # -- columns -----------------------------------------------------------
    @property
    def mean_us(self) -> np.ndarray:
        return self._columns.mean_us[self._rows]

    @property
    def std_us(self) -> np.ndarray:
        return self._columns.std_us[self._rows]

    @property
    def median_us(self) -> np.ndarray:
        return self._columns.median_us[self._rows]

    @property
    def input_bytes(self) -> np.ndarray:
        return self._columns.input_bytes[self._rows]

    def row_gpu_keys(self) -> List[str]:
        """The GPU key of each row, in row order."""
        gpus = self._columns.gpus
        return [gpus[code] for code in self._columns.gpu[self._rows].tolist()]

    def feature_matrix(self) -> np.ndarray:
        """The (n, width) C-contiguous feature matrix of rows sharing one
        feature width (a (GPU, op type) subset), in row order."""
        widths = np.unique(self._columns.width[self._rows])
        if len(widths) > 1:
            raise ValueError(f"rows have mixed feature widths {widths.tolist()}")
        width = int(widths[0]) if len(widths) else 0
        return np.ascontiguousarray(self._columns.features[self._rows, :width])

    def normalized_std(self) -> np.ndarray:
        """``std_us / mean_us`` per row, 0.0 where the mean is not positive."""
        mean, std = self.mean_us, self.std_us
        return np.divide(std, mean, out=np.zeros_like(std), where=mean > 0)

    # -- masks and queries -------------------------------------------------
    def _mask(self, codes: np.ndarray, vocab: Tuple[str, ...],
              names: Iterable[str]) -> np.ndarray:
        wanted = set(names)
        return np.isin(
            codes[self._rows],
            [code for code, name in enumerate(vocab) if name in wanted],
        )

    def op_type_mask(self, op_types: Iterable[str]) -> np.ndarray:
        """Boolean mask of the rows whose op type is in ``op_types``."""
        return self._mask(self._columns.op_type, self._columns.op_types, op_types)

    def gpu_mask(self, gpu_keys: Iterable[str]) -> np.ndarray:
        """Boolean mask of the rows profiled on one of ``gpu_keys``."""
        return self._mask(self._columns.gpu, self._columns.gpus, gpu_keys)

    def select(self, mask: np.ndarray) -> "ProfileDataset":
        """The rows where ``mask`` (aligned with this dataset) is true."""
        return self._view(self._columns, self._rows[np.asarray(mask, dtype=bool)])

    def filter(self, predicate: Callable[[ProfileRecord], bool]) -> "ProfileDataset":
        """The rows whose :class:`ProfileRecord` view satisfies ``predicate``."""
        return self.select(np.array([predicate(r) for r in self.records], dtype=bool))

    def for_gpu(self, gpu_key: str) -> "ProfileDataset":
        return self.select(self.gpu_mask((gpu_key,)))

    def for_model(self, model: str) -> "ProfileDataset":
        return self.select(self._mask(self._columns.model, self._columns.models, (model,)))

    def for_op_type(self, op_type: str) -> "ProfileDataset":
        return self.select(self.op_type_mask((op_type,)))

    def gpu_records(self) -> "ProfileDataset":
        return self.select(self._mask(self._columns.device, DEVICE_NAMES, ("GPU",)))

    def cpu_records(self) -> "ProfileDataset":
        return self.select(self._mask(self._columns.device, DEVICE_NAMES, ("CPU",)))

    def _names(self, codes: np.ndarray, vocab: Tuple[str, ...]) -> Tuple[str, ...]:
        return tuple(sorted(vocab[code] for code in np.unique(codes[self._rows]).tolist()))

    def op_types(self) -> Tuple[str, ...]:
        return self._names(self._columns.op_type, self._columns.op_types)

    def gpu_keys(self) -> Tuple[str, ...]:
        return self._names(self._columns.gpu, self._columns.gpus)

    def models(self) -> Tuple[str, ...]:
        return self._names(self._columns.model, self._columns.models)

    def _group(self, keys: np.ndarray) -> List[Tuple[int, "ProfileDataset"]]:
        """Subsets per distinct value of ``keys`` (aligned with this
        dataset), in order of first appearance."""
        return [
            (key, self._view(self._columns, self._rows[positions]))
            for key, positions in _groups(keys)
        ]

    def group_by_op_type(self) -> Dict[str, "ProfileDataset"]:
        """Rows per op type, op types in order of first appearance."""
        c = self._columns
        return {
            c.op_types[code]: subset
            for code, subset in self._group(c.op_type[self._rows])
        }

    def group_by_gpu(self) -> Dict[str, "ProfileDataset"]:
        """Rows per GPU, GPUs in order of first appearance."""
        c = self._columns
        return {c.gpus[code]: subset for code, subset in self._group(c.gpu[self._rows])}

    def group_by_cell(self) -> Dict[Tuple[str, str], "ProfileDataset"]:
        """Rows per (GPU, model) cell, cells in order of first appearance."""
        c = self._columns
        keys = c.gpu[self._rows] * len(c.models) + c.model[self._rows]
        return {
            (c.gpus[key // len(c.models)], c.models[key % len(c.models)]): subset
            for key, subset in self._group(keys)
        }

    def merge(self, *others: "ProfileDataset") -> "ProfileDataset":
        return self.concat((self, *others))

    @classmethod
    def concat(cls, datasets: Sequence["ProfileDataset"]) -> "ProfileDataset":
        """The rows of every dataset, in order. Datasets over the same
        columns concatenate their indices; others are copied into one
        table."""
        if not datasets:
            return cls()
        columns = datasets[0]._columns
        if all(d._columns is columns for d in datasets):
            return cls._view(columns, np.concatenate([d._rows for d in datasets]))
        return cls.from_columns(
            ProfileColumns.concat([(d._columns, d._rows) for d in datasets])
        )

    # -- aggregate views ---------------------------------------------------------
    def mean_us_by_op_type(self) -> Dict[str, float]:
        """Mean of per-instance mean times, per op type (paper Fig. 2 rows)."""
        return {
            op_type: left_sum(means) / len(means)
            for op_type, means in self._means_by_op_type().items()
        }

    def total_us_by_op_type(self) -> Dict[str, float]:
        """Summed per-iteration time contribution of each op type."""
        return {
            op_type: left_sum(means)
            for op_type, means in self._means_by_op_type().items()
        }

    def _means_by_op_type(self) -> Dict[str, List[float]]:
        return {
            op_type: subset.mean_us.tolist()
            for op_type, subset in self.group_by_op_type().items()
        }

    def model_flops(self) -> Dict[str, int]:
        """FLOPs of one iteration of each model, summed over the rows of
        its first (GPU, model) cell. A profiled cell holds every op of its
        graph, so this is :func:`~repro.graph.flops.graph_flops` of the
        profiled graph. Models with rows of unknown FLOPs are left out."""
        seen = set()
        flops: Dict[str, int] = {}
        for (_, model), cell in self.group_by_cell().items():
            if model not in seen:
                seen.add(model)
                values = self._columns.flops[cell._rows].tolist()
                if UNKNOWN_FLOPS not in values:
                    flops[model] = sum(values)
        return flops
