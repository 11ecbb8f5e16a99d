"""Typed artifact kinds and their JSON codecs.

The store itself moves opaque JSON payloads; everything *typed* about an
artifact lives here. Each kind pairs a stable on-disk name and schema
version with an ``encode_*``/``decode_*`` codec mapping the in-memory type
(:class:`~repro.profiling.records.ProfileDataset`,
:class:`~repro.core.fit.FittedCeer`,
:class:`~repro.sim.trace.TrainingMeasurement`,
:class:`~repro.core.comm_model.CommObservation` lists, rendered figure
text) to a JSON-ready payload and back.

Decoders are strict: anything structurally off raises
:class:`~repro.errors.ArtifactError` (or a narrower library error), which
the store treats as a cache miss — corrupt artifacts silently recompute,
they never crash a run.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Tuple, cast

import numpy as np

from repro.core.comm_model import CommObservation
from repro.core.fit import CeerDiagnostics, FittedCeer
from repro.core.persistence import (
    FORMAT_VERSION as ESTIMATOR_FORMAT_VERSION,
    estimator_from_dict,
    estimator_to_dict,
)
from repro.errors import ArtifactError
from repro.profiling.records import (
    DEVICE_NAMES, ProfileColumns, ProfileDataset, first_appearance,
)
from repro.sim.trace import TrainingMeasurement


@dataclass(frozen=True)
class ArtifactKind:
    """One category of cached artifact: a stable name plus schema version.

    ``schema_version`` is folded into every key (see
    :mod:`repro.artifacts.fingerprint`) *and* stamped into the on-disk
    envelope; bump it whenever the payload layout changes.
    """

    name: str
    schema_version: int
    description: str


#: Profiled op datasets — the expensive offline-phase measurement matrix.
#: Version 2 stores columns (model blocks plus per-cell vectors).
PROFILE = ArtifactKind("profile", 2, "profiled op datasets (ProfileDataset)")

#: Fitted Ceer estimators + diagnostics. The payload embeds the
#: ``core.persistence`` estimator document, so its format version is this
#: kind's schema version: bumping the estimator format re-addresses fits.
FITTED = ArtifactKind(
    "fitted", ESTIMATOR_FORMAT_VERSION,
    "fitted Ceer estimators with diagnostics (FittedCeer)",
)

#: Ground-truth "rent the instance and run it" measurements.
MEASUREMENT = ArtifactKind(
    "measurement", 1, "observed training runs (TrainingMeasurement)"
)

#: Rendered figure/report payloads keyed by figure name + configuration.
FIGURE = ArtifactKind("figure", 1, "rendered figure result payloads")

#: Measured per-iteration communication overheads, shared by the fit and
#: the Fig. 7 driver.
COMM = ArtifactKind("comm", 1, "communication observations (CommObservation)")

#: Every kind the store knows, by on-disk name.
KINDS: Dict[str, ArtifactKind] = {
    kind.name: kind for kind in (PROFILE, FITTED, MEASUREMENT, FIGURE, COMM)
}


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise ArtifactError(f"malformed artifact payload: {what}")


# -- profile datasets ----------------------------------------------------
#
# Layout (schema version 2)::
#
#     {"op_types": [name, ...],
#      "blocks": [{"model", "names", "op_type", "device", "input_bytes",
#                  "flops", "width", "features"}, ...],
#      "cells": [{"block", "gpu", "n_samples",
#                 "mean_us", "std_us", "median_us"}, ...]}
#
# A block holds a run of ops once — names, op-type codes (into
# ``op_types``), device codes (into DEVICE_NAMES), input bytes, FLOPs,
# feature widths and the ragged feature rows, concatenated. A cell is one
# (GPU, model) run of rows over a block: its sample count and one value
# per block op of each statistic, in block order. Every numeric column is
# base64 of 8-byte little-endian items (``<i8`` or ``<f8``), so floats
# round-trip exactly.

_INT = np.dtype("<i8")
_FLOAT = np.dtype("<f8")
_BLOCK_INTS = ("op_type", "device", "input_bytes", "flops", "width")
_STATS = ("mean_us", "std_us", "median_us")


def _pack(values: np.ndarray, dtype: np.dtype) -> str:
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def _field(item: Dict[str, Any], key: str, kind: type, what: str) -> Any:
    _require(key in item, f"{what} has no {key!r}")
    value = item[key]
    _require(isinstance(value, kind) and not isinstance(value, bool),
             f"{what} {key!r} is not a {kind.__name__}")
    return value


def _column(
    item: Dict[str, Any], key: str, dtype: np.dtype, what: str, length: int
) -> np.ndarray:
    """The ``length`` values base64-packed under ``item[key]``."""
    try:
        raw = base64.b64decode(_field(item, key, str, what), validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ArtifactError(f"malformed artifact payload: {what} {key}: {exc}") from None
    _require(len(raw) % dtype.itemsize == 0,
             f"{what} {key} is {len(raw)} bytes, not whole {dtype.itemsize}-byte items")
    values = np.frombuffer(raw, dtype=dtype)
    _require(len(values) == length,
             f"{what} {key} has {len(values)} values, expected {length}")
    return values


def encode_profiles(dataset: ProfileDataset) -> object:
    columns = dataset.compact()
    type_order = first_appearance(columns.op_type)
    type_code = np.zeros(len(columns.op_types), np.intp)
    type_code[type_order] = np.arange(len(type_order))
    ints = {key: getattr(columns, key) for key in _BLOCK_INTS}
    ints["op_type"] = type_code[columns.op_type]
    # Ragged features: row i's first width[i] entries, row after row.
    real = np.arange(columns.features.shape[1]) < columns.width[:, None]
    n = len(columns)
    edges = np.flatnonzero(
        (np.diff(columns.model) != 0) | (np.diff(columns.gpu) != 0)
        | (np.diff(columns.n_samples) != 0)
    ) + 1
    starts = [0, *edges.tolist()] if n else []
    blocks: List[Dict[str, object]] = []
    block_of: Dict[Tuple[object, ...], int] = {}
    cells: List[Dict[str, object]] = []
    for start, stop in zip(starts, [*starts[1:], n]):
        run = slice(start, stop)
        block: Dict[str, object] = {
            "model": columns.models[columns.model[start]],
            "names": list(columns.op_names[run]),
            **{key: _pack(values[run], _INT) for key, values in ints.items()},
            "features": _pack(columns.features[run][real[run]], _FLOAT),
        }
        identity = tuple(
            tuple(value) if isinstance(value, list) else value
            for value in block.values()
        )
        if identity not in block_of:
            block_of[identity] = len(blocks)
            blocks.append(block)
        cells.append({
            "block": block_of[identity],
            "gpu": columns.gpus[columns.gpu[start]],
            "n_samples": int(columns.n_samples[start]),
            **{key: _pack(getattr(columns, key)[run], _FLOAT) for key in _STATS},
        })
    return {
        "op_types": [columns.op_types[code] for code in type_order.tolist()],
        "blocks": blocks,
        "cells": cells,
    }


def _decode_block(
    item: object, index: int, n_types: int
) -> Tuple[str, List[str], Dict[str, np.ndarray]]:
    what = f"profile block {index}"
    _require(isinstance(item, dict), f"{what} is not an object")
    block = cast(Dict[str, Any], item)
    model = _field(block, "model", str, what)
    names = _field(block, "names", list, what)
    _require(all(isinstance(name, str) for name in names), f"{what} has a non-string name")
    arrays = {key: _column(block, key, _INT, what, len(names)) for key in _BLOCK_INTS}
    for key, bound in (("op_type", n_types), ("device", len(DEVICE_NAMES))):
        codes = arrays[key]
        _require(bool(np.all((codes >= 0) & (codes < bound))),
                 f"{what} has a {key} code out of range")
    width = arrays["width"]
    _require(bool(np.all(width >= 0)), f"{what} has a negative feature width")
    arrays["features"] = _column(block, "features", _FLOAT, what, int(width.sum()))
    return model, names, arrays


def decode_profiles(payload: object) -> ProfileDataset:
    _require(isinstance(payload, dict), "profile payload is not an object")
    data = cast(Dict[str, Any], payload)
    op_types = _field(data, "op_types", list, "profile payload")
    _require(all(isinstance(name, str) for name in op_types),
             "profile payload has a non-string op type")
    blocks = [
        _decode_block(item, index, len(op_types))
        for index, item in enumerate(_field(data, "blocks", list, "profile payload"))
    ]
    width = max([0] + [int(arrays["width"].max(initial=0)) for _, _, arrays in blocks])
    padded = []
    for _, names, arrays in blocks:
        matrix = np.full((len(names), width), np.nan)
        matrix[np.arange(width) < arrays["width"][:, None]] = arrays["features"]
        padded.append(matrix)
    models: Dict[str, int] = {}
    gpus: Dict[str, int] = {}
    parts: Dict[str, List[np.ndarray]] = {
        key: [] for key in ("model", "gpu", "n_samples", *_BLOCK_INTS, *_STATS)
    }
    op_names: List[str] = []
    features: List[np.ndarray] = []
    for index, item in enumerate(_field(data, "cells", list, "profile payload")):
        what = f"profile cell {index}"
        _require(isinstance(item, dict), f"{what} is not an object")
        cell = cast(Dict[str, Any], item)
        block_index = _field(cell, "block", int, what)
        _require(0 <= block_index < len(blocks), f"{what} names no block")
        model, names, arrays = blocks[block_index]
        gpu = _field(cell, "gpu", str, what)
        n_samples = _field(cell, "n_samples", int, what)
        n_ops = len(names)
        for key in _STATS:
            parts[key].append(_column(cell, key, _FLOAT, what, n_ops))
        for key in _BLOCK_INTS:
            parts[key].append(arrays[key])
        parts["model"].append(np.full(n_ops, models.setdefault(model, len(models))))
        parts["gpu"].append(np.full(n_ops, gpus.setdefault(gpu, len(gpus))))
        parts["n_samples"].append(np.full(n_ops, n_samples))
        op_names.extend(names)
        features.append(padded[block_index])
    merged = {
        key: np.concatenate(arrays) if arrays else np.zeros(0, _INT)
        for key, arrays in parts.items()
    }
    return ProfileDataset.from_columns(ProfileColumns(
        models=tuple(models), gpus=tuple(gpus), op_types=op_types,
        op_names=op_names,
        features=np.concatenate(features) if features else np.zeros((0, width)),
        **merged,
    ))


# -- training measurements -----------------------------------------------

def encode_measurement(measurement: TrainingMeasurement) -> object:
    return asdict(measurement)


def decode_measurement(payload: object) -> TrainingMeasurement:
    _require(isinstance(payload, dict), "measurement payload is not an object")
    return TrainingMeasurement(**cast(Dict[str, Any], payload))


# -- communication observations -------------------------------------------

def encode_comm(observations: List[CommObservation]) -> object:
    return [asdict(observation) for observation in observations]


def decode_comm(payload: object) -> List[CommObservation]:
    _require(isinstance(payload, list), "comm payload is not a list")
    return [
        CommObservation(**item) for item in cast(List[Dict[str, Any]], payload)
    ]


# -- fitted estimators ----------------------------------------------------

def _diagnostics_to_dict(diagnostics: CeerDiagnostics) -> Dict[str, object]:
    return {
        "train_models": list(diagnostics.train_models),
        "gpu_keys": list(diagnostics.gpu_keys),
        "n_profile_records": diagnostics.n_profile_records,
        "heavy_op_types": list(diagnostics.heavy_op_types),
        "light_op_types": list(diagnostics.light_op_types),
        "cpu_op_types": list(diagnostics.cpu_op_types),
        "light_median_us": diagnostics.light_median_us,
        "cpu_median_us": diagnostics.cpu_median_us,
        "heavy_r2": [
            [gpu_key, op_type, value]
            for (gpu_key, op_type), value in sorted(diagnostics.heavy_r2.items())
        ],
        "comm_r2": [
            [gpu_key, num_gpus, value]
            for (gpu_key, num_gpus), value in sorted(diagnostics.comm_r2.items())
        ],
        # Backend-specific keys are emitted only off the per-GPU default:
        # the version-1 per-GPU payload must stay byte-identical (its
        # content hash anchors workspace keys and golden snapshots), and
        # the canonical per-GPU fit *does* have proportional-fallback
        # cells — emitting them unconditionally would roll every key.
        **(
            {
                "backend": diagnostics.backend,
                "proportional_fallbacks": [
                    list(cell) for cell in diagnostics.proportional_fallbacks
                ],
                "transfer_std_us": [
                    [op_type, value]
                    for op_type, value in sorted(
                        diagnostics.transfer_std_us.items()
                    )
                ],
            }
            if diagnostics.backend != "per_gpu"
            else {}
        ),
    }


def _diagnostics_from_dict(data: Dict[str, Any]) -> CeerDiagnostics:
    return CeerDiagnostics(
        train_models=tuple(data["train_models"]),
        gpu_keys=tuple(data["gpu_keys"]),
        n_profile_records=data["n_profile_records"],
        heavy_op_types=tuple(data["heavy_op_types"]),
        light_op_types=tuple(data["light_op_types"]),
        cpu_op_types=tuple(data["cpu_op_types"]),
        light_median_us=data["light_median_us"],
        cpu_median_us=data["cpu_median_us"],
        heavy_r2={
            (gpu_key, op_type): value for gpu_key, op_type, value in data["heavy_r2"]
        },
        comm_r2={
            (gpu_key, int(num_gpus)): value
            for gpu_key, num_gpus, value in data["comm_r2"]
        },
        backend=data.get("backend", "per_gpu"),
        proportional_fallbacks=tuple(
            (gpu_key, op_type)
            for gpu_key, op_type in data.get("proportional_fallbacks", [])
        ),
        transfer_std_us={
            op_type: value for op_type, value in data.get("transfer_std_us", [])
        },
    )


def encode_fitted(fitted: FittedCeer) -> object:
    """Serialise a fit *without* its training profiles.

    The profiles are their own content-addressed artifact; embedding them
    here would store the expensive dataset twice. The workspace re-binds
    the profile artifact when decoding (see
    :meth:`repro.artifacts.workspace.Workspace.fitted_ceer`).
    """
    return {
        "estimator": estimator_to_dict(fitted.estimator),
        "diagnostics": _diagnostics_to_dict(fitted.diagnostics),
    }


def decode_fitted(payload: object, train_profiles: ProfileDataset) -> FittedCeer:
    _require(isinstance(payload, dict), "fitted payload is not an object")
    data = cast(Dict[str, Any], payload)
    return FittedCeer(
        estimator=estimator_from_dict(data["estimator"]),
        train_profiles=train_profiles,
        diagnostics=_diagnostics_from_dict(data["diagnostics"]),
    )


# -- figure payloads -------------------------------------------------------

def encode_figure(name: str, rendered: str) -> object:
    return {"figure": name, "rendered": rendered}


def decode_figure(payload: object) -> str:
    _require(isinstance(payload, dict), "figure payload is not an object")
    rendered = cast(Dict[str, Any], payload).get("rendered")
    _require(isinstance(rendered, str), "figure payload has no rendered text")
    return cast(str, rendered)


__all__: Tuple[str, ...] = (
    "ArtifactKind", "PROFILE", "FITTED", "MEASUREMENT", "FIGURE", "COMM",
    "KINDS",
    "encode_profiles", "decode_profiles",
    "encode_measurement", "decode_measurement",
    "encode_comm", "decode_comm",
    "encode_fitted", "decode_fitted",
    "encode_figure", "decode_figure",
)
