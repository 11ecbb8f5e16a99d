"""Persistence for fitted Ceer estimators.

The paper's offline phase (profiling 8 CNNs on 4 GPU models over 1,000
iterations) is by far the expensive part of Ceer; the fitted models are a
handful of regression coefficients and two medians. This module
serialises a fitted :class:`CeerEstimator` to a compact JSON document so
the offline phase runs once (e.g. in CI, or by whoever pays for the cloud
instances) and the online recommendation phase loads it instantly.

The format captures everything prediction needs: the heavy/light/CPU
classification, each per-(GPU, op type) regression, the light/CPU medians,
and the per-(GPU, k) communication regressions. Diagnostics (R² tables)
are preserved where available.

Two schema versions coexist:

* version 1 — the per-GPU backend. Byte-for-byte stable since PR 1: a
  per-GPU fit emits *exactly* the same document it always has, so
  content-addressed workspace keys and golden snapshots never roll.
* version 2 — the transfer backend. Adds ``backend`` and ``transfer``
  keys (the pooled per-op-type fits plus their residual stds);
  ``heavy_models`` is empty because per-device models are synthesized
  from the transfer fits at predict time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.transfer import TransferOpModel

from repro.errors import ModelingError
from repro.core.classify import OpClassification
from repro.core.comm_model import CommunicationModel
from repro.core.estimator import CeerEstimator
from repro.core.op_models import ComputeTimeModels, HeavyOpModel
from repro.core.regression import RegressionModel

FORMAT_NAME = "repro-ceer-estimator"
FORMAT_VERSION = 1
#: Version written for transfer-backend estimators (version 1 documents
#: stay byte-identical to the pre-backend format).
TRANSFER_FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (FORMAT_VERSION, TRANSFER_FORMAT_VERSION)


def _regression_to_json(model: RegressionModel) -> Dict:
    return {
        "degree": model.degree,
        "intercept": model.intercept,
        "coef": list(model.coef),
        "r2": model.r2,
        "adjusted_r2": model.adjusted_r2,
        "n_train": model.n_train,
        "feature_names": list(model.feature_names),
        "clip_max": model.clip_max,
    }


def _regression_from_json(data: Dict) -> RegressionModel:
    return RegressionModel(
        degree=data["degree"],
        intercept=data["intercept"],
        coef=tuple(data["coef"]),
        r2=data["r2"],
        adjusted_r2=data["adjusted_r2"],
        n_train=data["n_train"],
        feature_names=tuple(data.get("feature_names", ())),
        clip_max=data.get("clip_max"),
    )


def _transfer_op_to_json(model: "TransferOpModel") -> Dict:
    return {
        "op_type": model.op_type,
        "degree": model.degree,
        "feature_names": list(model.feature_names),
        "intercept": model.intercept,
        "size_coef": list(model.size_coef),
        "device_coef": list(model.device_coef),
        "interaction_coef": [list(c) for c in model.interaction_coef],
        "residual_std_us": model.residual_std_us,
        "r2": model.r2,
        "adjusted_r2": model.adjusted_r2,
        "n_train": model.n_train,
        "clip_max": model.clip_max,
        "proportional": model.proportional,
    }


def _transfer_op_from_json(data: Dict) -> "TransferOpModel":
    from repro.core.transfer import TransferOpModel

    interaction = data["interaction_coef"]
    return TransferOpModel(
        op_type=data["op_type"],
        degree=data["degree"],
        feature_names=tuple(data["feature_names"]),
        intercept=data["intercept"],
        size_coef=tuple(data["size_coef"]),
        device_coef=(data["device_coef"][0], data["device_coef"][1]),
        interaction_coef=(tuple(interaction[0]), tuple(interaction[1])),
        residual_std_us=data["residual_std_us"],
        r2=data["r2"],
        adjusted_r2=data["adjusted_r2"],
        n_train=data["n_train"],
        clip_max=data.get("clip_max"),
        proportional=data.get("proportional", False),
    )


def estimator_to_dict(estimator: CeerEstimator) -> Dict:
    """Serialise a fitted estimator to a JSON-ready dictionary.

    Per-GPU estimators produce the version-1 document unchanged (the new
    keys would roll every content-addressed workspace fingerprint);
    transfer estimators produce version 2 with ``backend``/``transfer``
    appended after the stable key prefix.
    """
    models = estimator.compute_models
    transfer = models.transfer
    version = FORMAT_VERSION if transfer is None else TRANSFER_FORMAT_VERSION
    classification = models.classification
    doc = {
        "format": FORMAT_NAME,
        "version": version,
        "classification": {
            "heavy": sorted(classification.heavy),
            "light": sorted(classification.light),
            "cpu": sorted(classification.cpu),
            "threshold_us": classification.threshold_us,
            "reference_gpu": classification.reference_gpu,
        },
        "light_median_us": models.light_median_us,
        "cpu_median_us": models.cpu_median_us,
        "strict_unseen": models.strict_unseen,
        "heavy_models": [
            {
                "gpu_key": gpu_key,
                "op_type": op_type,
                "regression": _regression_to_json(model.regression),
            }
            for (gpu_key, op_type), model in sorted(models.heavy_models.items())
        ],
        "comm_models": [
            {
                "gpu_key": gpu_key,
                "num_gpus": num_gpus,
                "regression": _regression_to_json(regression),
                "r2": estimator.comm_model.r2.get((gpu_key, num_gpus)),
            }
            for (gpu_key, num_gpus), regression in sorted(
                estimator.comm_model.models.items()
            )
        ],
        "include_communication": estimator.include_communication,
        "heavy_only": estimator.heavy_only,
    }
    if transfer is not None:
        doc["backend"] = models.backend
        doc["transfer"] = {
            "reference_gpu": transfer.reference_gpu,
            "train_gpu_keys": list(transfer.train_gpu_keys),
            "models": [
                _transfer_op_to_json(transfer.models[op_type])
                for op_type in transfer.op_types()
            ],
        }
    return doc


def estimator_from_dict(data: Dict) -> CeerEstimator:
    """Reconstruct a usable estimator from its dictionary representation."""
    if data.get("format") != FORMAT_NAME:
        raise ModelingError(
            f"not a {FORMAT_NAME} document (format={data.get('format')!r})"
        )
    if data.get("version") not in SUPPORTED_VERSIONS:
        raise ModelingError(
            f"unsupported {FORMAT_NAME} version {data.get('version')!r}"
        )
    cls_data = data["classification"]
    classification = OpClassification(
        heavy=frozenset(cls_data["heavy"]),
        light=frozenset(cls_data["light"]),
        cpu=frozenset(cls_data["cpu"]),
        threshold_us=cls_data["threshold_us"],
        reference_gpu=cls_data["reference_gpu"],
    )
    heavy_models = {}
    train_r2 = {}
    for item in data["heavy_models"]:
        key = (item["gpu_key"], item["op_type"])
        regression = _regression_from_json(item["regression"])
        heavy_models[key] = HeavyOpModel(item["gpu_key"], item["op_type"], regression)
        train_r2[key] = regression.r2
    transfer = None
    heavy_std_us: Dict[str, float] = {}
    if "transfer" in data:
        from repro.core.transfer import TransferModelSet

        transfer_data = data["transfer"]
        transfer_models = {
            item["op_type"]: _transfer_op_from_json(item)
            for item in transfer_data["models"]
        }
        transfer = TransferModelSet(
            models=transfer_models,
            train_gpu_keys=tuple(transfer_data["train_gpu_keys"]),
            reference_gpu=transfer_data["reference_gpu"],
        )
        heavy_std_us = transfer.residual_std_us()
        for op_type, model in sorted(transfer_models.items()):
            train_r2[("pooled", op_type)] = model.r2
    compute_models = ComputeTimeModels(
        classification=classification,
        heavy_models=heavy_models,
        light_median_us=data["light_median_us"],
        cpu_median_us=data["cpu_median_us"],
        strict_unseen=data.get("strict_unseen", False),
        train_r2=train_r2,
        backend=data.get("backend", "per_gpu"),
        transfer=transfer,
        heavy_std_us=heavy_std_us,
    )
    comm_models = {}
    comm_r2 = {}
    for item in data["comm_models"]:
        key = (item["gpu_key"], item["num_gpus"])
        comm_models[key] = _regression_from_json(item["regression"])
        if item.get("r2") is not None:
            comm_r2[key] = item["r2"]
    comm_model = CommunicationModel(models=comm_models, r2=comm_r2)
    return CeerEstimator(
        compute_models,
        comm_model,
        include_communication=data.get("include_communication", True),
        heavy_only=data.get("heavy_only", False),
    )


def save_estimator(estimator: CeerEstimator, path: Union[str, Path]) -> None:
    """Write a fitted estimator to ``path`` as JSON, atomically.

    The document is staged in a same-directory temp file and moved into
    place with ``os.replace``, so a concurrent :func:`load_estimator` (or a
    crash mid-write) sees either the old complete file or the new one,
    never a torn document.
    """
    from repro.artifacts.store import atomic_write_bytes

    target = Path(path)
    data = json.dumps(estimator_to_dict(estimator)).encode("utf-8")
    atomic_write_bytes(target, data)


def load_estimator(path: Union[str, Path]) -> CeerEstimator:
    """Load a fitted estimator previously written by :func:`save_estimator`."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ModelingError(
            f"cannot read estimator {path}: {exc.strerror or exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ModelingError(f"{path} is not valid JSON: {exc}") from exc
    return estimator_from_dict(data)
