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

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Tuple, cast

from repro.core.comm_model import CommObservation
from repro.core.fit import CeerDiagnostics, FittedCeer
from repro.core.persistence import (
    FORMAT_VERSION as ESTIMATOR_FORMAT_VERSION,
    estimator_from_dict,
    estimator_to_dict,
)
from repro.errors import ArtifactError
from repro.profiling.records import ProfileDataset, ProfileRecord
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
PROFILE = ArtifactKind("profile", 1, "profiled op datasets (ProfileDataset)")

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

def encode_profiles(dataset: ProfileDataset) -> object:
    # Records hold only scalars and a float tuple: asdict's deep copy would
    # buy nothing and cost a third of a cold fit.
    return [dict(vars(record)) for record in dataset.records]


def decode_profiles(payload: object) -> ProfileDataset:
    _require(isinstance(payload, list), "profile payload is not a list")
    items = cast(List[Dict[str, Any]], payload)
    return ProfileDataset(
        ProfileRecord(**{**item, "features": tuple(item["features"])})
        for item in items
    )


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
