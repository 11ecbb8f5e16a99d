"""Exception hierarchy for the repro (Ceer reproduction) library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch a single base class. Subclasses are organised by subsystem.
"""

from __future__ import annotations

from typing import Callable, Sequence


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError):
    """A tensor shape is invalid or incompatible with an operation."""


class GraphError(ReproError):
    """An operation graph is malformed (cycles, dangling inputs, ...)."""


class UnknownOpError(ReproError):
    """An operation type is not present in the op registry."""


class ModelZooError(ReproError):
    """A requested CNN architecture is unknown or misconfigured."""


class HardwareError(ReproError):
    """A device or calibration entry is unknown or inconsistent."""


class CatalogError(ReproError):
    """A cloud instance type or pricing scheme lookup failed."""


class ProfilingError(ReproError):
    """Profiling produced no usable records or was misconfigured."""


class ModelingError(ReproError):
    """Fitting or applying a Ceer model failed (e.g. unseen heavy op)."""


class ArtifactError(ReproError):
    """The artifact workspace was misconfigured or a store invariant broke.

    Corrupt or stale artifact *files* never raise this (they are treated as
    cache misses); it covers real misuse: unserialisable fingerprint specs,
    unknown artifact kinds, or a lock that could not be acquired.
    """


class UnseenOperationError(ModelingError):
    """A heavy operation type was not observed during Ceer training.

    Section IV-D of the paper: Ceer cannot predict (without retraining) the
    compute time of a heavy operation absent from the training profiles.
    """

    def __init__(self, op_type: str, device: str) -> None:
        self.op_type = op_type
        self.device = device
        super().__init__(
            f"heavy operation {op_type!r} on device {device!r} was not "
            f"observed during Ceer training; retrain with profiles that "
            f"include it (paper, Section IV-D)"
        )


class RecommendationError(ReproError):
    """No instance satisfies the requested objective/constraints."""


class RequestError(ReproError):
    """A request broke a rule of the request model (:mod:`repro.requests`).

    ``fields`` names the offending field(s) and the message reads
    ``"<fields> <detail>"``. ``str()`` writes each field as its JSON name
    (``'risk_aversion'``), as the HTTP service's 400 answers show it;
    :meth:`render` writes it any other way, as the CLI's exit-2 message
    does with the flag that set it (``--risk-aversion``).
    """

    def __init__(self, fields: Sequence[str], detail: str) -> None:
        self.fields = tuple(fields)
        self.detail = detail
        super().__init__(self.render(repr))

    def render(self, name: Callable[[str], str]) -> str:
        """The message with each field written by ``name``."""
        if not self.fields:
            return self.detail
        return f"{', '.join(name(field) for field in self.fields)} {self.detail}"


class ServeError(ReproError):
    """The serving layer rejected a request or could not swap a snapshot."""
