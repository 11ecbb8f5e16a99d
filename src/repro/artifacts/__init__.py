"""``repro.artifacts`` — the typed artifact workspace.

One explicit, fingerprint-invalidated caching layer for everything the
offline phase produces: profile datasets, fitted Ceer estimators,
communication observations, ground-truth training measurements, and
rendered figure payloads. See
:mod:`repro.artifacts.workspace` for the facade the rest of the tree uses
and :mod:`repro.artifacts.store` for tiering/locking/atomicity details.
"""

from repro.artifacts.fingerprint import fingerprint
from repro.artifacts.kinds import (
    COMM,
    FIGURE,
    FITTED,
    KINDS,
    MEASUREMENT,
    PROFILE,
    ArtifactKind,
)
from repro.artifacts.store import (
    ArtifactInfo,
    ArtifactStore,
    KindCounters,
    atomic_write_bytes,
)
from repro.artifacts.workspace import (
    CANONICAL_ITERATIONS,
    EVAL_SEED,
    WORKSPACE_ENV,
    Workspace,
    active_workspace,
    default_workspace_dir,
    set_active_workspace,
)

__all__ = [
    "ArtifactKind", "ArtifactStore", "ArtifactInfo", "KindCounters",
    "atomic_write_bytes",
    "PROFILE", "FITTED", "MEASUREMENT", "FIGURE", "COMM", "KINDS",
    "fingerprint",
    "Workspace", "active_workspace", "set_active_workspace",
    "default_workspace_dir",
    "CANONICAL_ITERATIONS", "EVAL_SEED", "WORKSPACE_ENV",
]
