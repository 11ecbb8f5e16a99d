"""Profiling: per-op measurement collection and datasets (paper, Section III)."""

from repro.profiling.features import (
    BYTES_SCALE,
    COMPUTE_SCHEMA,
    MAC_SCALE,
    SIZE_SCHEMA,
    describe_features,
    feature_matrix,
    feature_schema,
    features_for,
    is_host_op,
)
from repro.profiling.profiler import Profiler
from repro.profiling.records import ProfileDataset, ProfileRecord


__all__ = [
    "Profiler",
    "ProfileDataset",
    "ProfileRecord",
    "features_for",
    "feature_schema",
    "feature_matrix",
    "describe_features",
    "is_host_op",
    "SIZE_SCHEMA",
    "COMPUTE_SCHEMA",
    "BYTES_SCALE",
    "MAC_SCALE",
]
