"""Per-operation input-size features for Ceer's regression models.

Paper, Section IV-B: "Note that *input* can be a vector; for example, for
the Conv2D operation, the size of both input images and the size of the
filters serve as input to the compute time model", and Section III-C: "for
some operations (e.g., Conv2D, AvgPool, etc.), the compute time also
depends on the size of supplemental inputs, such as filters, strides, and
padding".

All features here are *static* properties of the op's shapes and attributes
— they can be computed from the CNN's DAG without executing anything, which
is what lets Ceer predict training time for a model before renting a single
instance (Section IV-D). For the dense-compute ops (convolutions, matmul)
we include the multiply-accumulate volume implied by shapes/strides/padding
as the "supplemental input" feature; it is a deterministic function of the
sizes the paper enumerates, and it is what makes a single per-op-type model
work across kernel geometries as different as 1x1 and 7x7 convolutions.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.graph.flops import flop_count
from repro.graph.ops import OpCategory, Operation, op_def

#: Feature names, in vector order, per feature schema.
SIZE_SCHEMA: Tuple[str, ...] = ("input_bytes", "output_bytes")
COMPUTE_SCHEMA: Tuple[str, ...] = (
    "input_bytes", "output_bytes", "mac_volume", "macs_per_element"
)

#: Op types that get the MAC-volume supplemental feature.
_COMPUTE_FEATURE_OPS = frozenset(
    {"Conv2D", "Conv2DBackpropInput", "Conv2DBackpropFilter", "MatMul"}
)

#: Scale factors keeping regression design matrices well-conditioned:
#: feature values land in O(1)-O(100) for realistic CNN ops.
BYTES_SCALE = 1e6  # features measured in MB
MAC_SCALE = 1e8  # MACs measured in 1e8 units


def feature_schema(op_type: str) -> Tuple[str, ...]:
    """The feature names used for an op type (validates the type)."""
    op_def(op_type)
    if op_type in _COMPUTE_FEATURE_OPS:
        return COMPUTE_SCHEMA
    return SIZE_SCHEMA


def features_for(op: Operation) -> Tuple[float, ...]:
    """Extract the (scaled) feature vector for one operation.

    For the dense-compute ops the vector also carries the MAC *density*
    (MACs per tensor element): two convolutions with the same total work
    but different per-element arithmetic stress the GPU very differently —
    a deep 1x1 kernel over a small grid underutilises a wide chip where a
    shallow kernel over a large grid saturates it. Both quantities are
    derived purely from shapes/strides/padding (the paper's "supplemental
    inputs", Section III-C).
    """
    base = (op.input_bytes / BYTES_SCALE, op.output_bytes / BYTES_SCALE)
    if op.op_type in _COMPUTE_FEATURE_OPS:
        macs = flop_count(op) / 2.0
        elements = max(
            sum(s.num_elements for s in op.inputs),
            sum(s.num_elements for s in op.outputs),
        )
        return base + (macs / MAC_SCALE, macs / elements / 1e3)
    return base


def feature_matrix(feature_rows) -> np.ndarray:
    """Stack per-op feature tuples into a 2-D design matrix."""
    return np.asarray(list(feature_rows), dtype=float)


def describe_features(op: Operation) -> Dict[str, float]:
    """Named features for one op (diagnostics, examples, tests)."""
    return dict(zip(feature_schema(op.op_type), features_for(op)))


def is_host_op(op_type: str) -> bool:
    """True when the op type has no GPU kernel (paper's "CPU operations")."""
    return op_def(op_type).category is OpCategory.HOST
