"""Building blocks shared by the graph builder and the autodiff pass.

The builder (:mod:`repro.graph.builder`) exposes a functional, Keras-like
API. Internally it records a *tape* of :class:`TapeEntry` records — one per
layer-level primitive (conv block, pooling, dense, concat, ...) — which the
autodiff pass (:mod:`repro.graph.autodiff`) replays in reverse to emit the
TensorFlow-style backward operations (``Conv2DBackpropFilter``,
``MaxPoolGrad``, ``FusedBatchNormGradV3``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.graph.shapes import TensorShape


@dataclass(frozen=True)
class TensorRef:
    """A symbolic handle to the output of an operation in the graph.

    ``op_name`` identifies the producing node; ``shape`` is the produced
    tensor's shape; ``index`` selects among multi-output ops.
    """

    op_name: str
    shape: TensorShape
    index: int = 0

    @property
    def key(self) -> Tuple[str, int]:
        return (self.op_name, self.index)


@dataclass(frozen=True)
class VariableSpec:
    """A trainable variable (weights, bias, or batch-norm scale/offset)."""

    name: str
    shape: TensorShape

    @property
    def num_parameters(self) -> int:
        return self.shape.num_elements


@dataclass
class TapeEntry:
    """One differentiable layer-level step recorded during forward building.

    Attributes:
        kind: layer primitive kind — one of ``conv``, ``pool``, ``lrn``,
            ``dense``, ``concat``, ``add``, ``dropout``, ``reshape``,
            ``global_avg_pool``, ``pad``.
        inputs: forward-input refs (activations only; variables are in
            ``variables``).
        output: the final forward output ref of this step.
        variables: trainable variables owned by this step, keyed by role
            (``"weights"``, ``"bias"``, ``"gamma"``, ``"beta"``).
        intermediates: named refs to interior tensors the backward pass
            needs (e.g. pre-activation output, the pool's input).
        attrs: layer configuration (kernel, strides, padding, activation,
            batch_norm, axis, rate, ...).
        scope: name scope used to derive backward op names.
        stop_gradient: when true, no gradient is propagated to ``inputs``
            (used for the network input, which is data, not a variable).
    """

    kind: str
    inputs: Tuple[TensorRef, ...]
    output: TensorRef
    scope: str
    variables: Dict[str, VariableSpec] = field(default_factory=dict)
    intermediates: Dict[str, TensorRef] = field(default_factory=dict)
    attrs: Dict[str, object] = field(default_factory=dict)
    stop_gradient: bool = False


#: Activation function names the builder accepts. ``None`` means linear.
SUPPORTED_ACTIVATIONS = ("relu", None)


def activation_op_type(activation: Optional[str]) -> Optional[str]:
    """Map an activation name to its forward op type (``None`` -> no op)."""
    if activation is None:
        return None
    mapping = {"relu": "Relu"}
    if activation not in mapping:
        raise ValueError(
            f"unsupported activation {activation!r}; expected one of {SUPPORTED_ACTIVATIONS}"
        )
    return mapping[activation]


def activation_grad_op_type(activation: str) -> str:
    """Backward op type for an activation."""
    return {"relu": "ReluGrad"}[activation]
