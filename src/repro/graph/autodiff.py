"""Reverse-mode expansion: replay the builder's tape to emit backward ops.

This pass produces the TensorFlow-style gradient operations that dominate
CNN training time in the paper's empirical study (Section III):
``Conv2DBackpropFilter``/``Conv2DBackpropInput``, ``MaxPoolGrad``/
``AvgPoolGrad``, ``FusedBatchNormGradV3``, ``ReluGrad``, ``BiasAddGrad``,
and the ``AddN`` gradient-accumulation ops that appear wherever a forward
tensor fans out to multiple consumers (residual shortcuts, Inception branch
inputs).

The entry point is :func:`append_backward`, called by
:meth:`GraphBuilder.finalize`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import GraphError
from repro.graph.layers import TapeEntry, TensorRef, activation_grad_op_type
from repro.graph.shapes import TensorShape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.builder import GraphBuilder


class _GradState:
    """Accumulates gradient refs per forward tensor during the reverse sweep."""

    def __init__(self, builder: "GraphBuilder") -> None:
        self.builder = builder
        self.pending: Dict[Tuple[str, int], List[TensorRef]] = {}

    def accumulate(self, forward_ref: TensorRef, grad_ref: TensorRef) -> None:
        self.pending.setdefault(forward_ref.key, []).append(grad_ref)

    def coalesce(self, forward_ref: TensorRef, scope: str) -> TensorRef:
        """Combine all gradient contributions for ``forward_ref``.

        Multiple contributions (forward fan-out) are summed with an ``AddN``
        op, exactly as TensorFlow's gradient builder does.
        """
        grads = self.pending.pop(forward_ref.key, [])
        if not grads:
            raise GraphError(
                f"no gradient reached tensor {forward_ref.op_name!r}; "
                f"is the graph connected to the loss?"
            )
        if len(grads) == 1:
            return grads[0]
        return self.builder.emit("AddN", scope, grads, [forward_ref.shape])[0]

    def has_gradient(self, forward_ref: TensorRef) -> bool:
        return forward_ref.key in self.pending


def append_backward(
    builder: "GraphBuilder", logits: TensorRef, dlogits: TensorRef
) -> Dict[str, TensorRef]:
    """Emit the backward pass; return a map from variable name to grad ref.

    Args:
        builder: the graph builder whose tape to differentiate.
        logits: the forward tensor the loss consumed.
        dlogits: the gradient of the loss w.r.t. ``logits`` (produced by the
            fused ``SparseSoftmaxCrossEntropyWithLogits`` op).
    """
    state = _GradState(builder)
    state.accumulate(logits, dlogits)
    var_grads: Dict[str, TensorRef] = {}
    input_key = builder._input_ref.key if builder._input_ref is not None else None

    for entry in reversed(builder.tape):
        if not state.has_gradient(entry.output):
            # Dead branch (output never consumed) — nothing to differentiate.
            continue
        scope = f"gradients/{entry.scope}"
        dy = state.coalesce(entry.output, scope)
        _BACKWARD_FNS[entry.kind](builder, entry, dy, scope, state, var_grads, input_key)

    return var_grads


# ---------------------------------------------------------------------------
# per-kind backward emitters
# ---------------------------------------------------------------------------

def _activation_backward(
    builder: "GraphBuilder", entry: TapeEntry, dy: TensorRef, scope: str
) -> TensorRef:
    """If the entry ended in an activation, emit its gradient op first."""
    activation = entry.attrs.get("activation")
    if not activation:
        return dy
    act_out = entry.intermediates["act_out"]
    grad_op = activation_grad_op_type(activation)
    return builder.emit(grad_op, scope, [dy, act_out], [dy.shape])[0]


def _propagate(
    builder: "GraphBuilder",
    state: _GradState,
    forward_ref: TensorRef,
    grad_ref: TensorRef,
    input_key: Optional[Tuple[str, int]],
) -> None:
    """Route a gradient to a forward tensor unless it is the network input."""
    if forward_ref.key == input_key:
        return  # data input: gradients are discarded, as in TF
    state.accumulate(forward_ref, grad_ref)


def _conv_backward(
    builder: "GraphBuilder",
    entry: TapeEntry,
    dy: TensorRef,
    scope: str,
    state: _GradState,
    var_grads: Dict[str, TensorRef],
    input_key: Optional[Tuple[str, int]],
) -> None:
    dy = _activation_backward(builder, entry, dy, scope)
    filters = entry.attrs["filters"]
    param_shape = TensorShape.of(filters)
    if entry.attrs.get("batch_norm"):
        bn_in = entry.intermediates["conv_out"]
        outs = builder.emit(
            "FusedBatchNormGradV3", scope, [dy, bn_in],
            [bn_in.shape, param_shape, param_shape],
            extra_input_shapes=[param_shape] * 2,
        )
        dy, dgamma, dbeta = outs
        var_grads[entry.variables["gamma"].name] = dgamma
        var_grads[entry.variables["beta"].name] = dbeta
    elif entry.attrs.get("use_bias"):
        dbias = builder.emit("BiasAddGrad", scope, [dy], [param_shape])[0]
        var_grads[entry.variables["bias"].name] = dbias

    conv_in = entry.intermediates["conv_in"]
    weights = entry.variables["weights"]
    attrs = {k: entry.attrs[k] for k in ("kernel", "strides", "padding")}
    dweights = builder.emit(
        "Conv2DBackpropFilter", scope, [conv_in, dy], [weights.shape],
        extra_input_shapes=[weights.shape], attrs=attrs,
    )[0]
    var_grads[weights.name] = dweights
    if conv_in.key != input_key:
        dx = builder.emit(
            "Conv2DBackpropInput", scope, [dy], [conv_in.shape],
            extra_input_shapes=[weights.shape], attrs=attrs,
        )[0]
        state.accumulate(conv_in, dx)


def _pool_backward(
    builder: "GraphBuilder",
    entry: TapeEntry,
    dy: TensorRef,
    scope: str,
    state: _GradState,
    var_grads: Dict[str, TensorRef],
    input_key: Optional[Tuple[str, int]],
) -> None:
    pool_in = entry.intermediates["pool_in"]
    pool_out = entry.intermediates["pool_out"]
    attrs = {k: entry.attrs[k] for k in ("kernel", "strides", "padding")}
    if entry.attrs["pool_kind"] == "max":
        dx = builder.emit(
            "MaxPoolGrad", scope, [pool_in, pool_out, dy], [pool_in.shape], attrs=attrs
        )[0]
    else:
        dx = builder.emit(
            "AvgPoolGrad", scope, [dy], [pool_in.shape], attrs=attrs
        )[0]
    _propagate(builder, state, pool_in, dx, input_key)


def _lrn_backward(
    builder: "GraphBuilder",
    entry: TapeEntry,
    dy: TensorRef,
    scope: str,
    state: _GradState,
    var_grads: Dict[str, TensorRef],
    input_key: Optional[Tuple[str, int]],
) -> None:
    lrn_in = entry.intermediates["lrn_in"]
    lrn_out = entry.intermediates["lrn_out"]
    dx = builder.emit(
        "LRNGrad", scope, [dy, lrn_in, lrn_out], [lrn_in.shape],
        attrs={"depth_radius": entry.attrs["depth_radius"]},
    )[0]
    _propagate(builder, state, lrn_in, dx, input_key)


def _dense_backward(
    builder: "GraphBuilder",
    entry: TapeEntry,
    dy: TensorRef,
    scope: str,
    state: _GradState,
    var_grads: Dict[str, TensorRef],
    input_key: Optional[Tuple[str, int]],
) -> None:
    dy = _activation_backward(builder, entry, dy, scope)
    if entry.attrs.get("use_bias"):
        units = entry.attrs["units"]
        dbias = builder.emit("BiasAddGrad", scope, [dy], [TensorShape.of(units)])[0]
        var_grads[entry.variables["bias"].name] = dbias
    dense_in = entry.intermediates["dense_in"]
    weights = entry.variables["weights"]
    dweights = builder.emit(
        "MatMul", scope, [dense_in, dy], [weights.shape], attrs={"transpose_a": True}
    )[0]
    var_grads[weights.name] = dweights
    if dense_in.key != input_key:
        dx = builder.emit(
            "MatMul", scope, [dy], [dense_in.shape],
            extra_input_shapes=[weights.shape], attrs={"transpose_b": True},
        )[0]
        state.accumulate(dense_in, dx)


def _concat_backward(
    builder: "GraphBuilder",
    entry: TapeEntry,
    dy: TensorRef,
    scope: str,
    state: _GradState,
    var_grads: Dict[str, TensorRef],
    input_key: Optional[Tuple[str, int]],
) -> None:
    out_shapes = [r.shape for r in entry.inputs]
    slices = builder.emit("ConcatGrad", scope, [dy], out_shapes,
                          attrs={"axis": entry.attrs["axis"]})
    for forward_ref, grad_ref in zip(entry.inputs, slices):
        _propagate(builder, state, forward_ref, grad_ref, input_key)


def _add_backward(
    builder: "GraphBuilder",
    entry: TapeEntry,
    dy: TensorRef,
    scope: str,
    state: _GradState,
    var_grads: Dict[str, TensorRef],
    input_key: Optional[Tuple[str, int]],
) -> None:
    dy = _activation_backward(builder, entry, dy, scope)
    for forward_ref in entry.inputs:
        _propagate(builder, state, forward_ref, dy, input_key)


def _dropout_backward(
    builder: "GraphBuilder",
    entry: TapeEntry,
    dy: TensorRef,
    scope: str,
    state: _GradState,
    var_grads: Dict[str, TensorRef],
    input_key: Optional[Tuple[str, int]],
) -> None:
    x = entry.inputs[0]
    dx = builder.emit("Mul", scope, [dy], [x.shape], extra_input_shapes=[x.shape])[0]
    _propagate(builder, state, x, dx, input_key)


def _reshape_backward(
    builder: "GraphBuilder",
    entry: TapeEntry,
    dy: TensorRef,
    scope: str,
    state: _GradState,
    var_grads: Dict[str, TensorRef],
    input_key: Optional[Tuple[str, int]],
) -> None:
    x = entry.inputs[0]
    dx = builder.emit("Reshape", scope, [dy], [x.shape])[0]
    _propagate(builder, state, x, dx, input_key)


def _gap_backward(
    builder: "GraphBuilder",
    entry: TapeEntry,
    dy: TensorRef,
    scope: str,
    state: _GradState,
    var_grads: Dict[str, TensorRef],
    input_key: Optional[Tuple[str, int]],
) -> None:
    # Gradient of a spatial mean: broadcast-and-scale, lowered to a Mul.
    x = entry.inputs[0]
    dx = builder.emit("Mul", scope, [dy], [x.shape])[0]
    _propagate(builder, state, x, dx, input_key)


def _pad_backward(
    builder: "GraphBuilder",
    entry: TapeEntry,
    dy: TensorRef,
    scope: str,
    state: _GradState,
    var_grads: Dict[str, TensorRef],
    input_key: Optional[Tuple[str, int]],
) -> None:
    x = entry.inputs[0]
    dx = builder.emit("Slice", scope, [dy], [x.shape])[0]
    _propagate(builder, state, x, dx, input_key)


#: Per-kind backward emitter signature.
BackwardFn = Callable[
    ["GraphBuilder", TapeEntry, TensorRef, str, _GradState,
     Dict[str, TensorRef], Optional[Tuple[str, int]]],
    None,
]

_BACKWARD_FNS: Dict[str, BackwardFn] = {
    "conv": _conv_backward,
    "pool": _pool_backward,
    "lrn": _lrn_backward,
    "dense": _dense_backward,
    "concat": _concat_backward,
    "add": _add_backward,
    "dropout": _dropout_backward,
    "reshape": _reshape_backward,
    "global_avg_pool": _gap_backward,
    "pad": _pad_backward,
}
