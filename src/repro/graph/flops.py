"""Per-operation FLOP counts and memory-traffic estimates.

Two consumers:

* the simulated hardware's ground-truth kernel-time law
  (:mod:`repro.hardware.kernel_model`), which uses a roofline over FLOPs and
  bytes, and
* the PALEO-style baseline predictor (:mod:`repro.core.baselines`), which the
  paper's related-work section describes as "a linear model of the number of
  floating-point operations in each iteration".

Ceer itself never uses FLOP counts — its features are input *sizes*
(Section IV-B) — so these calculators sit on the hardware/baseline side of
the simulation boundary.

Conventions: a fused multiply-add counts as 2 FLOPs; comparisons (max
pooling) count as 1. Memory traffic is the sum of input and output bytes
(each tensor read/written once — fused kernels, which is what TF emits for
these ops, do not re-read intermediates).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable

from repro.errors import ShapeError, UnknownOpError
from repro.graph.ops import Operation


def _out_elements(op: Operation) -> int:
    return sum(s.num_elements for s in op.outputs)


def _in_elements(op: Operation) -> int:
    return sum(s.num_elements for s in op.inputs)


def _conv2d_flops(op: Operation) -> int:
    """2 * output_elements * (KH * KW * C_reduced) for Conv2D and gradients.

    Both backprop ops perform the same multiply-accumulate volume as the
    forward pass (standard result; see e.g. the PALEO paper). The window
    size comes from the op's ``kernel`` attr; the reduced channel count from
    the relevant tensor shape:

    * ``Conv2D``: inputs are ``(x, filter)``; volume = |y| * KH*KW*IC.
    * ``Conv2DBackpropInput``: inputs are ``(dy, filter)``, output is dx;
      volume = |dy| * KH*KW*IC where IC = dx channels.
    * ``Conv2DBackpropFilter``: inputs are ``(x, dy, filter)``;
      volume = |dy| * KH*KW*IC where IC = x channels.
    """
    kernel = op.attrs.get("kernel")
    if kernel is None:
        raise ShapeError(f"{op.op_type} {op.name!r} is missing the 'kernel' attr")
    kh, kw = kernel
    if op.op_type == "Conv2D":
        out_elems = _out_elements(op)
        reduced_c = op.inputs[0].channels
    elif op.op_type == "Conv2DBackpropInput":
        out_elems = op.inputs[0].num_elements  # dy
        reduced_c = op.outputs[0].channels
    else:  # Conv2DBackpropFilter
        if len(op.inputs) < 2:
            raise ShapeError(f"{op.op_type} {op.name!r} needs (x, dy) input shapes")
        out_elems = op.inputs[1].num_elements  # dy
        reduced_c = op.inputs[0].channels
    return 2 * out_elems * kh * kw * reduced_c


def _matmul_flops(op: Operation) -> int:
    """2 * |output| * shared_dim, robust to transposed operand layouts.

    For any of the three matmuls a dense layer emits — forward (B,K)x(K,N),
    weight gradient (B,K)^T x (B,N), input gradient (B,N) x (K,N)^T — the
    product of input element counts divided by the output element count is
    the square of the contracted dimension.
    """
    if len(op.inputs) < 2 or op.inputs[0].rank != 2 or op.inputs[1].rank != 2:
        raise ShapeError(f"MatMul {op.name!r} needs two rank-2 inputs")
    a, b = op.inputs[0], op.inputs[1]
    out = op.outputs[0]
    shared_sq, rem = divmod(a.num_elements * b.num_elements, out.num_elements)
    shared = math.isqrt(shared_sq)
    if rem or shared * shared != shared_sq:
        raise ShapeError(
            f"MatMul {op.name!r} shapes are inconsistent: {a} x {b} -> {out}"
        )
    return 2 * out.num_elements * shared


def _pool_flops(op: Operation) -> int:
    """One op (compare or add) per window element per output element."""
    window = op.attrs.get("kernel", (2, 2))
    kh, kw = window
    grad = op.op_type.endswith("Grad")
    # Grad kernels touch every input element once plus routing logic.
    base = _in_elements(op) if grad else _out_elements(op) * kh * kw
    return int(base * (2 if grad else 1))


def _batchnorm_flops(op: Operation) -> int:
    # ~8 flops/element forward (normalise + scale/shift), ~13 backward
    per_elem = 13 if op.op_type.endswith("GradV3") else 8
    return _in_elements(op) * per_elem


def _lrn_flops(op: Operation) -> int:
    depth = int(op.attrs.get("depth_radius", 5))
    per_elem = (2 * depth + 1) * 3
    return _in_elements(op) * per_elem


def _elementwise_flops(op: Operation) -> int:
    return max(_in_elements(op), _out_elements(op))


def _softmax_flops(op: Operation) -> int:
    return 5 * _in_elements(op)  # exp, sum, div (+ log for the fused loss)


def _optimizer_flops(op: Operation) -> int:
    return 4 * _out_elements(op)  # momentum update: 2 muls + 2 adds per param


def _zero_flops(op: Operation) -> int:
    return 0


_FLOP_FNS: Dict[str, Callable[[Operation], int]] = {
    "Conv2D": _conv2d_flops,
    "Conv2DBackpropInput": _conv2d_flops,
    "Conv2DBackpropFilter": _conv2d_flops,
    "MatMul": _matmul_flops,
    "MaxPool": _pool_flops,
    "MaxPoolGrad": _pool_flops,
    "AvgPool": _pool_flops,
    "AvgPoolGrad": _pool_flops,
    "FusedBatchNormV3": _batchnorm_flops,
    "FusedBatchNormGradV3": _batchnorm_flops,
    "LRN": _lrn_flops,
    "LRNGrad": _lrn_flops,
    "Relu": _elementwise_flops,
    "ReluGrad": _elementwise_flops,
    "BiasAdd": _elementwise_flops,
    "BiasAddGrad": _elementwise_flops,
    "AddV2": _elementwise_flops,
    "AddN": _elementwise_flops,
    "ConcatV2": _zero_flops,
    "ConcatGrad": _zero_flops,
    "SparseSoftmaxCrossEntropyWithLogits": _softmax_flops,
    "Mul": _elementwise_flops,
    "Mean": _elementwise_flops,
    "Pad": _zero_flops,
    "ApplyMomentum": _optimizer_flops,
    "ApplyGradientDescent": _optimizer_flops,
    "Reshape": _zero_flops,
    "Slice": _zero_flops,
    "IteratorGetNext": _zero_flops,
    "DecodeAndResize": _elementwise_flops,
    "SparseToDense": _zero_flops,
    "OneHot": _zero_flops,
    "Cast": _elementwise_flops,
}


def flop_count(op: Operation) -> int:
    """Floating-point operations executed by ``op`` (0 for pure data movement)."""
    try:
        fn = _FLOP_FNS[op.op_type]
    except KeyError:
        raise UnknownOpError(f"no FLOP model for op type {op.op_type!r}")
    return int(fn(op))


def memory_bytes(op: Operation) -> int:
    """Bytes moved to/from device memory by ``op`` (inputs read + outputs written)."""
    return op.input_bytes + op.output_bytes


def graph_flops(ops: Iterable[Operation]) -> int:
    """Total FLOPs across an iterable of operations (PALEO baseline feature)."""
    return sum(flop_count(op) for op in ops)
