"""Operation types and operation instances for the CNN op-graph IR.

The paper (Section II) models a CNN, as TensorFlow does, as a DAG whose
nodes are *operations* — ``Conv2D``, ``MaxPoolGrad``, ``ApplyMomentum``,
``SparseToDense``, ... — and whose edges carry tensors. This module defines:

* :class:`OpCategory` — coarse functional categories. The simulated
  hardware's ground-truth timing law is parameterised per
  (category, device), mirroring the paper's observation that e.g. pooling
  ops are memory-intensive while convolutions are compute-intensive
  (Section III-B).
* :class:`OpDef` — registered metadata for each operation *type*.
* :data:`OP_REGISTRY` — the registry of all op types the IR can emit.
* :class:`Operation` — one node instance in a concrete graph, with fully
  resolved input/output shapes.

Ceer itself never reads :class:`OpCategory`; it classifies operations as
heavy/light/CPU purely from profiled compute times (Section IV-B), exactly
as the paper does. Categories exist only on the "hardware" side of the
simulation boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import UnknownOpError
from repro.graph.shapes import TensorShape


class Device(str, enum.Enum):
    """Where an operation executes. The paper's CPU ops (e.g. SparseToDense)
    lack GPU kernels and always run on the host CPU."""

    GPU = "GPU"
    CPU = "CPU"


class OpCategory(str, enum.Enum):
    """Functional category of an op type (ground-truth side only)."""

    #: Dense linear algebra: convolutions, their gradients, matmuls.
    CONV_COMPUTE = "conv_compute"
    #: Window reductions: {Max,Avg}Pool and their gradients. Memory-bound.
    POOLING = "pooling"
    #: Batch normalisation forward/backward; bandwidth-heavy fused kernels.
    NORMALIZATION = "normalization"
    #: Streaming elementwise math (activations, adds, bias, concat, loss).
    ELEMENTWISE = "elementwise"
    #: Parameter update kernels (one per trainable variable).
    OPTIMIZER = "optimizer"
    #: Shape bookkeeping and copies; negligible math.
    DATA_MOVEMENT = "data_movement"
    #: Host-side ops with no GPU kernel (input pipeline, sparse ops).
    HOST = "host"


@dataclass(frozen=True)
class OpDef:
    """Registered metadata for an operation type.

    Attributes:
        name: TensorFlow-style op type name (e.g. ``"Conv2DBackpropFilter"``).
        category: functional category (see :class:`OpCategory`).
        device: where instances of this type execute.
        gradient_of: for backward ops, the forward op type they differentiate;
            purely informational.
        description: one-line human description.
    """

    name: str
    category: OpCategory
    device: Device = Device.GPU
    gradient_of: Optional[str] = None
    description: str = ""


OP_REGISTRY: Dict[str, OpDef] = {}


def register_op(op_def: OpDef) -> OpDef:
    """Add an :class:`OpDef` to the global registry (idempotent by name)."""
    OP_REGISTRY[op_def.name] = op_def
    return op_def


def op_def(op_type: str) -> OpDef:
    """Look up an op type, raising :class:`UnknownOpError` when absent."""
    try:
        return OP_REGISTRY[op_type]
    except KeyError:
        raise UnknownOpError(
            f"op type {op_type!r} is not registered; known types: {sorted(OP_REGISTRY)}"
        )


def _register_all() -> None:
    """Populate the registry with every op type the graph builders emit."""
    defs = [
        # --- convolution / dense compute -------------------------------
        OpDef("Conv2D", OpCategory.CONV_COMPUTE,
              description="2-D convolution over NHWC input with HWIO filters"),
        OpDef("Conv2DBackpropInput", OpCategory.CONV_COMPUTE, gradient_of="Conv2D",
              description="gradient of Conv2D w.r.t. its input"),
        OpDef("Conv2DBackpropFilter", OpCategory.CONV_COMPUTE, gradient_of="Conv2D",
              description="gradient of Conv2D w.r.t. its filters"),
        OpDef("MatMul", OpCategory.CONV_COMPUTE,
              description="dense matrix multiply (fully-connected layers)"),
        # --- pooling -----------------------------------------------------
        OpDef("MaxPool", OpCategory.POOLING,
              description="max pooling over spatial windows"),
        OpDef("MaxPoolGrad", OpCategory.POOLING, gradient_of="MaxPool",
              description="gradient of MaxPool"),
        OpDef("AvgPool", OpCategory.POOLING,
              description="average pooling over spatial windows"),
        OpDef("AvgPoolGrad", OpCategory.POOLING, gradient_of="AvgPool",
              description="gradient of AvgPool"),
        # --- normalisation ------------------------------------------------
        OpDef("FusedBatchNormV3", OpCategory.NORMALIZATION,
              description="fused batch normalisation, forward"),
        OpDef("FusedBatchNormGradV3", OpCategory.NORMALIZATION,
              gradient_of="FusedBatchNormV3",
              description="fused batch normalisation, backward"),
        OpDef("LRN", OpCategory.NORMALIZATION,
              description="local response normalisation (AlexNet-era)"),
        OpDef("LRNGrad", OpCategory.NORMALIZATION, gradient_of="LRN",
              description="gradient of LRN"),
        # --- elementwise / streaming --------------------------------------
        OpDef("Relu", OpCategory.ELEMENTWISE,
              description="rectified linear activation"),
        OpDef("ReluGrad", OpCategory.ELEMENTWISE, gradient_of="Relu",
              description="gradient of Relu"),
        OpDef("BiasAdd", OpCategory.ELEMENTWISE,
              description="add a per-channel bias vector"),
        OpDef("BiasAddGrad", OpCategory.ELEMENTWISE, gradient_of="BiasAdd",
              description="reduce a gradient over all but the channel axis"),
        OpDef("AddV2", OpCategory.ELEMENTWISE,
              description="elementwise addition (residual shortcuts)"),
        OpDef("AddN", OpCategory.ELEMENTWISE,
              description="sum of N tensors (gradient accumulation)"),
        OpDef("ConcatV2", OpCategory.ELEMENTWISE,
              description="concatenation along the channel axis"),
        OpDef("ConcatGrad", OpCategory.ELEMENTWISE, gradient_of="ConcatV2",
              description="slice a gradient back into concat inputs"),
        OpDef("SparseSoftmaxCrossEntropyWithLogits", OpCategory.ELEMENTWISE,
              description="fused softmax cross-entropy loss with int labels"),
        OpDef("Mul", OpCategory.ELEMENTWISE,
              description="elementwise multiply (dropout scaling etc.)"),
        OpDef("Mean", OpCategory.ELEMENTWISE,
              description="mean reduction (global average pooling, loss mean)"),
        OpDef("Pad", OpCategory.ELEMENTWISE,
              description="pad a tensor with zeros"),
        # --- optimizer ------------------------------------------------------
        OpDef("ApplyMomentum", OpCategory.OPTIMIZER,
              description="SGD-with-momentum parameter update"),
        OpDef("ApplyGradientDescent", OpCategory.OPTIMIZER,
              description="plain SGD parameter update"),
        # --- data movement ---------------------------------------------------
        OpDef("Reshape", OpCategory.DATA_MOVEMENT,
              description="metadata-only shape change"),
        OpDef("Slice", OpCategory.DATA_MOVEMENT,
              description="extract a contiguous sub-tensor"),
        # --- host (CPU-only) ---------------------------------------------------
        OpDef("IteratorGetNext", OpCategory.HOST, Device.CPU,
              description="input pipeline: fetch the next training batch"),
        OpDef("DecodeAndResize", OpCategory.HOST, Device.CPU,
              description="input pipeline: decode and resize raw samples"),
        OpDef("SparseToDense", OpCategory.HOST, Device.CPU,
              description="densify sparse labels (no GPU kernel; paper IV-B)"),
        OpDef("OneHot", OpCategory.HOST, Device.CPU,
              description="one-hot encode integer labels"),
        OpDef("Cast", OpCategory.HOST, Device.CPU,
              description="dtype cast on the host"),
    ]
    for d in defs:
        register_op(d)


_register_all()


#: Op types pinned to the CPU (no GPU implementation), per the registry.
CPU_OP_TYPES = frozenset(name for name, d in OP_REGISTRY.items() if d.device is Device.CPU)


@dataclass(frozen=True)
class Operation:
    """One node of a concrete CNN op graph.

    Attributes:
        name: unique node name, hierarchical like TF (``"conv1/Conv2D"``).
        op_type: key into :data:`OP_REGISTRY`.
        inputs: shapes of data inputs (images, filters, gradients, ...). The
            byte sizes of these shapes are the input-size features Ceer's
            per-op regressions consume (paper, Section IV-B).
        outputs: shapes of produced tensors.
        input_ops: names of producer nodes, defining the DAG edges.
        attrs: supplemental attributes (kernel/stride/padding, axis, ...);
            values must be hashable primitives or tuples.
        device: execution placement, defaulted from the op registry.
    """

    name: str
    op_type: str
    inputs: Tuple[TensorShape, ...]
    outputs: Tuple[TensorShape, ...]
    input_ops: Tuple[str, ...] = ()
    attrs: Mapping[str, object] = field(default_factory=dict)
    device: Device = Device.GPU

    def __post_init__(self) -> None:
        op_def(self.op_type)  # validate against the registry
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))
        if not isinstance(self.outputs, tuple):
            object.__setattr__(self, "outputs", tuple(self.outputs))
        if not isinstance(self.input_ops, tuple):
            object.__setattr__(self, "input_ops", tuple(self.input_ops))

    @property
    def category(self) -> OpCategory:
        return op_def(self.op_type).category

    @property
    def input_bytes(self) -> int:
        """Total bytes across data inputs — Ceer's primary size feature."""
        return sum(s.num_bytes for s in self.inputs)

    @property
    def output_bytes(self) -> int:
        return sum(s.num_bytes for s in self.outputs)

    def __str__(self) -> str:
        ins = ", ".join(str(s) for s in self.inputs)
        outs = ", ".join(str(s) for s in self.outputs)
        return f"{self.name} = {self.op_type}({ins}) -> {outs} @{self.device.value}"
