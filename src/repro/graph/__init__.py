"""CNN op-graph IR: shapes, operations, DAG container, builder, autodiff.

This package is the reproduction's substitute for TensorFlow's graph layer
(see DESIGN.md, Section 2): it produces, for any CNN architecture, the DAG
of TF-style training operations (forward, backward, optimizer, and host-side
input pipeline) with fully resolved shapes — the interface Ceer consumes.
"""

from repro.graph.builder import GraphBuilder
from repro.graph.flops import flop_count, graph_flops, memory_bytes
from repro.graph.graph import OpGraph
from repro.graph.layers import TensorRef, VariableSpec
from repro.graph.ops import (
    CPU_OP_TYPES,
    OP_REGISTRY,
    Device,
    OpCategory,
    OpDef,
    Operation,
    op_def,
)
from repro.graph.serialization import (
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)
from repro.graph.shapes import TensorShape, conv_output_hw, dtype_size, total_bytes

__all__ = [
    "GraphBuilder",
    "OpGraph",
    "Operation",
    "OpDef",
    "OpCategory",
    "Device",
    "OP_REGISTRY",
    "CPU_OP_TYPES",
    "op_def",
    "TensorShape",
    "TensorRef",
    "VariableSpec",
    "conv_output_hw",
    "dtype_size",
    "total_bytes",
    "flop_count",
    "graph_flops",
    "memory_bytes",
    "save_graph",
    "load_graph",
    "graph_to_dict",
    "graph_from_dict",
]
