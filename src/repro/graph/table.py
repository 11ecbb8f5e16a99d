"""Per-graph operation table: one numpy column per static op property.

The simulator's roofline and its timing records read the same shape
arithmetic — byte and element counts, FLOPs — of the same operations,
once per GPU. An :class:`OpTable` does that arithmetic once per graph;
:meth:`OpGraph.op_table` caches it until the next :meth:`OpGraph.add`,
the way :meth:`OpGraph.content_digest` is cached.

Every column is in ``graph.operations`` order and equals what the per-op
functions (:attr:`Operation.input_bytes`, :func:`flop_count`,
:func:`memory_bytes`, ...) return for that op. Integer columns are int64
and read-only.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.graph.flops import flop_count
from repro.graph.ops import Device, OpCategory, Operation

#: Device and category of a code in :attr:`OpTable.device` and
#: :attr:`OpTable.category`.
DEVICES: Tuple[Device, ...] = tuple(Device)
CATEGORIES: Tuple[OpCategory, ...] = tuple(OpCategory)


def _column(values, dtype=np.int64) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column


class OpTable:
    """Static per-op columns of one graph.

    Attributes:
        names: op names.
        op_types: op type per op.
        type_names: the distinct op types, in first-appearance order.
        type_code: index of each op's type into ``type_names``.
        device: index of each op's device into :data:`DEVICES`.
        category: index of each op's category into :data:`CATEGORIES`.
        input_bytes, output_bytes: bytes across data inputs and outputs.
        input_elements, output_elements: elements across inputs and outputs.
        flops: :func:`flop_count` per op.
        memory_bytes: :func:`memory_bytes` per op.
    """

    def __init__(self, ops: Sequence[Operation]) -> None:
        self.names: Tuple[str, ...] = tuple(op.name for op in ops)
        self.op_types: Tuple[str, ...] = tuple(op.op_type for op in ops)
        self.type_names: Tuple[str, ...] = tuple(dict.fromkeys(self.op_types))
        code_of = {name: code for code, name in enumerate(self.type_names)}
        self.type_code = _column([code_of[t] for t in self.op_types], np.intp)
        self.device = _column([DEVICES.index(op.device) for op in ops], np.intp)
        self.category = _column(
            [CATEGORIES.index(op.category) for op in ops], np.intp
        )
        self.input_bytes = _column([op.input_bytes for op in ops])
        self.output_bytes = _column([op.output_bytes for op in ops])
        self.input_elements = _column(
            [sum(s.num_elements for s in op.inputs) for op in ops]
        )
        self.output_elements = _column(
            [sum(s.num_elements for s in op.outputs) for op in ops]
        )
        self.flops = _column([flop_count(op) for op in ops])
        self.memory_bytes = _column(self.input_bytes + self.output_bytes)

    def __len__(self) -> int:
        return len(self.names)

    def per_type(self, values: Sequence) -> np.ndarray:
        """Broadcast one value per entry of ``type_names`` to every op."""
        return np.asarray(values)[self.type_code]
