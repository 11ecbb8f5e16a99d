"""The operation-graph container: a validated DAG of :class:`Operation` nodes.

An :class:`OpGraph` is what the rest of the system consumes: the simulator
iterates its nodes to produce timings, the profiler extracts per-op features
from it, and Ceer's estimator sums per-op predictions over it (Eq. (1)/(2)
of the paper). The graph also carries the trainable-parameter count, which
is the sole input to Ceer's communication-overhead model (Section IV-C).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import GraphError
from repro.graph.ops import Device, OpCategory, Operation
from repro.graph.table import OpTable


@dataclass
class OpGraph:
    """A directed acyclic graph of operations for one training iteration.

    Attributes:
        name: model name (e.g. ``"inception_v3"``).
        batch_size: per-device batch size the graph was built for.
        num_parameters: total trainable parameters (weights + biases + BN
            scales/offsets) of the model.
        num_variables: number of trainable weight *tensors* (each one is a
            separate synchronisation unit under data parallelism).
    """

    name: str
    batch_size: int
    num_parameters: int = 0
    num_variables: int = 0
    _ops: Dict[str, Operation] = field(default_factory=dict)
    _topo_cache: Optional[List[Operation]] = field(default=None, repr=False)
    _digest_cache: Optional[str] = field(default=None, repr=False, compare=False)
    _table_cache: Optional[OpTable] = field(default=None, repr=False, compare=False)

    # -- construction -----------------------------------------------------
    def add(self, op: Operation) -> Operation:
        """Add an operation; producer ops must already be present."""
        if op.name in self._ops:
            raise GraphError(f"duplicate operation name {op.name!r} in graph {self.name!r}")
        for producer in op.input_ops:
            if producer not in self._ops:
                raise GraphError(
                    f"operation {op.name!r} references unknown producer {producer!r}; "
                    f"add producers before consumers"
                )
        self._ops[op.name] = op
        self._topo_cache = None
        self._digest_cache = None
        self._table_cache = None
        return op

    def extend(self, ops: Iterable[Operation]) -> None:
        for op in ops:
            self.add(op)

    # -- accessors -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops.values())

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def get(self, name: str) -> Operation:
        try:
            return self._ops[name]
        except KeyError:
            raise GraphError(f"no operation named {name!r} in graph {self.name!r}")

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """All operations in insertion order (a valid topological order,
        since producers must be added before consumers)."""
        return tuple(self._ops.values())

    def content_digest(self) -> str:
        """SHA-256 over every operation's full description, in order.

        Two graphs with equal digests simulate identically whatever their
        names; cached until the next :meth:`add`.
        """
        if self._digest_cache is None:
            text = "\n".join(repr(op) for op in self._ops.values())
            self._digest_cache = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self._digest_cache

    def op_table(self) -> OpTable:
        """Every operation's static columns (:class:`OpTable`), built once;
        cached until the next :meth:`add`."""
        if self._table_cache is None:
            self._table_cache = OpTable(self.operations)
        return self._table_cache

    def ops_on(self, device: Device) -> Tuple[Operation, ...]:
        return tuple(op for op in self._ops.values() if op.device is device)

    def ops_of_type(self, op_type: str) -> Tuple[Operation, ...]:
        return tuple(op for op in self._ops.values() if op.op_type == op_type)

    def op_type_counts(self) -> Dict[str, int]:
        """Histogram of op types — the paper's observation that CNNs share a
        small set of unique op types (Section III-A) is checkable from this."""
        counts: Dict[str, int] = {}
        for op in self._ops.values():
            counts[op.op_type] = counts.get(op.op_type, 0) + 1
        return counts

    def category_counts(self) -> Dict[OpCategory, int]:
        counts: Dict[OpCategory, int] = {}
        for op in self._ops.values():
            counts[op.category] = counts.get(op.category, 0) + 1
        return counts

    # -- validation ---------------------------------------------------------
    def topological_order(self) -> List[Operation]:
        """Kahn's algorithm topological sort; raises on cycles.

        Insertion order is already topological by construction, but this
        method re-derives and *validates* the ordering independently, which
        the graph tests rely on.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        indegree = {name: len(op.input_ops) for name, op in self._ops.items()}
        consumers: Dict[str, List[str]] = {name: [] for name in self._ops}
        for op in self._ops.values():
            for producer in op.input_ops:
                consumers[producer].append(op.name)
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: List[Operation] = []
        while ready:
            name = ready.pop()
            order.append(self._ops[name])
            for consumer in consumers[name]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self._ops):
            stuck = sorted(name for name, deg in indegree.items() if deg > 0)
            raise GraphError(f"graph {self.name!r} has a cycle involving {stuck[:5]}")
        self._topo_cache = order
        return order

    def validate(self) -> None:
        """Run all structural checks; raises :class:`GraphError` on failure."""
        if self.batch_size <= 0:
            raise GraphError(f"graph {self.name!r} has non-positive batch size")
        if self.num_parameters < 0:
            raise GraphError(f"graph {self.name!r} has negative parameter count")
        if not self._ops:
            raise GraphError(f"graph {self.name!r} is empty")
        self.topological_order()

    # -- summaries --------------------------------------------------------------
    def summary(self) -> str:
        """A human-readable multi-line summary (used by examples)."""
        counts = self.op_type_counts()
        lines = [
            f"OpGraph {self.name!r}: {len(self)} ops, "
            f"{len(counts)} unique op types, "
            f"{self.num_parameters / 1e6:.1f}M parameters, batch={self.batch_size}",
        ]
        for op_type, n in sorted(counts.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {op_type:<40s} x{n}")
        return "\n".join(lines)
