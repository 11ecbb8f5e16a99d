"""Tests for the OpGraph DAG container, including property-based checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.graph import OpGraph
from repro.graph.ops import Device, Operation
from repro.graph.shapes import TensorShape

_SHAPE = TensorShape.of(1, 4, 4, 1)


def _reshape(name, producers=()):
    return Operation(
        name=name, op_type="Reshape",
        inputs=(_SHAPE,), outputs=(_SHAPE,), input_ops=tuple(producers),
    )


def _chain_graph(n: int) -> OpGraph:
    g = OpGraph(name="chain", batch_size=1)
    prev = None
    for i in range(n):
        g.add(_reshape(f"op{i}", (prev,) if prev else ()))
        prev = f"op{i}"
    return g


class TestConstruction:
    def test_add_and_len(self):
        g = _chain_graph(3)
        assert len(g) == 3
        assert "op1" in g

    def test_duplicate_name_rejected(self):
        g = _chain_graph(1)
        with pytest.raises(GraphError):
            g.add(_reshape("op0"))

    def test_unknown_producer_rejected(self):
        g = OpGraph(name="g", batch_size=1)
        with pytest.raises(GraphError):
            g.add(_reshape("a", ("missing",)))

    def test_get_unknown_raises(self):
        with pytest.raises(GraphError):
            _chain_graph(1).get("nope")


class TestTopology:
    def test_topological_order_is_complete_and_valid(self):
        g = _chain_graph(5)
        order = g.topological_order()
        position = {op.name: i for i, op in enumerate(order)}
        assert len(order) == 5
        for op in g:
            for producer in op.input_ops:
                assert position[producer] < position[op.name]

    def test_diamond(self):
        g = OpGraph(name="diamond", batch_size=1)
        g.add(_reshape("a"))
        g.add(_reshape("b", ("a",)))
        g.add(_reshape("c", ("a",)))
        g.add(_reshape("d", ("b", "c")))
        order = [op.name for op in g.topological_order()]
        assert order.index("a") < order.index("b")
        assert order.index("a") < order.index("c")
        assert order.index("d") == 3

    def test_validate_empty_graph_fails(self):
        with pytest.raises(GraphError):
            OpGraph(name="e", batch_size=1).validate()

    def test_validate_bad_batch_fails(self):
        g = _chain_graph(1)
        g.batch_size = 0
        with pytest.raises(GraphError):
            g.validate()

    def test_validate_negative_params_fails(self):
        g = _chain_graph(1)
        g.num_parameters = -1
        with pytest.raises(GraphError):
            g.validate()


class TestQueries:
    def test_op_type_counts(self):
        g = _chain_graph(4)
        assert g.op_type_counts() == {"Reshape": 4}

    def test_ops_on_device(self, tiny_graph):
        gpu_ops = tiny_graph.ops_on(Device.GPU)
        cpu_ops = tiny_graph.ops_on(Device.CPU)
        assert len(gpu_ops) + len(cpu_ops) == len(tiny_graph)
        assert cpu_ops  # input pipeline present

    def test_ops_of_type(self, tiny_graph):
        convs = tiny_graph.ops_of_type("Conv2D")
        assert len(convs) == 2
        assert all(op.op_type == "Conv2D" for op in convs)

    def test_summary_mentions_params(self, tiny_graph):
        text = tiny_graph.summary()
        assert "tiny" in text and "Conv2D" in text


@given(st.integers(1, 40), st.randoms(use_true_random=False))
def test_random_dags_always_topologically_sortable(n, rng):
    """Any graph built producers-before-consumers is a DAG and sortable."""
    g = OpGraph(name="random", batch_size=1)
    names = []
    for i in range(n):
        k = rng.randint(0, min(3, len(names)))
        producers = rng.sample(names, k) if k else []
        name = f"n{i}"
        g.add(_reshape(name, producers))
        names.append(name)
    order = g.topological_order()
    assert len(order) == n
    position = {op.name: i for i, op in enumerate(order)}
    for op in g:
        assert all(position[p] < position[op.name] for p in op.input_ops)
