"""The per-graph op table and the column roofline equal the per-op functions.

Every column and every column-law value is compared with ``==``, not a
tolerance: the simulator reads the table in place of the per-op calls,
so any difference would move a simulated measurement.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.graph.flops import flop_count, memory_bytes
from repro.graph.ops import Device, OpCategory, Operation
from repro.graph.shapes import TensorShape
from repro.graph.table import CATEGORIES, DEVICES
from repro.hardware.gpus import GPU_KEYS, gpu_spec
from repro.hardware.kernel_model import (
    gpu_base_time_us,
    gpu_base_times_us,
    host_base_time_us,
    host_base_times_us,
)
from repro.models.zoo import build_model
from tests.test_property_random_models import _architectures, _build_random


def _on_host(op):
    return op.device is Device.CPU or op.category is OpCategory.HOST


def assert_table_matches_ops(graph):
    ops = graph.operations
    table = graph.op_table()
    assert len(table) == len(ops)
    assert table.names == tuple(op.name for op in ops)
    assert table.op_types == tuple(op.op_type for op in ops)
    assert [table.type_names[c] for c in table.type_code.tolist()] == [
        op.op_type for op in ops
    ]
    assert [DEVICES[c] for c in table.device.tolist()] == [op.device for op in ops]
    assert [CATEGORIES[c] for c in table.category.tolist()] == [
        op.category for op in ops
    ]
    assert table.input_bytes.tolist() == [op.input_bytes for op in ops]
    assert table.output_bytes.tolist() == [op.output_bytes for op in ops]
    assert table.input_elements.tolist() == [
        sum(s.num_elements for s in op.inputs) for op in ops
    ]
    assert table.output_elements.tolist() == [
        sum(s.num_elements for s in op.outputs) for op in ops
    ]
    assert table.flops.tolist() == [flop_count(op) for op in ops]
    assert table.memory_bytes.tolist() == [memory_bytes(op) for op in ops]

    host = np.array([i for i, op in enumerate(ops) if _on_host(op)], dtype=np.intp)
    assert host_base_times_us(table, host).tolist() == [
        host_base_time_us(ops[i]) for i in host.tolist()
    ]
    on_gpu = np.array([i for i, op in enumerate(ops) if not _on_host(op)],
                      dtype=np.intp)
    for gpu_key in GPU_KEYS:
        gpu = gpu_spec(gpu_key)
        assert gpu_base_times_us(table, on_gpu, gpu).tolist() == [
            gpu_base_time_us(ops[i], gpu) for i in on_gpu.tolist()
        ]


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_architectures)
def test_random_graph_columns_equal_per_op_functions(layers):
    assert_table_matches_ops(_build_random(layers))


@pytest.mark.parametrize("model_name", ["alexnet", "inception_v3"])
def test_zoo_columns_equal_per_op_functions(model_name):
    """alexnet brings LRN (a quadratic, tweaked type); inception_v3 every
    concat, pooling and normalisation shape of the zoo."""
    assert_table_matches_ops(build_model(model_name, batch_size=16))


def test_columns_are_read_only(tiny_graph):
    table = tiny_graph.op_table()
    with pytest.raises(ValueError):
        table.flops[0] = 1


def test_add_invalidates_the_table():
    graph = _build_random(["conv"])
    before = graph.op_table()
    assert graph.op_table() is before
    graph.add(Operation(
        name="extra/shape", op_type="Shape", inputs=(),
        outputs=(TensorShape.of(4),), device=Device.CPU,
    ))
    after = graph.op_table()
    assert after is not before
    assert len(after) == len(before) + 1
    assert after.names[-1] == "extra/shape"
