"""Tests for the shared layer/tape building blocks."""

import pytest

from repro.graph.layers import (
    SUPPORTED_ACTIVATIONS,
    TapeEntry,
    TensorRef,
    VariableSpec,
    activation_grad_op_type,
    activation_op_type,
)
from repro.graph.shapes import TensorShape


class TestActivationMapping:
    def test_none_means_no_op(self):
        assert activation_op_type(None) is None

    @pytest.mark.parametrize("name,op_type", [("relu", "Relu")])
    def test_forward_mapping(self, name, op_type):
        assert activation_op_type(name) == op_type

    @pytest.mark.parametrize("name,op_type", [("relu", "ReluGrad")])
    def test_backward_mapping(self, name, op_type):
        assert activation_grad_op_type(name) == op_type

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            activation_op_type("swish")

    def test_supported_list_consistent(self):
        for name in SUPPORTED_ACTIVATIONS:
            if name is not None:
                assert activation_op_type(name)


class TestTensorRef:
    def test_key(self):
        ref = TensorRef("op/a", TensorShape.of(2, 2), index=1)
        assert ref.key == ("op/a", 1)

    def test_default_index(self):
        assert TensorRef("x", TensorShape.of(1)).index == 0

    def test_hashable_and_frozen(self):
        ref = TensorRef("x", TensorShape.of(1))
        assert ref in {ref}
        with pytest.raises(Exception):
            ref.op_name = "y"


class TestVariableSpec:
    def test_num_parameters(self):
        var = VariableSpec("w", TensorShape.of(3, 3, 16, 32))
        assert var.num_parameters == 3 * 3 * 16 * 32


class TestTapeEntry:
    def test_defaults(self):
        ref = TensorRef("x", TensorShape.of(1))
        entry = TapeEntry(kind="reshape", inputs=(ref,), output=ref, scope="s")
        assert entry.variables == {}
        assert entry.intermediates == {}
        assert entry.attrs == {}
        assert entry.stop_gradient is False
