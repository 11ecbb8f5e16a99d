"""Tests for the op-type registry and Operation instances."""

import pytest

from repro.errors import UnknownOpError
from repro.graph import flops
from repro.graph.builder import GraphBuilder
from repro.graph.ops import (
    CPU_OP_TYPES,
    OP_REGISTRY,
    Device,
    OpCategory,
    OpDef,
    Operation,
    op_def,
    register_op,
)
from repro.graph.shapes import TensorShape
from repro.hardware import noise
from repro.models.zoo import build_model, model_names


class TestRegistry:
    def test_core_training_ops_registered(self):
        for name in (
            "Conv2D", "Conv2DBackpropFilter", "Conv2DBackpropInput",
            "MaxPool", "MaxPoolGrad", "AvgPool", "AvgPoolGrad",
            "FusedBatchNormV3", "FusedBatchNormGradV3",
            "Relu", "ReluGrad", "BiasAdd", "BiasAddGrad",
            "AddV2", "AddN", "ConcatV2", "MatMul",
            "ApplyMomentum", "SparseToDense", "IteratorGetNext",
        ):
            assert name in OP_REGISTRY

    def test_lookup_unknown_raises(self):
        with pytest.raises(UnknownOpError):
            op_def("Conv3D")

    def test_gradient_links_point_to_registered_forward_ops(self):
        for definition in OP_REGISTRY.values():
            if definition.gradient_of is not None:
                assert definition.gradient_of in OP_REGISTRY

    def test_cpu_op_types_match_registry_device(self):
        for name in CPU_OP_TYPES:
            assert OP_REGISTRY[name].device is Device.CPU
        assert "SparseToDense" in CPU_OP_TYPES
        assert "Conv2D" not in CPU_OP_TYPES

    def test_every_category_is_used(self):
        used = {d.category for d in OP_REGISTRY.values()}
        assert used == set(OpCategory)

    def test_register_is_idempotent_by_name(self):
        before = len(OP_REGISTRY)
        register_op(OP_REGISTRY["Conv2D"])
        assert len(OP_REGISTRY) == before


class TestRegistryCoverage:
    """The registry holds exactly the op types something emits, so a type
    whose last emitter is deleted cannot linger as dead rows."""

    @pytest.fixture(scope="class")
    def emitted(self):
        types = set()
        for name in model_names():
            types.update(build_model(name, batch_size=32).op_type_counts())
        # The zoo never pads or uses plain SGD; the builder can.
        b = GraphBuilder("padded", batch_size=2, image_hw=(8, 8),
                         num_classes=4, optimizer="sgd")
        x = b.flatten(b.conv(b.pad(b.input(), 1, 1), filters=4, kernel=3))
        types.update(b.finalize(b.dense(x, 4, activation=None)).op_type_counts())
        return types

    def test_registry_is_exactly_the_emitted_types(self, emitted):
        assert set(OP_REGISTRY) == emitted

    def test_noise_sigma_overrides_are_registered(self):
        assert set(noise._OP_TYPE_SIGMA) <= set(OP_REGISTRY)

    def test_flop_rules_cover_exactly_the_registry(self):
        assert set(flops._FLOP_FNS) == set(OP_REGISTRY)


class TestOperation:
    def _op(self, **kwargs):
        defaults = dict(
            name="layer/Conv2D",
            op_type="Conv2D",
            inputs=(TensorShape.of(2, 8, 8, 3), TensorShape.of(3, 3, 3, 16)),
            outputs=(TensorShape.of(2, 8, 8, 16),),
            attrs={"kernel": (3, 3)},
        )
        defaults.update(kwargs)
        return Operation(**defaults)

    def test_input_bytes_sums_all_inputs(self):
        op = self._op()
        assert op.input_bytes == (2 * 8 * 8 * 3 + 3 * 3 * 3 * 16) * 4

    def test_output_bytes(self):
        assert self._op().output_bytes == 2 * 8 * 8 * 16 * 4

    def test_category_from_registry(self):
        assert self._op().category is OpCategory.CONV_COMPUTE

    def test_rejects_unknown_op_type(self):
        with pytest.raises(UnknownOpError):
            self._op(op_type="MadeUpOp")

    def test_default_device_is_gpu(self):
        assert self._op().device is Device.GPU

    def test_lists_are_normalised_to_tuples(self):
        op = self._op(inputs=[TensorShape.of(1, 2, 2, 1), TensorShape.of(1, 1, 1, 1)])
        assert isinstance(op.inputs, tuple)

    def test_str_contains_name_and_type(self):
        rendered = str(self._op())
        assert "layer/Conv2D" in rendered and "Conv2D" in rendered
