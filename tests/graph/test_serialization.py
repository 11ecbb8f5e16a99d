"""Tests for op-graph JSON (de)serialisation."""

import json

import pytest

from repro.errors import GraphError, UnknownOpError
from repro.graph.serialization import (
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)
from repro.models import build_model


class TestRoundTrip:
    def test_tiny_graph_round_trip(self, tiny_graph, tmp_path):
        path = tmp_path / "tiny.json"
        save_graph(tiny_graph, path)
        restored = load_graph(path)
        assert restored.name == tiny_graph.name
        assert restored.batch_size == tiny_graph.batch_size
        assert restored.num_parameters == tiny_graph.num_parameters
        assert restored.num_variables == tiny_graph.num_variables
        assert len(restored) == len(tiny_graph)
        for original, loaded in zip(tiny_graph.operations, restored.operations):
            assert original == loaded

    def test_zoo_model_round_trip(self, tmp_path):
        graph = build_model("inception_v1", batch_size=8)
        path = tmp_path / "incv1.json"
        save_graph(graph, path)
        restored = load_graph(path)
        assert restored.op_type_counts() == graph.op_type_counts()
        restored.validate()

    def test_attrs_tuples_preserved(self, tiny_graph, tmp_path):
        path = tmp_path / "g.json"
        save_graph(tiny_graph, path)
        restored = load_graph(path)
        conv = restored.ops_of_type("Conv2D")[0]
        assert conv.attrs["kernel"] == (3, 3)
        assert isinstance(conv.attrs["kernel"], tuple)

    def test_dtypes_preserved(self, tiny_graph, tmp_path):
        path = tmp_path / "g.json"
        save_graph(tiny_graph, path)
        restored = load_graph(path)
        iterator = restored.ops_of_type("IteratorGetNext")[0]
        assert iterator.outputs[1].dtype == "int64"

    def test_predictions_identical_after_round_trip(self, tiny_graph, tmp_path,
                                                    ceer_small):
        path = tmp_path / "g.json"
        save_graph(tiny_graph, path)
        restored = load_graph(path)
        from repro.workloads.dataset import IMAGENET_6400, TrainingJob

        job = TrainingJob(IMAGENET_6400, batch_size=tiny_graph.batch_size)
        a = ceer_small.predict_training(tiny_graph, "T4", 2, job)
        b = ceer_small.predict_training(restored, "T4", 2, job)
        assert a.total_us == b.total_us


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(GraphError):
            graph_from_dict({"format": "something-else"})

    def test_wrong_version_rejected(self, tiny_graph):
        data = graph_to_dict(tiny_graph)
        data["version"] = 99
        with pytest.raises(GraphError):
            graph_from_dict(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(GraphError):
            load_graph(path)

    def test_unserialisable_attr_rejected(self, tiny_graph):
        from repro.graph.serialization import _attr_to_json

        with pytest.raises(GraphError):
            _attr_to_json(object())

    def test_document_is_plain_json(self, tiny_graph, tmp_path):
        path = tmp_path / "g.json"
        save_graph(tiny_graph, path)
        data = json.loads(path.read_text())
        assert data["format"] == "repro-opgraph"
        assert isinstance(data["ops"], list)


def _drop(key):
    return lambda doc: doc.pop(key)


def _drop_op_field(key):
    return lambda doc: doc["ops"][1].pop(key)


def _set_op_field(key, value):
    return lambda doc: doc["ops"][1].__setitem__(key, value)


class TestBadGraphFiles:
    """Every bad ``--graph`` file fails with a named error that says which
    file and which field, never a bare ``KeyError``/``ValueError``."""

    @pytest.mark.parametrize("mutate,field", [
        (_drop("name"), "'name'"),
        (_drop("ops"), "'ops'"),
        (_drop_op_field("inputs"), "'ops[1].inputs'"),
        (_drop_op_field("op_type"), "'ops[1].op_type'"),
        (_set_op_field("device", "TPU"), "'ops[1].device'"),
        (lambda doc: doc.__setitem__("batch_size", "32"), "'batch_size'"),
        (_set_op_field("inputs", 5), "'ops[1].inputs'"),
        (_set_op_field("inputs", [7]), "'ops[1].inputs[0]'"),
        (_set_op_field("outputs", [{"dtype": "int64"}]), "'ops[1].outputs[0].dims'"),
        (_set_op_field("attrs", [1]), "'ops[1].attrs'"),
        (_set_op_field("attrs", {"k": {"__tuple__": 5}}), "'ops[1].attrs.k.__tuple__'"),
        (_set_op_field("input_ops", [[1]]), "'ops[1].input_ops'"),
    ], ids=["no-name", "no-ops", "no-op-inputs", "no-op-type", "tpu-device",
            "str-batch", "int-inputs", "int-shape", "no-dims", "list-attrs",
            "bad-attr-tuple", "list-input-op"])
    def test_bad_document_names_file_and_field(self, tiny_graph, tmp_path,
                                               mutate, field):
        doc = graph_to_dict(tiny_graph)
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphError) as info:
            load_graph(path)
        assert str(path) in str(info.value) and field in str(info.value)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nonexistent.json"
        with pytest.raises(GraphError, match="nonexistent.json"):
            load_graph(path)

    def test_document_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(GraphError, match="must be a JSON object"):
            load_graph(path)

    def test_unregistered_op_type_names_the_field(self, tiny_graph, tmp_path):
        doc = graph_to_dict(tiny_graph)
        doc["ops"][1]["op_type"] = "Gelu"
        path = tmp_path / "gelu.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(UnknownOpError) as info:
            load_graph(path)
        message = str(info.value)
        assert str(path) in message and "'ops[1].op_type'" in message
        assert "'Gelu'" in message
