"""Op-graph (de)serialisation: a GraphDef-like JSON format.

The paper's deployment story (Section IV-D) extracts the CNN's DAG from
the training framework — op types, shapes, parameter count — and feeds it
to Ceer. This module provides the equivalent portable artifact: a JSON
document that fully describes a training graph, so a graph captured on one
machine (e.g. by a framework plugin) can be priced on another without the
model-building code.

Format (version 1)::

    {
      "format": "repro-opgraph",
      "version": 1,
      "name": "...", "batch_size": 32,
      "num_parameters": 23834568, "num_variables": 284,
      "ops": [
        {"name": "...", "op_type": "...", "device": "GPU",
         "inputs": [[dims...], ...] | [{"dims": [...], "dtype": "int64"}],
         "outputs": [...], "input_ops": [...], "attrs": {...}},
        ...
      ]
    }

Float32 shapes are stored as bare dim lists for compactness; other dtypes
use the explicit object form. Attr values must be JSON-representable
(ints, floats, strings, bools, lists/tuples thereof); tuples round-trip as
tuples.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.errors import GraphError, ShapeError, UnknownOpError
from repro.graph.graph import OpGraph
from repro.graph.ops import Device, Operation
from repro.graph.shapes import DEFAULT_DTYPE, TensorShape

FORMAT_NAME = "repro-opgraph"
FORMAT_VERSION = 1


def _shape_to_json(shape: TensorShape) -> Union[List[int], Dict]:
    if shape.dtype == DEFAULT_DTYPE:
        return list(shape.dims)
    return {"dims": list(shape.dims), "dtype": shape.dtype}


def _shape_from_json(data: object, where: str) -> TensorShape:
    if isinstance(data, dict):
        return TensorShape(
            tuple(_field(data, "dims", list, where)),
            _field(data, "dtype", str, where, DEFAULT_DTYPE),
        )
    if not isinstance(data, list):
        raise GraphError(f"field {where[:-1]!r} must be a list of dims or an object")
    return TensorShape(tuple(data))


def _attr_to_json(value: object) -> object:
    if isinstance(value, tuple):
        return {"__tuple__": [_attr_to_json(v) for v in value]}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise GraphError(f"attr value {value!r} is not serialisable")


def _attr_from_json(value: object, where: str) -> object:
    if isinstance(value, dict) and "__tuple__" in value:
        items = _field(value, "__tuple__", list, where)
        return tuple(_attr_from_json(v, where) for v in items)
    return value


def graph_to_dict(graph: OpGraph) -> Dict:
    """Convert a graph to its JSON-ready dictionary representation."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": graph.name,
        "batch_size": graph.batch_size,
        "num_parameters": graph.num_parameters,
        "num_variables": graph.num_variables,
        "ops": [
            {
                "name": op.name,
                "op_type": op.op_type,
                "device": op.device.value,
                "inputs": [_shape_to_json(s) for s in op.inputs],
                "outputs": [_shape_to_json(s) for s in op.outputs],
                "input_ops": list(op.input_ops),
                "attrs": {k: _attr_to_json(v) for k, v in op.attrs.items()},
            }
            for op in graph.operations
        ],
    }


_JSON_TYPE_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}
_MISSING = object()


def _field(data: object, key: str, kind: type, where: str = "",
           default: object = _MISSING) -> Any:
    """``data[key]`` checked to be a ``kind``, or a :class:`GraphError`
    naming the field (``where`` is its parent's path, e.g. ``"ops[3]."``)."""
    if not isinstance(data, dict):
        raise GraphError(f"{where[:-1] or 'the document'} must be a JSON object")
    value = data.get(key, default)
    if value is _MISSING:
        raise GraphError(f"missing field {where + key!r}")
    if not isinstance(value, kind):
        raise GraphError(
            f"field {where + key!r} must be {_JSON_TYPE_NAMES[kind]}, got {value!r}"
        )
    return value


def _op_from_json(data: object, where: str) -> Operation:
    inputs = _field(data, "inputs", list, where)
    outputs = _field(data, "outputs", list, where)
    input_ops = _field(data, "input_ops", list, where, [])
    if not all(isinstance(name, str) for name in input_ops):
        raise GraphError(f"field {where + 'input_ops'!r} must be a list of op names")
    device = _field(data, "device", str, where, "GPU")
    devices = [d.value for d in Device]
    if device not in devices:
        raise GraphError(f"field {where + 'device'!r} must be one of {devices}, got {device!r}")
    try:
        return Operation(
            name=_field(data, "name", str, where),
            op_type=_field(data, "op_type", str, where),
            inputs=tuple(
                _shape_from_json(s, f"{where}inputs[{j}].") for j, s in enumerate(inputs)
            ),
            outputs=tuple(
                _shape_from_json(s, f"{where}outputs[{j}].") for j, s in enumerate(outputs)
            ),
            input_ops=tuple(input_ops),
            attrs={
                k: _attr_from_json(v, f"{where}attrs.{k}.")
                for k, v in _field(data, "attrs", dict, where, {}).items()
            },
            device=Device(device),
        )
    except UnknownOpError as exc:
        raise UnknownOpError(f"field {where + 'op_type'!r}: {exc}") from None


def graph_from_dict(data: Dict) -> OpGraph:
    """Reconstruct and validate a graph from its dictionary representation.

    A missing field, a field of the wrong JSON type, a device other than
    GPU/CPU, or an unregistered op type raises a
    :class:`~repro.errors.ReproError` naming the field (e.g.
    ``ops[3].inputs``).
    """
    if _field(data, "format", str) != FORMAT_NAME:
        raise GraphError(
            f"not a {FORMAT_NAME} document (format={data['format']!r})"
        )
    if data.get("version") != FORMAT_VERSION:
        raise GraphError(
            f"unsupported {FORMAT_NAME} version {data.get('version')!r}; "
            f"this library reads version {FORMAT_VERSION}"
        )
    graph = OpGraph(
        name=_field(data, "name", str),
        batch_size=_field(data, "batch_size", int),
        num_parameters=_field(data, "num_parameters", int, default=0),
        num_variables=_field(data, "num_variables", int, default=0),
    )
    for i, op_data in enumerate(_field(data, "ops", list)):
        graph.add(_op_from_json(op_data, f"ops[{i}]."))
    graph.validate()
    return graph


def save_graph(graph: OpGraph, path: Union[str, Path]) -> None:
    """Write a graph as JSON to ``path``."""
    Path(path).write_text(json.dumps(graph_to_dict(graph)))


def load_graph(path: Union[str, Path]) -> OpGraph:
    """Read a JSON graph document from ``path`` and validate it.

    Every failure is a :class:`~repro.errors.ReproError` whose message
    names ``path``: a missing or unreadable file and invalid JSON raise
    :class:`GraphError`; a bad document raises what
    :func:`graph_from_dict` raises.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise GraphError(
            f"cannot read graph file {path}: {exc.strerror or exc}"
        ) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GraphError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return graph_from_dict(data)
    except (GraphError, ShapeError, UnknownOpError) as exc:
        raise type(exc)(f"graph file {path}: {exc}") from exc
