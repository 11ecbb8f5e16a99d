"""Malformed ``profile`` artifacts are cache misses, never tracebacks.

Each case tampers with a stored version-2 envelope on disk. The codec
names the fault with an :class:`~repro.errors.ArtifactError`, the store
reads the file as a miss, and ``get_or_create`` recomputes.
"""

from __future__ import annotations

import base64
import json

import pytest

from repro.artifacts import kinds
from repro.artifacts.store import ArtifactStore
from repro.errors import ArtifactError
from repro.profiling.profiler import Profiler

SPEC = {"models": ["tiny"], "gpus": ["K80", "V100"], "iterations": 4}


def _ints(values):
    return base64.b64encode(
        b"".join(int(v).to_bytes(8, "little", signed=True) for v in values)
    ).decode("ascii")


def _truncate_stats(payload):
    text = payload["cells"][1]["mean_us"]
    payload["cells"][1]["mean_us"] = base64.b64encode(
        base64.b64decode(text)[:-3]
    ).decode("ascii")


def _short_cell(payload):
    text = payload["cells"][0]["std_us"]
    payload["cells"][0]["std_us"] = base64.b64encode(
        base64.b64decode(text)[:-8]
    ).decode("ascii")


def _op_type_out_of_range(payload):
    block = payload["blocks"][0]
    n = len(block["names"])
    block["op_type"] = _ints([len(payload["op_types"])] * n)


def _device_out_of_range(payload):
    block = payload["blocks"][0]
    block["device"] = _ints([2] * len(block["names"]))


def _missing_key(payload):
    del payload["cells"][0]["median_us"]


def _not_base64(payload):
    payload["blocks"][0]["flops"] = "not base64!"


PAYLOAD_FAULTS = {
    "base64 not whole 8-byte items": _truncate_stats,
    "cell vector shorter than its block": _short_cell,
    "op-type code out of range": _op_type_out_of_range,
    "device code out of range": _device_out_of_range,
    "missing key": _missing_key,
    "invalid base64": _not_base64,
}


@pytest.fixture
def stored(tmp_path, tiny_graph):
    """A store holding one valid profile artifact, and its compute."""
    store = ArtifactStore(tmp_path / "store")
    computed = []

    def compute():
        computed.append(1)
        return Profiler(n_iterations=4).profile_many([tiny_graph], ["K80", "V100"])

    store.get_or_create(kinds.PROFILE, SPEC, compute,
                        kinds.encode_profiles, kinds.decode_profiles)
    key = store.key_for(kinds.PROFILE, SPEC)
    return store, key, compute, computed


def _rewrite(store, key, edit):
    path = store.path_for(kinds.PROFILE, key)
    envelope = json.loads(path.read_text())
    edit(envelope)
    path.write_text(json.dumps(envelope))
    return envelope


def _assert_miss_then_recompute(store, key, compute, computed):
    fresh = ArtifactStore(store.directory)
    assert fresh.load(kinds.PROFILE, key, kinds.decode_profiles) is None
    dataset = fresh.get_or_create(kinds.PROFILE, SPEC, compute,
                                  kinds.encode_profiles, kinds.decode_profiles)
    assert computed == [1, 1]
    assert fresh.counters["profile"].misses == 1
    reread = ArtifactStore(store.directory).load(
        kinds.PROFILE, key, kinds.decode_profiles)
    assert reread is not None and reread.records == dataset.records


@pytest.mark.parametrize("fault", sorted(PAYLOAD_FAULTS))
def test_malformed_payload_is_a_named_error_and_a_miss(stored, fault):
    store, key, compute, computed = stored
    envelope = _rewrite(
        store, key, lambda envelope: PAYLOAD_FAULTS[fault](envelope["payload"])
    )
    with pytest.raises(ArtifactError):
        kinds.decode_profiles(envelope["payload"])
    _assert_miss_then_recompute(store, key, compute, computed)


def test_schema_version_1_envelope_is_a_miss(stored):
    store, key, compute, computed = stored

    def downgrade(envelope):
        """The version-1 layout: one JSON object per record."""
        envelope["schema_version"] = 1
        envelope["payload"] = [
            {**vars(record), "features": list(record.features)}
            for record in kinds.decode_profiles(envelope["payload"])
        ]

    _rewrite(store, key, downgrade)
    _assert_miss_then_recompute(store, key, compute, computed)


def test_untouched_artifact_is_a_hit(stored):
    store, key, _, computed = stored
    fresh = ArtifactStore(store.directory)
    assert fresh.load(kinds.PROFILE, key, kinds.decode_profiles) is not None
    assert computed == [1]
