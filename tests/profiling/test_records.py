"""Tests for ProfileRecord / ProfileDataset."""

import builtins
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import breakdown
from repro.artifacts.kinds import decode_profiles, encode_profiles
from repro.core.baselines import profiled_iteration_us
from repro.errors import ArtifactError
from repro.hardware.gpus import GPU_KEYS
from repro.models.zoo import TRAIN_MODELS
from repro.profiling import records as profile_records
from repro.profiling.profiler import Profiler
from repro.profiling.records import ProfileDataset, ProfileRecord
from tests.oracle import ReferenceProfileDataset, reference_profiled_iteration_us


def _record(model="m", gpu="V100", op_name="a/Relu", op_type="Relu",
            device="GPU", mean=10.0, median=9.0, std=1.0, features=(1.0, 1.0)):
    return ProfileRecord(
        model=model, gpu_key=gpu, op_name=op_name, op_type=op_type,
        device=device, features=tuple(features), input_bytes=1000,
        n_samples=50, mean_us=mean, std_us=std, median_us=median,
    )


@pytest.fixture
def dataset():
    return ProfileDataset([
        _record(),
        _record(gpu="K80", op_name="a/Relu", mean=50.0),
        _record(op_name="b/Conv2D", op_type="Conv2D", mean=100.0),
        _record(model="m2", op_name="c/SparseToDense", op_type="SparseToDense",
                device="CPU", mean=300.0),
    ])


class TestQueries:
    def test_len_iter_bool(self, dataset):
        assert len(dataset) == 4 and bool(dataset)
        assert not ProfileDataset([])

    def test_for_gpu(self, dataset):
        assert len(dataset.for_gpu("K80")) == 1

    def test_for_model(self, dataset):
        assert len(dataset.for_model("m2")) == 1

    def test_for_op_type(self, dataset):
        assert len(dataset.for_op_type("Relu")) == 2

    def test_device_split(self, dataset):
        assert len(dataset.gpu_records()) == 3
        assert len(dataset.cpu_records()) == 1

    def test_set_accessors(self, dataset):
        assert dataset.op_types() == ("Conv2D", "Relu", "SparseToDense")
        assert dataset.gpu_keys() == ("K80", "V100")
        assert dataset.models() == ("m", "m2")

    def test_group_by_op_type(self, dataset):
        groups = dataset.group_by_op_type()
        assert set(groups) == {"Relu", "Conv2D", "SparseToDense"}
        assert len(groups["Relu"]) == 2

    def test_merge_and_concat(self, dataset):
        merged = dataset.merge(dataset)
        assert len(merged) == 8
        assert len(ProfileDataset.concat([dataset, dataset, dataset])) == 12

    def test_mean_time_by_op_type(self, dataset):
        means = dataset.mean_us_by_op_type()
        assert means["Relu"] == pytest.approx(30.0)  # (10 + 50) / 2

    def test_total_time_by_op_type(self, dataset):
        totals = dataset.total_us_by_op_type()
        assert totals["Relu"] == pytest.approx(60.0)

    def test_normalized_std(self):
        assert _record(mean=10.0, std=1.0).normalized_std == pytest.approx(0.1)
        assert _record(mean=0.0, std=1.0).normalized_std == 0.0


class TestSerialisation:
    """The ``profile`` artifact codec round-trips a dataset through JSON."""

    def test_json_round_trip(self, dataset):
        payload = json.loads(json.dumps(encode_profiles(dataset)))
        assert decode_profiles(payload).records == dataset.records

    def test_decode_rejects_non_object(self):
        with pytest.raises(ArtifactError):
            decode_profiles([])
        with pytest.raises(ArtifactError):
            decode_profiles({})


# -- the columnar dataset against the record-tuple reference ---------------

#: Op types with their feature widths (compute ops carry 4 features).
_OP_TYPES = (("Conv2D", 4), ("Relu", 2), ("MatMul", 4), ("Reshape", 2),
             ("SparseToDense", 2))
_values = st.floats(min_value=-1e3, max_value=1e6, allow_nan=False, width=64)


@st.composite
def _records(draw):
    op_type, width = draw(st.sampled_from(_OP_TYPES))
    return ProfileRecord(
        model=draw(st.sampled_from(("m1", "m2", "m3"))),
        gpu_key=draw(st.sampled_from(("V100", "K80", "T4"))),
        op_name=draw(st.sampled_from(("a", "b/c", "d"))),
        op_type=op_type,
        device=draw(st.sampled_from(("GPU", "CPU"))),
        features=tuple(draw(st.lists(_values, min_size=width, max_size=width))),
        input_bytes=draw(st.integers(0, 2**40)),
        n_samples=draw(st.integers(2, 5)),
        mean_us=draw(_values),
        std_us=draw(_values),
        median_us=draw(_values),
    )


def _same(columnar, reference):
    assert len(columnar) == len(reference)
    assert columnar.records == reference.records


def _assert_matches_reference(records):
    ds, ref = ProfileDataset(records), ReferenceProfileDataset(records)
    _same(ds, ref)
    for subset, expected in ((ds.gpu_records(), ref.gpu_records()),
                             (ds.cpu_records(), ref.cpu_records())):
        _same(subset, expected)
        for gpu_key in (*ref.gpu_keys(), "absent"):
            _same(subset.for_gpu(gpu_key), expected.for_gpu(gpu_key))
            for op_type in ref.op_types():
                _same(subset.for_gpu(gpu_key).for_op_type(op_type),
                      expected.for_gpu(gpu_key).for_op_type(op_type))
    for model in (*ref.models(), "absent"):
        _same(ds.for_model(model), ref.for_model(model))
    assert (ds.op_types(), ds.gpu_keys(), ds.models()) == (
        ref.op_types(), ref.gpu_keys(), ref.models())
    groups, expected_groups = ds.group_by_op_type(), ref.group_by_op_type()
    assert list(groups) == list(expected_groups)
    for op_type, subset in groups.items():
        _same(subset, expected_groups[op_type])
        assert subset.feature_matrix().tolist() == [
            list(r.features) for r in expected_groups[op_type]]
    assert list(ds.mean_us_by_op_type().items()) == list(ref.mean_us_by_op_type().items())
    assert list(ds.total_us_by_op_type().items()) == list(ref.total_us_by_op_type().items())
    assert list(profiled_iteration_us(ds).items()) == list(
        reference_profiled_iteration_us(ref).items())
    assert ds.normalized_std().tolist() == [r.normalized_std for r in ref]
    gpu = ds.gpu_records()
    _same(gpu.merge(ds, gpu), ref.gpu_records().merge(ref, ref.gpu_records()))
    _same(ProfileDataset.concat([ds.cpu_records(), ProfileDataset(records[:3])]),
          ref.cpu_records().merge(ReferenceProfileDataset(records[:3])))
    keep = lambda r: r.mean_us > 10.0  # noqa: E731
    _same(ds.filter(keep), ref.filter(keep))
    payload = json.dumps(encode_profiles(ds))
    decoded = decode_profiles(json.loads(payload))
    _same(decoded, ref)
    assert json.dumps(encode_profiles(decoded)) == payload


class TestAgainstReference:
    """Every query and aggregate gives the reference's records, in its
    order, with ``==`` values."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_records(), max_size=40))
    def test_generated_record_sets(self, records):
        _assert_matches_reference(records)

    def test_training_profile(self, profiles_4):
        _assert_matches_reference(profiles_4.records)
        ref = ReferenceProfileDataset(profiles_4.records)
        _same(ProfileDataset(profiles_4.records), ref)
        assert list(profiled_iteration_us(profiles_4).items()) == list(
            reference_profiled_iteration_us(ref).items())

    def test_training_profile_round_trip_is_byte_identical(self, profiles_4):
        payload = json.dumps(encode_profiles(profiles_4))
        decoded = decode_profiles(json.loads(payload))
        assert decoded.records == profiles_4.records
        assert decoded.model_flops() == profiles_4.model_flops()
        assert json.dumps(encode_profiles(decoded)) == payload

    def test_training_profile_stores_each_model_block_once(self, profiles_4):
        payload = encode_profiles(profiles_4)
        assert [b["model"] for b in payload["blocks"]] == list(TRAIN_MODELS)
        assert len(payload["cells"]) == len(TRAIN_MODELS) * len(GPU_KEYS)


def _compensated_sum(values, start=0):
    """The builtin ``sum`` as Python 3.12+ computes it: floats are added
    with compensation (here exactly, through ``math.fsum``), other values
    as before."""
    values = list(values)
    if values and all(type(v) is float for v in values):
        return math.fsum([start, *values])
    return builtins.sum(values, start)


class TestLeftFoldSums:
    """The per-op-type and per-device totals keep a ``+`` loop's bits on
    interpreters whose builtin ``sum`` of floats is compensated. Shadowing
    ``sum`` in the modules makes this interpreter behave like one."""

    MEANS = (1e16, 1.0, 1.0)  # a + loop gets 1e16, a compensated sum 1e16 + 2

    @pytest.fixture(autouse=True)
    def compensated_sum(self, monkeypatch):
        for module in (profile_records, breakdown):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)

    def _profile(self):
        return [_record(op_name=f"{i}/Relu", mean=m) for i, m in enumerate(self.MEANS)]

    def test_per_op_type_aggregates(self):
        ds, ref = ProfileDataset(self._profile()), ReferenceProfileDataset(self._profile())
        assert ds.total_us_by_op_type() == ref.total_us_by_op_type() == {"Relu": 1e16}
        assert ds.mean_us_by_op_type() == ref.mean_us_by_op_type() == {"Relu": 1e16 / 3}

    def test_breakdown_device_totals(self):
        b = breakdown.breakdown_from_profile(ProfileDataset(self._profile()))
        assert b.by_device == {"GPU": 1e16} and b.by_op_type == {"Relu": 1e16}


@pytest.fixture(scope="module")
def profiles_4():
    return Profiler(n_iterations=4).profile_many(list(TRAIN_MODELS), list(GPU_KEYS))


class TestColumns:
    def test_feature_matrix_is_contiguous_float64(self, dataset):
        matrix = dataset.for_op_type("Relu").feature_matrix()
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
        assert matrix.shape == (2, 2)

    def test_mixed_widths_have_no_single_matrix(self):
        ds = ProfileDataset([_record(), _record(features=(1.0, 2.0, 3.0, 4.0))])
        with pytest.raises(ValueError, match="mixed feature widths"):
            ds.feature_matrix()

    def test_columns_are_read_only(self, dataset):
        with pytest.raises(ValueError):
            dataset.compact().mean_us[0] = 0.0

    def test_queries_share_columns(self, dataset):
        gpu = dataset.gpu_records()
        assert gpu.for_gpu("V100").compact().mean_us.tolist() == [10.0, 100.0]
        assert ProfileDataset.concat([gpu, gpu])._columns is dataset._columns
