"""Tests for ProfileRecord / ProfileDataset."""

import json

import pytest

from repro.artifacts.kinds import decode_profiles, encode_profiles
from repro.errors import ArtifactError
from repro.profiling.records import ProfileDataset, ProfileRecord


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

    def test_decode_rejects_non_list(self):
        with pytest.raises(ArtifactError):
            decode_profiles({})
