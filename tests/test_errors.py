"""Tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    def test_unseen_operation_error_fields(self):
        exc = errors.UnseenOperationError("Pad", "V100")
        assert exc.op_type == "Pad"
        assert exc.device == "V100"
        assert "Section IV-D" in str(exc)
        assert isinstance(exc, errors.ModelingError)

    def test_catchability_by_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.CatalogError("x")

    def test_subsystem_errors_distinct(self):
        assert not issubclass(errors.ShapeError, errors.GraphError)
        assert not issubclass(errors.CatalogError, errors.ModelingError)
