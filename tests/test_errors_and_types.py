"""Tests for the exception hierarchy (repro.errors)."""

from __future__ import annotations

import pytest

from repro import errors


class TestHierarchy:
    ALL_ERRORS = [
        errors.ConfigError,
        errors.EmptyPopulationError,
        errors.UnknownNodeError,
        errors.DuplicateNodeError,
        errors.DeadNodeError,
        errors.RingInvariantError,
        errors.RoutingError,
        errors.SamplingError,
        errors.InsufficientSamplesError,
        errors.PartitionError,
        errors.DistributionError,
        errors.SimulationError,
        errors.ExperimentError,
    ]

    @pytest.mark.parametrize("exc", ALL_ERRORS)
    def test_every_error_derives_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_value_errors_double_as_value_error(self):
        # Callers using plain `except ValueError` around config parsing
        # must still catch library validation failures.
        for exc in (errors.ConfigError, errors.DuplicateNodeError, errors.DistributionError):
            assert issubclass(exc, ValueError)

    def test_unknown_node_is_a_key_error(self):
        assert issubclass(errors.UnknownNodeError, KeyError)

    def test_specializations(self):
        assert issubclass(errors.InsufficientSamplesError, errors.SamplingError)

    def test_all_list_matches_module_contents(self):
        for name in errors.__all__:
            assert hasattr(errors, name)


class TestErrorPayloads:
    def test_unknown_node_str_is_readable(self):
        exc = errors.UnknownNodeError(17)
        assert "17" in str(exc)
        assert exc.node_id == 17

    def test_dead_node_records_operation(self):
        exc = errors.DeadNodeError(3, "route")
        assert exc.node_id == 3
        assert "route" in str(exc)

    def test_insufficient_samples_counts(self):
        exc = errors.InsufficientSamplesError(needed=4, got=1)
        assert exc.needed == 4
        assert exc.got == 1
        assert "4" in str(exc) and "1" in str(exc)

    def test_single_except_clause_catches_everything(self):
        caught = 0
        for exc in TestHierarchy.ALL_ERRORS:
            try:
                if exc is errors.UnknownNodeError:
                    raise exc(1)
                if exc is errors.DeadNodeError:
                    raise exc(1)
                if exc is errors.InsufficientSamplesError:
                    raise exc(1, 0)
                raise exc("boom")
            except errors.ReproError:
                caught += 1
        assert caught == len(TestHierarchy.ALL_ERRORS)
