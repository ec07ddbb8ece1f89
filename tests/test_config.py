"""Tests for the frozen configuration dataclasses (repro.config)."""

from __future__ import annotations

import math

import pytest

from repro.config import MercuryConfig, OscarConfig, RoutingConfig, SamplingMode
from repro.errors import ConfigError


class TestOscarConfig:
    def test_defaults_are_valid(self):
        config = OscarConfig()
        assert config.sample_size == 16
        assert config.sampling_mode is SamplingMode.UNIFORM
        assert config.power_of_two

    def test_is_frozen(self):
        with pytest.raises(AttributeError):
            OscarConfig().sample_size = 3  # type: ignore[misc]

    def test_is_hashable_and_comparable(self):
        assert OscarConfig() == OscarConfig()
        assert hash(OscarConfig(sample_size=4)) == hash(OscarConfig(sample_size=4))
        assert OscarConfig(sample_size=4) != OscarConfig(sample_size=8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_partitions": -1},
            {"sample_size": 0},
            {"walk_hops": 0},
            {"link_retries": -1},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            OscarConfig(**kwargs)

    def test_partitions_for_auto_is_log2(self):
        config = OscarConfig(n_partitions=0)
        assert config.partitions_for(1024) == 10
        assert config.partitions_for(1025) == 11

    def test_partitions_for_explicit_overrides(self):
        assert OscarConfig(n_partitions=7).partitions_for(1_000_000) == 7

    def test_partitions_for_tiny_population(self):
        config = OscarConfig()
        assert config.partitions_for(1) >= 1
        assert config.partitions_for(2) == 1

    def test_partitions_for_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            OscarConfig().partitions_for(0)

    def test_with_mode_returns_modified_copy(self):
        base = OscarConfig()
        oracle = base.with_mode(SamplingMode.ORACLE)
        assert oracle.sampling_mode is SamplingMode.ORACLE
        assert base.sampling_mode is SamplingMode.UNIFORM
        assert oracle.sample_size == base.sample_size


class TestMercuryConfig:
    def test_defaults_are_valid(self):
        config = MercuryConfig()
        assert config.sample_size == 192
        assert config.histogram_buckets == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_size": 1},
            {"histogram_buckets": 0},
            {"link_retries": -1},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            MercuryConfig(**kwargs)

    def test_budget_parity_with_oscar(self):
        # The Mercury default budget matches Oscar's total per-peer
        # sampling spend (16 samples x 12 levels) so comparisons isolate
        # the mechanism, not the budget.
        oscar = OscarConfig()
        mercury = MercuryConfig()
        levels = math.ceil(math.log2(10_000))
        assert mercury.sample_size >= oscar.sample_size * (levels - 2)


class TestRoutingConfig:
    def test_defaults_are_valid(self):
        config = RoutingConfig()
        assert config.budget >= 1

    @pytest.mark.parametrize("kwargs", [{"budget": 0}])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            RoutingConfig(**kwargs)


class TestSamplingMode:
    def test_three_modes(self):
        assert {m.value for m in SamplingMode} == {"oracle", "uniform", "walk"}

    def test_lookup_by_value(self):
        assert SamplingMode("walk") is SamplingMode.WALK
