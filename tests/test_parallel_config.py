"""Tests for the parallel runtime configuration and cost model."""

from dataclasses import replace

import pytest

from repro.errors import RuntimeConfigError
from repro.parallel.config import CostModel, RuntimeConfig


class TestCostModel:
    def test_seconds_round_trip(self):
        costs = CostModel(tick_seconds=1e-3)
        assert costs.seconds(2000) == pytest.approx(2.0)
        assert costs.cost_units(2.0) == pytest.approx(2000)

    def test_frozen(self):
        with pytest.raises(Exception):
            CostModel().match_tick = 5


class TestRuntimeConfig:
    def test_defaults_sane(self):
        config = RuntimeConfig()
        assert config.workers == 4
        assert config.pipelined
        assert config.ttl_seconds == 2.0
        assert config.ttl_ticks is not None and config.ttl_ticks > 0

    def test_invalid_workers(self):
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(workers=0)

    def test_invalid_ttl(self):
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(ttl_seconds=0)

    def test_invalid_split_units(self):
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(max_split_units=0)

    def test_invalid_batch(self):
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(batch_size=0)

    def test_invalid_fragments(self):
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(fragments=0)
        assert RuntimeConfig(fragments=None).fragments is None

    def test_config_errors_are_value_errors(self):
        # Clear ValueErrors, catchable without importing the hierarchy.
        with pytest.raises(ValueError) as exc_info:
            RuntimeConfig(workers=0)
        assert "workers" in str(exc_info.value)
        with pytest.raises(ValueError) as exc_info:
            RuntimeConfig(max_unit_retries=-5)
        assert "max_unit_retries" in str(exc_info.value)

    def test_without_affinity_is_fixed_batch_ablation(self):
        config = RuntimeConfig(workers=8)
        assert config.affinity
        ablation = config.without_affinity()
        assert ablation == replace(config, affinity=False)
        assert ablation.workers == 8 and ablation.batch_size == config.batch_size

    def test_ttl_none_disables_splitting(self):
        config = RuntimeConfig(ttl_seconds=None)
        assert config.ttl_ticks is None

    def test_variant_builders(self):
        config = RuntimeConfig(workers=8)
        no_pipeline = config.without_pipelining()
        assert not no_pipeline.pipelined and no_pipeline.workers == 8
        no_split = config.without_splitting()
        assert no_split.ttl_seconds is None
        rescaled = config.with_workers(2)
        assert rescaled.workers == 2 and rescaled.pipelined

    def test_ttl_ticks_conversion(self):
        config = RuntimeConfig(ttl_seconds=2.0, costs=CostModel(tick_seconds=1e-3, match_tick=1.0))
        assert config.ttl_ticks == pytest.approx(2000)
