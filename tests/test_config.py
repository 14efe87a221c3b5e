"""Tests for repro.config."""

from __future__ import annotations

import pytest

from repro.config import RunConfig
from repro.exceptions import ConfigurationError


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.bandwidth == 1
        assert config.base_forest_k is None
        assert config.collect_telemetry is True
        assert config.strict_bounds is False

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            RunConfig(bandwidth=0)
        with pytest.raises(ConfigurationError):
            RunConfig(bandwidth=-3)

    def test_rejects_non_positive_k_override(self):
        with pytest.raises(ConfigurationError):
            RunConfig(base_forest_k=0)

    def test_accepts_explicit_k(self):
        assert RunConfig(base_forest_k=17).base_forest_k == 17
