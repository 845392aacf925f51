from __future__ import annotations

import pytest

from roadsense.config import load_config
from roadsense.errors import ConfigError


def _write(tmp_path, text: str):
    path = tmp_path / "override.yaml"
    path.write_text(text)
    return path


def test_defaults(config):
    assert config.schema_version == 1
    assert config.signal.sample_rate_hz == 50.0
    assert config.signal.segment_len == 32
    assert config.signal.period_ms == 20.0
    assert config.gravity.alpha == 0.992
    assert config.roughness.alpha_schedule == (0.992, 0.995, 0.996, 0.998)
    assert config.roughness.cost_thresholds == (0.007, 0.008, 0.01)
    assert config.roughness.history_len == 8
    assert config.bump.beta_max == 0.8
    assert config.bump.allow_unknown_speed is True
    assert config.gps.max_gap_ms == 10_000
    assert config.aggregate.min_trips == 2


def test_no_path_equals_defaults(config):
    assert load_config(None) == config


def test_override_merges_single_key(tmp_path, config):
    cfg = load_config(_write(tmp_path, "bump:\n  beta_max: 0.5\n"))
    assert cfg.bump.beta_max == 0.5
    # Sibling keys in the same section survive the overlay.
    assert cfg.bump.min_speed_mps == config.bump.min_speed_mps
    assert cfg.signal == config.signal


def test_empty_override_is_defaults(tmp_path, config):
    assert load_config(_write(tmp_path, "")) == config


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(_write(tmp_path, "bump:\n  beta_ceiling: 0.5\n"))
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(_write(tmp_path, "bumps: {}\n"))
    # Keys this package once had are unknown too, not silently ignored.
    for removed in ("signal:\n  segment_overlap: 0.0\n", "bump:\n  z_threshold_mps2: 16.0\n"):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(_write(tmp_path, removed))


def test_scalar_where_mapping_expected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "bump: 3\n"))


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.yaml")


def test_invalid_yaml(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "signal: [unclosed\n"))


@pytest.mark.parametrize(
    "override",
    [
        "gravity:\n  alpha: 1.2\n",
        "gravity:\n  alpha: 0.0\n",
        # 0.994 is a fine smoothing factor but not one the controller can pick.
        "gravity:\n  alpha: 0.994\n",
        "roughness:\n  alpha_schedule: [0.992, 0.998, 0.996, 0.995]\n",
        "roughness:\n  alpha_schedule: [0.992, 0.995]\n",
        "roughness:\n  cost_thresholds: [0.01, 0.008, 0.007]\n",
        "roughness:\n  forgetting: 0.0\n",
        "roughness:\n  history_len: 0\n",
        "roughness:\n  hold_off_segments: 0\n",
        "signal:\n  segment_len: 33\n",
        "signal:\n  segment_len: 4\n",
        "signal:\n  segment_overlap: 1.0\n",
        "signal:\n  sample_rate_hz: 0\n",
        "bump:\n  peak_plateau_policy: middle\n",
        "bump:\n  min_speed_mps: -1\n",
        "gps:\n  max_gap_ms: 0\n",
        "aggregate:\n  min_trips: 0\n",
    ],
)
def test_validation_rejects(tmp_path, override):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, override))
