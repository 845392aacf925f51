from __future__ import annotations

from dataclasses import fields, is_dataclass
from importlib import resources

import pytest
import yaml

from roadsense.config import PipelineConfig, load_config
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
    removed_keys = (
        "signal:\n  segment_overlap: 0.0\n",
        "bump:\n  z_threshold_mps2: 16.0\n",
        # The filter starts at alpha_schedule[0], peaks are always strict and
        # the earth radius is geo.EARTH_RADIUS_M, whatever these would say.
        "gravity:\n  alpha: 0.992\n",
        "bump:\n  peak_plateau_policy: strict\n",
        "gps:\n  earth_radius_m: 6371000.0\n",
    )
    for removed in removed_keys:
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
        # Removed keys stay rejected whatever their value.
        "gravity:\n  alpha: 1.2\n",
        "gravity:\n  alpha: 0.0\n",
        "gravity:\n  alpha: 0.994\n",
        "roughness:\n  alpha_schedule: [0.992, 0.998, 0.996, 0.995]\n",
        "roughness:\n  alpha_schedule: [0.992, 0.995]\n",
        # Smoothing factors at the ends of (0, 1) never reach the filter.
        "roughness:\n  alpha_schedule: [0.0, 0.995, 0.996, 0.998]\n",
        "roughness:\n  alpha_schedule: [0.992, 0.995, 0.996, 1.0]\n",
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
        # Wrong types are rejected, not coerced.
        "signal:\n  segment_len: 32.7\n",
        "roughness:\n  history_len: 8.9\n",
        "bump:\n  allow_unknown_speed: 'false'\n",
        "aggregate:\n  min_trips: true\n",
        "gravity:\n  alpha: '0.992'\n",
        "roughness:\n  cost_thresholds: [0.007, '0.008', 0.01]\n",
        "schema_version: 7\n",
        # Non-finite floats are rejected: a nan ceiling passes no window and
        # an infinite rate reaches the report writer.
        "bump:\n  beta_max: .nan\n",
        "bump:\n  beta_max: -.inf\n",
        "signal:\n  sample_rate_hz: .inf\n",
    ],
)
def test_validation_rejects(tmp_path, override):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, override))


def _field_paths(cls: type, prefix: str = "") -> set[str]:
    paths = set()
    for f in fields(cls):
        if is_dataclass(f.type):
            paths |= _field_paths(f.type, f"{prefix}{f.name}.")
        else:
            paths.add(prefix + f.name)
    return paths


def _default_paths(raw: dict, prefix: str = "") -> set[str]:
    paths = set()
    for key, value in raw.items():
        if isinstance(value, dict):
            paths |= _default_paths(value, f"{prefix}{key}.")
        else:
            paths.add(prefix + key)
    return paths


def test_each_default_is_a_field_and_each_field_has_a_default():
    # A key with no field would be accepted and ignored; a field with no
    # default would fail every load with a KeyError.
    text = resources.files("roadsense").joinpath("defaults.yaml").read_text("utf-8")
    fields_, defaults = _field_paths(PipelineConfig), _default_paths(yaml.safe_load(text))
    assert sorted(defaults - fields_) == []
    assert sorted(fields_ - defaults) == []
    assert len(fields_) == 17


def test_list_entry_error_names_its_key(tmp_path):
    with pytest.raises(ConfigError, match="config key roughness.cost_thresholds must be float"):
        load_config(_write(tmp_path, "roughness:\n  cost_thresholds: [0.007, '0.008', 0.01]\n"))
