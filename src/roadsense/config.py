"""Layered pipeline configuration.

Defaults ship with the package (``defaults.yaml``); a user file selectively
overrides keys. ``load_config`` is the single entry point; everything
downstream receives an immutable :class:`PipelineConfig`.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from .errors import ConfigError

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SignalConfig:
    sample_rate_hz: float
    segment_len: int
    reseed_gap_periods: float

    @property
    def period_ms(self) -> float:
        return 1000.0 / self.sample_rate_hz


@dataclass(frozen=True)
class GravityConfig:
    alpha: float


@dataclass(frozen=True)
class RoughnessConfig:
    alpha_schedule: tuple[float, ...]
    forgetting: float
    history_len: int
    cost_thresholds: tuple[float, ...]
    sigma_normalization: float
    hold_off_segments: int


@dataclass(frozen=True)
class BumpConfig:
    beta_max: float
    min_speed_mps: float
    allow_unknown_speed: bool
    merge_window_ms: int
    peak_plateau_policy: str


@dataclass(frozen=True)
class GpsConfig:
    max_gap_ms: int
    earth_radius_m: float


@dataclass(frozen=True)
class AggregateConfig:
    cluster_radius_m: float
    min_trips: int


@dataclass(frozen=True)
class PipelineConfig:
    schema_version: int
    signal: SignalConfig
    gravity: GravityConfig
    roughness: RoughnessConfig
    bump: BumpConfig
    gps: GpsConfig
    aggregate: AggregateConfig


def _read_defaults() -> dict:
    text = resources.files("roadsense").joinpath("defaults.yaml").read_text("utf-8")
    return yaml.safe_load(text)


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    merged = dict(base)
    for key, value in override.items():
        where = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where} must be a mapping")
            merged[key] = _deep_merge(base[key], value, where + ".")
        else:
            merged[key] = value
    return merged


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _validate(cfg: PipelineConfig) -> None:
    sig, rough = cfg.signal, cfg.roughness
    _require(sig.sample_rate_hz > 0, "sample_rate_hz must be positive")
    n = sig.segment_len
    _require(n >= 8 and (n & (n - 1)) == 0, "segment_len must be a power of two >= 8")
    _require(sig.reseed_gap_periods > 0, "reseed_gap_periods must be positive")
    _require(0.0 < cfg.gravity.alpha < 1.0, "gravity.alpha must be in (0, 1)")
    for a in rough.alpha_schedule:
        _require(0.0 < a < 1.0, "alpha_schedule entries must be in (0, 1)")
    _require(
        list(rough.alpha_schedule) == sorted(set(rough.alpha_schedule)),
        "alpha_schedule must be strictly increasing",
    )
    _require(
        len(rough.alpha_schedule) == len(rough.cost_thresholds) + 1,
        "alpha_schedule needs one more entry than cost_thresholds",
    )
    _require(
        all(t > 0 for t in rough.cost_thresholds)
        and list(rough.cost_thresholds) == sorted(set(rough.cost_thresholds)),
        "cost_thresholds must be positive and strictly increasing",
    )
    _require(cfg.gravity.alpha in rough.alpha_schedule, "gravity.alpha must appear in alpha_schedule")
    _require(0.0 < rough.forgetting <= 1.0, "forgetting must be in (0, 1]")
    _require(rough.history_len >= 1, "history_len must be at least 1")
    _require(rough.sigma_normalization > 0, "sigma_normalization must be positive")
    _require(rough.hold_off_segments >= 1, "hold_off_segments must be at least 1")
    _require(cfg.bump.min_speed_mps >= 0, "min_speed_mps must be non-negative")
    _require(cfg.bump.merge_window_ms >= 0, "merge_window_ms must be non-negative")
    _require(
        cfg.bump.peak_plateau_policy in ("strict", "left"),
        "peak_plateau_policy must be 'strict' or 'left'",
    )
    _require(cfg.gps.max_gap_ms > 0, "max_gap_ms must be positive")
    _require(cfg.gps.earth_radius_m > 0, "earth_radius_m must be positive")
    _require(cfg.aggregate.cluster_radius_m > 0, "cluster_radius_m must be positive")
    _require(cfg.aggregate.min_trips >= 1, "min_trips must be at least 1")


def _build(raw: dict) -> PipelineConfig:
    try:
        cfg = PipelineConfig(
            schema_version=int(raw["schema_version"]),
            signal=SignalConfig(
                sample_rate_hz=float(raw["signal"]["sample_rate_hz"]),
                segment_len=int(raw["signal"]["segment_len"]),
                reseed_gap_periods=float(raw["signal"]["reseed_gap_periods"]),
            ),
            gravity=GravityConfig(alpha=float(raw["gravity"]["alpha"])),
            roughness=RoughnessConfig(
                alpha_schedule=tuple(float(a) for a in raw["roughness"]["alpha_schedule"]),
                forgetting=float(raw["roughness"]["forgetting"]),
                history_len=int(raw["roughness"]["history_len"]),
                cost_thresholds=tuple(float(t) for t in raw["roughness"]["cost_thresholds"]),
                sigma_normalization=float(raw["roughness"]["sigma_normalization"]),
                hold_off_segments=int(raw["roughness"]["hold_off_segments"]),
            ),
            bump=BumpConfig(
                beta_max=float(raw["bump"]["beta_max"]),
                min_speed_mps=float(raw["bump"]["min_speed_mps"]),
                allow_unknown_speed=bool(raw["bump"]["allow_unknown_speed"]),
                merge_window_ms=int(raw["bump"]["merge_window_ms"]),
                peak_plateau_policy=str(raw["bump"]["peak_plateau_policy"]),
            ),
            gps=GpsConfig(
                max_gap_ms=int(raw["gps"]["max_gap_ms"]),
                earth_radius_m=float(raw["gps"]["earth_radius_m"]),
            ),
            aggregate=AggregateConfig(
                cluster_radius_m=float(raw["aggregate"]["cluster_radius_m"]),
                min_trips=int(raw["aggregate"]["min_trips"]),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    _validate(cfg)
    return cfg


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Build a validated config, overlaying ``path`` on the packaged defaults.

    ``overrides`` (e.g. command-line flags) is a nested mapping of the same
    shape, laid over the file and validated with it.
    """
    raw = _read_defaults()
    if path is not None:
        try:
            text = Path(path).read_text("utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            override = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
        if override is None:
            override = {}
        if not isinstance(override, dict):
            raise ConfigError(f"config file {path} must contain a mapping")
        raw = _deep_merge(raw, override)
    if overrides:
        raw = _deep_merge(raw, overrides)
    return _build(raw)
