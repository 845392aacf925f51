"""Deterministic synthetic trips with ground-truth labels.

A scenario describes a straight drive: a gravity orientation, baseline
sensor noise, rough patches (sustained vertical vibration), bump impulses
(raised-cosine spikes along gravity), and a piecewise-constant speed
profile that the GPS track integrates. The same scenario and seed always
produce byte-identical output, and the device gain multiplies finished
readings only, so two gains of one scenario share identical labels.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .config import _typed
from .errors import ScenarioError
from .geo import EARTH_RADIUS_M
from .signal_core import GRAVITY_MS2
from .trip_io import TRIP_HEADER

_M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0


@dataclass(frozen=True)
class RoughPatch:
    start_s: float
    end_s: float
    sigma_g: float


@dataclass(frozen=True)
class BumpSpec:
    t_s: float
    height_g: float
    width_samples: int = 6


@dataclass(frozen=True)
class SpeedPoint:
    t_s: float
    speed_mps: float


@dataclass(frozen=True)
class Scenario:
    name: str
    duration_s: float
    sample_rate_hz: float = 50.0
    gravity_orientation: tuple[float, float, float] = (0.0, 0.0, 1.0)
    device_gain: float = 1.0
    noise_sigma_g: float = 0.0
    rough: tuple[RoughPatch, ...] = ()
    bumps: tuple[BumpSpec, ...] = ()
    speed_profile: tuple[SpeedPoint, ...] = (SpeedPoint(0.0, 0.0),)
    origin_lat: float = 0.0
    origin_lon: float = 0.0
    gps_rate_hz: float = 1.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.sample_rate_hz <= 0 or self.gps_rate_hz <= 0:
            raise ScenarioError("duration and rates must be positive")
        if self.device_gain <= 0:
            raise ScenarioError("device_gain must be positive")
        if self.noise_sigma_g < 0:
            raise ScenarioError("noise_sigma_g must be non-negative")
        norm = math.sqrt(sum(c * c for c in self.gravity_orientation))
        if norm == 0.0:
            raise ScenarioError("gravity_orientation must be a non-zero vector")
        object.__setattr__(
            self, "gravity_orientation", tuple(c / norm for c in self.gravity_orientation)
        )
        for p in self.rough:
            if not 0 <= p.start_s < p.end_s <= self.duration_s or p.sigma_g < 0:
                raise ScenarioError(f"bad rough patch {p}")
        for b in self.bumps:
            if not 0 <= b.t_s < self.duration_s or b.height_g <= 0 or b.width_samples < 2:
                raise ScenarioError(f"bad bump {b}")
        if not self.speed_profile:
            raise ScenarioError("speed_profile must not be empty")
        times = [p.t_s for p in self.speed_profile]
        if times != sorted(set(times)) or times[0] > 0:
            raise ScenarioError("speed_profile must start at t<=0 and increase")
        if any(p.speed_mps < 0 for p in self.speed_profile):
            raise ScenarioError("speeds must be non-negative")


def load_scenario(source: str | Path) -> Scenario:
    """Build a Scenario from YAML text or a file path, checking types as the config does."""
    text = Path(source).read_text("utf-8") if isinstance(source, Path) else source
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a mapping")
    known = {
        "name",
        "duration_s",
        "sample_rate_hz",
        "gravity_orientation",
        "device_gain",
        "noise_sigma_g",
        "rough_segments",
        "bumps",
        "speed_profile",
        "origin",
        "gps_rate_hz",
        "rng_seed",
    }
    unknown = set(raw) - known
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")

    def typed(value, kind: type, key: str):
        return _typed(value, kind, f"scenario key {key}", ScenarioError)

    def floats(value, key: str) -> tuple[float, ...]:
        return tuple(typed(v, float, key) for v in typed(value, list, key))

    try:
        kwargs: dict = {
            "name": typed(raw.get("name", "scenario"), str, "name"),
            "duration_s": typed(raw["duration_s"], float, "duration_s"),
        }
        for key in ("sample_rate_hz", "device_gain", "noise_sigma_g", "gps_rate_hz"):
            if key in raw:
                kwargs[key] = typed(raw[key], float, key)
        if "rng_seed" in raw:
            kwargs["rng_seed"] = typed(raw["rng_seed"], int, "rng_seed")
        if "gravity_orientation" in raw:
            x, y, z = floats(raw["gravity_orientation"], "gravity_orientation")
            kwargs["gravity_orientation"] = (x, y, z)
        if "origin" in raw:
            kwargs["origin_lat"], kwargs["origin_lon"] = floats(raw["origin"], "origin")
        kwargs["rough"] = tuple(
            RoughPatch(*floats(p, "rough_segments")) for p in raw.get("rough_segments", [])
        )
        kwargs["bumps"] = tuple(
            BumpSpec(typed(t, float, "bumps"), typed(h, float, "bumps"), typed(w, int, "bumps"))
            for t, h, w in raw.get("bumps", [])
        )
        if "speed_profile" in raw:
            kwargs["speed_profile"] = tuple(
                SpeedPoint(*floats(p, "speed_profile")) for p in raw["speed_profile"]
            )
        return Scenario(**kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def _pulse(width: int):
    """Raised-cosine impulse of ``width`` samples, peak exactly 1, as an array."""
    import numpy as np

    k = np.arange(1, width + 1)
    shape = np.sin(np.pi * k / (width + 1)) ** 2
    return shape / shape.max()


def _distance_m(profile: tuple[SpeedPoint, ...], t_s: float) -> float:
    """Distance travelled by time t under a piecewise-constant speed profile."""
    dist = 0.0
    for point, nxt in zip(profile, profile[1:] + (None,)):
        start = max(point.t_s, 0.0)
        seg_end = t_s if nxt is None else min(nxt.t_s, t_s)
        if seg_end > start:
            dist += point.speed_mps * (seg_end - start)
        if nxt is None or t_s <= nxt.t_s:
            break
    return dist


def generate_trip(scenario: Scenario) -> tuple[str, str]:
    """Render a scenario to (trip CSV text, ground-truth label JSON text)."""
    # Only synthesis needs numpy, so analyze and aggregate start without it.
    import numpy as np

    hz = scenario.sample_rate_hz
    n = round(scenario.duration_s * hz)
    period_ms = 1000.0 / hz
    rng = np.random.default_rng(scenario.rng_seed)
    orient = np.array(scenario.gravity_orientation)

    axes = np.tile(GRAVITY_MS2 * orient, (n, 1))
    axes += rng.normal(0.0, scenario.noise_sigma_g * GRAVITY_MS2, (n, 3))
    vertical = np.zeros(n)
    for patch in scenario.rough:
        i0, i1 = round(patch.start_s * hz), round(patch.end_s * hz)
        vertical[i0:i1] += rng.normal(0.0, patch.sigma_g * GRAVITY_MS2, i1 - i0)
    for b in scenario.bumps:
        i0 = round(b.t_s * hz)
        stop = min(i0 + b.width_samples, n)
        vertical[i0:stop] += (b.height_g * GRAVITY_MS2 * _pulse(b.width_samples))[: stop - i0]
    axes += vertical[:, None] * orient
    axes *= scenario.device_gain

    rows: list[tuple[int, int, str]] = []
    for i in range(n):
        t = round(i * period_ms)
        rows.append((t, 0, f"A,{t},{axes[i, 0]:.6f},{axes[i, 1]:.6f},{axes[i, 2]:.6f}"))
    n_fix = math.floor(scenario.duration_s * scenario.gps_rate_hz) + 1
    for k in range(n_fix):
        t_s = k / scenario.gps_rate_hz
        t = round(t_s * 1000.0)
        lat = scenario.origin_lat + _distance_m(scenario.speed_profile, t_s) / _M_PER_DEG_LAT
        rows.append((t, 1, f"G,{t},{lat:.7f},{scenario.origin_lon:.7f},5.0"))
    rows.sort(key=lambda r: (r[0], r[1]))
    csv_text = TRIP_HEADER + "\n" + "\n".join(r[2] for r in rows) + "\n"

    labels = {
        "name": scenario.name,
        "duration_ms": round(scenario.duration_s * 1000.0),
        "sample_rate_hz": hz,
        "device_gain": scenario.device_gain,
        "rng_seed": scenario.rng_seed,
        "rough": [
            {
                "start_ms": round(p.start_s * 1000.0),
                "end_ms": round(p.end_s * 1000.0),
                "sigma_g": p.sigma_g,
            }
            for p in scenario.rough
        ],
        "bumps": [
            {
                "t_ms": round(b.t_s * 1000.0),
                "height_g": b.height_g,
                "width_samples": b.width_samples,
            }
            for b in scenario.bumps
        ],
    }
    labels_text = json.dumps(labels, sort_keys=True, indent=2) + "\n"
    return csv_text, labels_text
