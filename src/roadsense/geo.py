"""GPS track utilities: great-circle distance, position interpolation, speed."""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

EARTH_RADIUS_M = 6371000.0


@dataclass(frozen=True)
class GpsFix:
    t_ms: int
    lat: float
    lon: float


def haversine_m(
    lat1: float, lon1: float, lat2: float, lon2: float, radius_m: float = EARTH_RADIUS_M
) -> float:
    """Great-circle distance in metres on a spherical earth."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * radius_m * math.asin(min(1.0, math.sqrt(a)))


def _bracket(fixes: list[GpsFix], t_ms: int) -> tuple[GpsFix, GpsFix]:
    # Index of the first fix strictly after t, clamped so both ends exist.
    hi = bisect_right(fixes, t_ms, key=lambda f: f.t_ms)
    hi = min(max(hi, 1), len(fixes) - 1)
    return fixes[hi - 1], fixes[hi]


def speed_at(fixes: list[GpsFix], t_ms: int) -> float | None:
    """Ground speed (m/s) from the fix pair bracketing t, clamped at the ends; None if < 2 fixes."""
    if len(fixes) < 2:
        return None
    lo, hi = _bracket(fixes, t_ms)
    dt_s = (hi.t_ms - lo.t_ms) / 1000.0
    if dt_s <= 0.0:
        return 0.0
    return haversine_m(lo.lat, lo.lon, hi.lat, hi.lon) / dt_s


def gap_count(fixes: list[GpsFix], max_gap_ms: int) -> int:
    """Number of consecutive-fix gaps longer than the threshold."""
    return sum(
        1 for a, b in zip(fixes, fixes[1:]) if b.t_ms - a.t_ms > max_gap_ms
    )


def locate_event(
    fixes: list[GpsFix], t_ms: int, max_gap_ms: int
) -> tuple[float, float] | None:
    """Linear lat/lon between the bracketing fixes, or None when coverage is unusable.

    Inside a fix gap longer than ``max_gap_ms`` the track tells us nothing
    about where the vehicle actually was, so the event stays unlocated.
    Outside the covered span the position clamps to the nearest fix.
    """
    if not fixes:
        return None
    if t_ms <= fixes[0].t_ms:
        return fixes[0].lat, fixes[0].lon
    if t_ms >= fixes[-1].t_ms:
        return fixes[-1].lat, fixes[-1].lon
    # Strictly inside the span the bracket has lo.t_ms <= t_ms < hi.t_ms.
    lo, hi = _bracket(fixes, t_ms)
    if hi.t_ms - lo.t_ms > max_gap_ms and lo.t_ms < t_ms:
        return None
    w = (t_ms - lo.t_ms) / (hi.t_ms - lo.t_ms)
    return lo.lat + w * (hi.lat - lo.lat), lo.lon + w * (hi.lon - lo.lon)
