"""Singularity-exponent bump detector on wavelet analysis windows.

A short road bump shows up as a pointwise singularity of the smoothed
magnitude signal. Its sharpness is summarized by a Lipschitz-style exponent
estimated from the modulus maxima of the detail coefficients: take the
dominant finest-scale peak P1, the scale-2 peak P2 whose normalized position
lies nearest the P1 position, and map log2(P1) + log2(P2) through a fixed
2x2 inverse-normal-matrix row. Scale-3 peaks are computed for diagnostics
but play no part in the estimate. The exponent is compared against a
calibrated ceiling, and a speed gate drops candidates recorded while the
vehicle was effectively stationary (phone placement, pockets, etc.).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import BumpConfig
from .events import KIND_BUMP, RoadEvent
from .wavelet import WaveletCoeffs, find_peaks


@dataclass(frozen=True)
class LipschitzEstimate:
    """Exponent estimate for one window.

    ``loc`` is the sample offset (within the window) where the dominant
    finest-scale peak sits. When either needed peak set is empty the window
    carries no usable singularity and ``valid`` is False.
    """

    beta_hat: float
    p1: float
    p2: float
    loc: int
    valid: bool


_INVALID = LipschitzEstimate(beta_hat=math.nan, p1=math.nan, p2=math.nan, loc=-1, valid=False)


def lipschitz_algorithm1(coeffs: WaveletCoeffs) -> LipschitzEstimate:
    """Estimate the singularity exponent of one analysis window.

    Peak positions are compared on a normalized (0, 1] axis: the 1-based
    peak index divided by the coefficient count at that scale. Ties for the
    largest scale-1 peak and for the nearest scale-2 peak resolve to the
    earlier index.
    """
    a1 = [abs(v) for v in coeffs.details[0]]
    a2 = [abs(v) for v in coeffs.details[1]]
    locs1, locs2 = find_peaks(a1), find_peaks(a2)
    if not locs1 or not locs2:
        return _INVALID
    k1 = max(locs1, key=a1.__getitem__)
    p1 = a1[k1]
    normloc1 = (k1 + 1) / len(a1)
    k2 = min(locs2, key=lambda k: abs((k + 1) / len(a2) - normloc1))
    p2 = a2[k2]
    s = math.log2(p1) + math.log2(p2)
    # Row 2 of inv([[4, 7], [7, 25]]) applied to [s, 7s], i.e. (7/17)*s. Kept
    # as two terms: folding them into one constant changes the last bits.
    beta = (-7.0 / 51.0) * s + (4.0 / 51.0) * 7.0 * s
    # Finest-scale coefficient k covers samples 2k and 2k+1.
    return LipschitzEstimate(beta_hat=beta, p1=p1, p2=p2, loc=2 * k1, valid=True)


def lipschitz_diagnostics(coeffs: WaveletCoeffs) -> dict:
    """Per-window peak sets (scales 1..3) as ``peaks1``..``peaks3``."""
    out: dict = {}
    for j in (1, 2, 3):
        a = [abs(v) for v in coeffs.details[j - 1]]
        out[f"peaks{j}"] = [[i, a[i]] for i in find_peaks(a)]
    return out


def detect_bump(
    est: LipschitzEstimate,
    speed_mps: float | None,
    t_ms: int,
    cfg: BumpConfig,
) -> RoadEvent | None:
    """Turn one window's estimate into a bump event, or decide it is nothing.

    Fires only on a valid estimate below the exponent ceiling, and only when
    the vehicle was actually moving. ``speed_mps`` of None means speed could
    not be derived; the ``allow_unknown_speed`` policy then decides.
    """
    if not est.valid or not est.beta_hat < cfg.beta_max:
        return None
    if speed_mps is None:
        if not cfg.allow_unknown_speed:
            return None
    elif speed_mps < cfg.min_speed_mps:
        return None
    return RoadEvent(kind=KIND_BUMP, t_start_ms=t_ms, t_end_ms=t_ms, intensity=est.beta_hat)


def merge_events(candidates: list[RoadEvent], window_ms: int) -> list[RoadEvent]:
    """Collapse bump candidates closer than ``window_ms`` into single events.

    A run of merged candidates keeps the lowest exponent (the sharpest
    member) as its intensity and location, and spans the whole run in time.
    """
    if not candidates:
        return []
    ordered = sorted(candidates, key=lambda e: (e.t_start_ms, e.t_end_ms))
    merged = [replace(ordered[0])]
    for ev in ordered[1:]:
        cur = merged[-1]
        if ev.t_start_ms - cur.t_end_ms <= window_ms:
            if ev.intensity < cur.intensity:
                cur.intensity = ev.intensity
                cur.lat, cur.lon = ev.lat, ev.lon
            cur.t_end_ms = max(cur.t_end_ms, ev.t_end_ms)
        else:
            merged.append(replace(ev))
    return merged

