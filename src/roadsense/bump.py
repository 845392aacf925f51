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

import numpy as np

from .config import BumpConfig
from .errors import DegenerateFitError, DomainError
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


def lipschitz_algorithm1(coeffs: WaveletCoeffs, plateau: str = "strict") -> LipschitzEstimate:
    """Estimate the singularity exponent of one analysis window.

    Peak positions are compared on a normalized (0, 1] axis: the 1-based
    peak index divided by the coefficient count at that scale. Ties for the
    nearest scale-2 peak resolve to the earlier index.
    """
    d1, d2 = coeffs.details[0], coeffs.details[1]
    pks1, locs1 = find_peaks(np.abs(d1), plateau)
    pks2, locs2 = find_peaks(np.abs(d2), plateau)
    if pks1.size == 0 or pks2.size == 0:
        return _INVALID
    i1 = int(np.argmax(pks1))
    p1 = float(pks1[i1])
    normloc1 = (locs1[i1] + 1) / d1.size
    normloc2 = (locs2 + 1) / d2.size
    i2 = int(np.argmin(np.abs(normloc2 - normloc1)))
    p2 = float(pks2[i2])
    s = math.log2(p1) + math.log2(p2)
    # Row 2 of inv([[4, 7], [7, 25]]) applied to [s, 7s], i.e. (7/17)*s. Kept
    # as two terms: folding them into one constant changes the last bits.
    beta = (-7.0 / 51.0) * s + (4.0 / 51.0) * 7.0 * s
    # Finest-scale coefficient k covers samples 2k and 2k+1.
    return LipschitzEstimate(beta_hat=beta, p1=p1, p2=p2, loc=2 * int(locs1[i1]), valid=True)


def lipschitz_diagnostics(coeffs: WaveletCoeffs, plateau: str = "strict") -> dict:
    """Per-window peak sets (scales 1..3) and the resulting estimate."""
    est = lipschitz_algorithm1(coeffs, plateau)
    out: dict = {"estimate": est}
    for j in (1, 2, 3):
        pks, locs = find_peaks(np.abs(coeffs.details[j - 1]), plateau)
        out[f"peaks{j}"] = [[int(i), float(v)] for i, v in zip(locs, pks)]
    return out


def lipschitz_lsq(moduli: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares fit of log2(a) = log2(A) + beta * log2(j); returns (A, beta).

    ``moduli`` pairs each scale j with a modulus magnitude a > 0. Serves as
    the reference estimator the windowed algorithm is checked against.
    """
    if any(a <= 0.0 for _, a in moduli):
        raise DomainError("moduli must be positive")
    if len({j for j, _ in moduli}) < 2:
        raise DegenerateFitError("need at least two distinct scales")
    xs = [math.log2(j) for j, _ in moduli]
    ys = [math.log2(a) for _, a in moduli]
    n = float(len(xs))
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    det = n * sxx - sx * sx
    if det == 0.0:
        raise DegenerateFitError("singular normal equations")
    beta = (n * sxy - sx * sy) / det
    log_a = (sy * sxx - sx * sxy) / det
    return 2.0**log_a, beta


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

