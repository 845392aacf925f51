"""Independent reference implementations used to cross-check the estimators.

Everything here is deliberately plain Python: explicit inner products
instead of the pyramid recursion, hand-rolled peak scans, a 2x2 inverse by
adjugate. These routes share no code with the production implementations
they verify, so agreement between the two is meaningful.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError
from .wavelet import WaveletCoeffs


def oracle_dwt(values) -> WaveletCoeffs:
    """Haar analysis via explicit inner products with each sampled wavelet."""
    x = [float(v) for v in values]
    size = len(x)
    if size < 2 or size & (size - 1):
        raise ShapeError(f"length must be a power of two >= 2, got {size}")
    levels = size.bit_length() - 1
    approx = math.fsum(v / math.sqrt(size) for v in x)
    details = []
    for j in range(1, levels + 1):
        support = 1 << j
        half = support >> 1
        amp = 2.0 ** (-j / 2.0)
        row = []
        for k in range(size >> j):
            start = k * support
            terms = [x[i] * amp for i in range(start, start + half)]
            terms += [x[i] * -amp for i in range(start + half, start + support)]
            row.append(math.fsum(terms))
        details.append(np.array(row))
    return WaveletCoeffs(approx=approx, details=tuple(details))


def _findpeaks_1based(series: list[float]) -> tuple[list[float], list[int]]:
    # Strict local maxima, endpoints excluded; locations are 1-based.
    pks, locs = [], []
    for i in range(1, len(series) - 1):
        if series[i] > series[i - 1] and series[i] > series[i + 1]:
            pks.append(series[i])
            locs.append(i + 1)
    return pks, locs


def _inv2x2(m: list[list[float]]) -> list[list[float]]:
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return [
        [m[1][1] / det, -m[0][1] / det],
        [-m[1][0] / det, m[0][0] / det],
    ]


def oracle_algorithm1(values) -> dict:
    """Step-by-step singularity exponent estimate for one window.

    Returns every intermediate the windowed estimator produces: the three
    peak sets (scale 3 is computed though the estimate never consumes it),
    the dominant peaks P1 and P2, the 1-based finest-scale peak location,
    and the exponent. ``valid`` is False when scale 1 or 2 has no peak.
    """
    coeffs = oracle_dwt(values)
    d1 = [abs(c) for c in coeffs.details[0]]
    d2 = [abs(c) for c in coeffs.details[1]]
    d3 = [abs(c) for c in coeffs.details[2]]
    pks1, locs1 = _findpeaks_1based(d1)
    pks2, locs2 = _findpeaks_1based(d2)
    pks3, locs3 = _findpeaks_1based(d3)
    result = {
        "valid": False,
        "beta_hat": None,
        "p1": None,
        "p2": None,
        "location": None,
        "pks1": pks1,
        "locs1": locs1,
        "pks2": pks2,
        "locs2": locs2,
        "pks3": pks3,
        "locs3": locs3,
    }
    if not pks1 or not pks2:
        return result
    p1 = max(pks1)
    location = locs1[pks1.index(p1)]
    normloc1 = location / len(d1)
    normloc2 = [loc / len(d2) for loc in locs2]
    diffs = [abs(nl - normloc1) for nl in normloc2]
    p2 = pks2[diffs.index(min(diffs))]
    m = _inv2x2([[4.0, 7.0], [7.0, 25.0]])
    s = math.log2(p1) + math.log2(p2)
    beta = m[1][0] * s + m[1][1] * 7.0 * s
    result.update(valid=True, beta_hat=beta, p1=p1, p2=p2, location=location)
    return result
