"""Orthonormal Haar analysis of power-of-two windows by the pyramid transform.

Each level splits the current smooth sequence into pairs (even, odd) and
forms d = (even - odd) / sqrt(2) and s = (even + odd) / sqrt(2); the details
are kept and the smooths go on to the next level until one value is left.
For a window of L = 2^J samples, ``details[0]`` is the finest scale (j = 1,
L/2 values) and ``details[J-1]`` the coarsest (one value); ``approx`` is the
window sum over sqrt(L). Detail k at scale j is the inner product of the
window with +2^(-j/2) over the first half of samples [k*2^j, (k+1)*2^j) and
-2^(-j/2) over the second half, so the coefficients are orthonormal.

Each detail is one subtraction of two block sums, so a constant window gives
detail coefficients that are exactly zero rather than summation-order
residue. Several downstream contracts rely on that (noise estimates of still
segments, no phantom singularities).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

_INV_SQRT2 = 2.0 ** -0.5


@dataclass
class WaveletCoeffs:
    """Transform output: one approximation value plus details per scale.

    ``details[0]`` is the finest scale (j = 1, L/2 values); the last entry is
    the coarsest (a single value).
    """

    approx: float
    details: tuple[np.ndarray, ...]

    @property
    def levels(self) -> int:
        return len(self.details)


def dwt(values: np.ndarray) -> WaveletCoeffs:
    """Analyze one window whose length is a power of two >= 2."""
    x = np.asarray(values, dtype=float)
    size = x.shape[0] if x.ndim == 1 else 0
    if size < 2 or size & (size - 1):
        raise ShapeError(f"expected a 1-D power-of-two length >= 2, got shape {x.shape}")
    details = []
    smooth = x
    for _ in range(size.bit_length() - 1):
        even = smooth[0::2]
        odd = smooth[1::2]
        details.append((even - odd) * _INV_SQRT2)
        smooth = (even + odd) * _INV_SQRT2
    return WaveletCoeffs(approx=float(smooth[0]), details=tuple(details))


def find_peaks(series: np.ndarray, plateau: str = "strict") -> tuple[np.ndarray, np.ndarray]:
    """Local maxima of a series; endpoints are never peaks.

    ``strict`` requires a sample greater than both neighbours, so flat tops
    and monotone runs yield nothing. ``left`` additionally accepts the
    leftmost sample of a flat top whose shoulders are both lower.
    Returns (values, indices).
    """
    s = np.asarray(series, dtype=float)
    n = s.size
    locs: list[int] = []
    if plateau == "strict":
        for i in range(1, n - 1):
            if s[i] > s[i - 1] and s[i] > s[i + 1]:
                locs.append(i)
    elif plateau == "left":
        i = 1
        while i < n - 1:
            if s[i] > s[i - 1]:
                right = i
                while right + 1 < n and s[right + 1] == s[i]:
                    right += 1
                if right < n - 1 and s[right + 1] < s[i]:
                    locs.append(i)
                i = right + 1
            else:
                i += 1
    else:
        raise ConfigError(f"unknown plateau policy: {plateau}")
    idx = np.array(locs, dtype=int)
    return s[idx], idx
