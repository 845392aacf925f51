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

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import ShapeError

_INV_SQRT2 = 2.0 ** -0.5


@dataclass
class WaveletCoeffs:
    """Transform output: one approximation value plus details per scale.

    ``details[0]`` is the finest scale (j = 1, L/2 values); the last entry is
    the coarsest (a single value).
    """

    approx: float
    details: tuple[list[float], ...]


def dwt(values: Sequence[float]) -> WaveletCoeffs:
    """Analyze one window of floats whose length is a power of two >= 2."""
    try:
        smooth = [float(v) for v in values]
    except TypeError as exc:
        raise ShapeError(f"expected a 1-D sequence of floats: {exc}") from exc
    size = len(smooth)
    if size < 2 or size & (size - 1):
        raise ShapeError(f"expected a power-of-two length >= 2, got {size}")
    details = []
    for _ in range(size.bit_length() - 1):
        even, odd = smooth[0::2], smooth[1::2]
        details.append([(e - o) * _INV_SQRT2 for e, o in zip(even, odd)])
        smooth = [(e + o) * _INV_SQRT2 for e, o in zip(even, odd)]
    return WaveletCoeffs(approx=smooth[0], details=tuple(details))


def find_peaks(series: list[float]) -> list[int]:
    """Indices of the strict local maxima of a series, in order.

    A peak is greater than both neighbours, so endpoints, flat tops and
    monotone runs yield nothing.
    """
    return [i for i in range(1, len(series) - 1) if series[i - 1] < series[i] > series[i + 1]]
