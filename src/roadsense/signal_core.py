"""Accelerometer sample type and fixed-width windowing.

Windowing cuts the per-sample magnitude series into fixed-length analysis
segments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidSampleError

GRAVITY_MS2 = 9.8


@dataclass(frozen=True)
class AccelSample:
    """One raw accelerometer reading, axes in m/s^2."""

    t_ms: int
    ax: float
    ay: float
    az: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ax) and math.isfinite(self.ay) and math.isfinite(self.az)):
            raise InvalidSampleError(f"non-finite accelerometer values at t={self.t_ms}")


@dataclass
class Segment:
    """A fixed-length window of magnitude values with its time span."""

    index: int
    t_start_ms: int
    t_end_ms: int
    values: np.ndarray


class SegmentBuffer:
    """Accumulates (t_ms, value) pairs and emits windows of fixed width.

    The windows tile the stream; a trailing remainder shorter than one window
    is never emitted and shows up in ``dropped``.
    """

    def __init__(self, window: int = 32) -> None:
        if window < 2:
            raise ConfigError("window must be at least 2 samples")
        self.window = window
        self._ts: list[int] = []
        self._vals: list[float] = []
        self.count = 0

    def push(self, t_ms: int, value: float) -> Segment | None:
        self._ts.append(t_ms)
        self._vals.append(value)
        if len(self._vals) < self.window:
            return None
        seg = Segment(
            index=self.count,
            t_start_ms=self._ts[0],
            t_end_ms=self._ts[-1],
            values=np.array(self._vals, dtype=float),
        )
        self.count += 1
        self._ts.clear()
        self._vals.clear()
        return seg

    @property
    def dropped(self) -> int:
        """Samples seen so far that are not covered by any emitted window."""
        return len(self._vals)

