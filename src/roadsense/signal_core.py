"""Fixed-width windowing.

Windowing cuts the per-sample magnitude series into fixed-length analysis
segments.
"""
from __future__ import annotations

from dataclasses import dataclass

GRAVITY_MS2 = 9.8


@dataclass
class Segment:
    """A fixed-length window of magnitude values and their sample times."""

    index: int
    times: list[int]
    values: list[float]

    @property
    def t_start_ms(self) -> int:
        return self.times[0]

    @property
    def t_end_ms(self) -> int:
        return self.times[-1]


class SegmentBuffer:
    """Accumulates (t_ms, value) pairs and emits windows of fixed width.

    The windows tile the stream; a trailing remainder shorter than one window
    is never emitted and shows up in ``dropped``, as do the samples a
    :meth:`restart` discards.
    """

    def __init__(self, window: int) -> None:
        self.window = window
        self._ts: list[int] = []
        self._vals: list[float] = []
        self.count = 0
        self._discarded = 0

    def push(self, t_ms: int, value: float) -> Segment | None:
        self._ts.append(t_ms)
        self._vals.append(value)
        if len(self._vals) < self.window:
            return None
        seg = Segment(index=self.count, times=self._ts, values=self._vals)
        self.count += 1
        self._ts, self._vals = [], []
        return seg

    def restart(self) -> None:
        """Discard the pending partial window, e.g. at a sensor gap."""
        self._discarded += len(self._vals)
        self._ts.clear()
        self._vals.clear()

    @property
    def dropped(self) -> int:
        """Samples seen so far that are not covered by any emitted window."""
        return self._discarded + len(self._vals)

