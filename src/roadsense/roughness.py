"""Window-level road noise tracking and smoothing-factor control.

Each analysis window yields a robust noise estimate from its finest-scale
wavelet details. A forgetting-factor sum over the recent estimates gives a
cost J, and J picks the gravity filter's smoothing factor from a small
schedule: the rougher the recent road, the heavier the smoothing. The index
of the chosen factor doubles as the roughness level (0 smooth .. 3 roughest).
"""
from __future__ import annotations

from collections import deque

from .config import RoughnessConfig
from .events import KIND_ROUGH, RoadEvent
from .signal_core import Segment
from .wavelet import WaveletCoeffs

# median(|x|) of zero-mean Gaussian data equals 0.6745 sigma
MAD_GAUSS = 0.6745


def estimate_sigma(coeffs: WaveletCoeffs) -> float:
    """Median-absolute-deviation noise estimate from the finest-scale details.

    The median makes the estimate ignore a handful of large coefficients, so
    an isolated transient does not read as sustained roughness. An
    even-length median averages the two central order statistics, as
    ``np.median`` does, to the same bits.
    """
    d = sorted(abs(v) for v in coeffs.details[0])
    mid = len(d) // 2
    median = d[mid] if len(d) % 2 else (d[mid - 1] + d[mid]) / 2
    return median / MAD_GAUSS


class RoughnessState:
    """Noise history and the currently selected smoothing factor.

    ``history`` holds normalized sigma estimates, newest last; ``alpha``
    starts at the schedule's first factor. The state is owned by a single
    trip pipeline; updates mutate it in place.
    """

    def __init__(self, cfg: RoughnessConfig) -> None:
        self.cfg = cfg
        self.alpha = cfg.alpha_schedule[0]
        self.history: deque[float] = deque(maxlen=cfg.history_len)


def cost(state: RoughnessState) -> float:
    """Forgetting-factor sum of the noise history, newest weighted 1 (0 when empty)."""
    total = 0.0
    weight = 1.0
    for sigma in reversed(state.history):
        total += weight * sigma
        weight *= state.cfg.forgetting
    return total


def update_alpha(j_cost: float, cfg: RoughnessConfig) -> float:
    """Map the cost to a smoothing factor; thresholds scale with history_len.

    Each threshold belongs to the rougher side: J exactly at a boundary
    selects the larger alpha.
    """
    for i in range(len(cfg.cost_thresholds) - 1, -1, -1):
        if j_cost >= cfg.cost_thresholds[i] * cfg.history_len:
            return cfg.alpha_schedule[i + 1]
    return cfg.alpha_schedule[0]


def classify_segment(state: RoughnessState, coeffs: WaveletCoeffs) -> int:
    """Fold one window's noise estimate into the state; returns its level.

    The sigma estimate is divided by ``sigma_normalization`` before entering
    the cost history, putting the thresholds on a gravity-unit scale.
    """
    state.history.append(estimate_sigma(coeffs) / state.cfg.sigma_normalization)
    state.alpha = update_alpha(cost(state), state.cfg)
    return state.cfg.alpha_schedule.index(state.alpha)


class RoughEventTracker:
    """Turns the per-window level sequence into opened and closed events.

    An event opens on the first window with level > 0 and closes once the
    level has stayed at 0 for ``hold_off`` consecutive windows, so short
    calm patches inside one rough stretch do not split it.
    """

    def __init__(self, hold_off: int) -> None:
        self.hold_off = hold_off
        self.events: list[RoadEvent] = []
        self._open_start: int | None = None
        self._last_active_end = 0
        self._peak_level = 0
        self._calm = 0

    def observe(self, segment: Segment, level: int) -> None:
        if level > 0:
            if self._open_start is None:
                self._open_start = segment.t_start_ms
                self._peak_level = 0
            self._last_active_end = segment.t_end_ms
            self._peak_level = max(self._peak_level, level)
            self._calm = 0
        elif self._open_start is not None:
            self._calm += 1
            if self._calm >= self.hold_off:
                self._close()

    def _close(self) -> None:
        self.events.append(
            RoadEvent(
                kind=KIND_ROUGH,
                t_start_ms=self._open_start,
                t_end_ms=self._last_active_end,
                intensity=self._peak_level,
            )
        )
        self._open_start = None
        self._calm = 0

    def finish(self) -> list[RoadEvent]:
        """Close any open event at end of trip and return all rough events."""
        if self._open_start is not None:
            self._close()
        return self.events
