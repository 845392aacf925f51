"""Per-axis first-order IIR low-pass that tracks the gravity component.

Each axis follows g' = alpha * g + (1 - alpha) * a. The update is evaluated
in the increment form g + (1 - alpha) * (a - g), which is the same recursion
but keeps a constant input an exact fixed point in floating point. The state
seeds itself from the first sample it sees, so there is no warm-up transient
at trip start or after a sensor dropout.
"""
from __future__ import annotations

import math
from typing import NamedTuple


class FilterState(NamedTuple):
    alpha: float
    gx: float
    gy: float
    gz: float
    seeded: bool


def make_filter(alpha: float) -> FilterState:
    """Fresh unseeded state; the first sample seeds it. Samples must be finite."""
    return FilterState(alpha, 0.0, 0.0, 0.0, False)


def filter_step(
    state: FilterState, ax: float, ay: float, az: float
) -> tuple[FilterState, tuple[float, float, float]]:
    """Advance one sample; returns the new state and the filtered triple."""
    if not state.seeded:
        new = FilterState(state.alpha, ax, ay, az, True)
        return new, (ax, ay, az)
    k = 1.0 - state.alpha
    gx = state.gx + k * (ax - state.gx)
    gy = state.gy + k * (ay - state.gy)
    gz = state.gz + k * (az - state.gz)
    return FilterState(state.alpha, gx, gy, gz, True), (gx, gy, gz)


def gravity_magnitude(filtered: tuple[float, float, float]) -> float:
    """Euclidean norm of a filtered triple; hovers near 9.8 on steady ground."""
    gx, gy, gz = filtered
    return math.sqrt(gx * gx + gy * gy + gz * gz)


def set_alpha(state: FilterState, alpha: float) -> FilterState:
    """Change the smoothing factor, keeping the tracked gravity; samples must be finite."""
    return state._replace(alpha=alpha)


def reset_seed(state: FilterState) -> FilterState:
    """Forget the tracked value so the next sample reseeds the filter."""
    return state._replace(seeded=False)
