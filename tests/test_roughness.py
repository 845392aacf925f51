from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from roadsense.config import RoughnessConfig
from roadsense.roughness import (
    MAD_GAUSS,
    RoughEventTracker,
    RoughnessState,
    classify_segment,
    cost,
    estimate_sigma,
    update_alpha,
)
from roadsense.signal_core import Segment
from roadsense.wavelet import WaveletCoeffs, dwt

SCHEDULE = (0.992, 0.995, 0.996, 0.998)
THRESHOLDS = (0.007, 0.008, 0.01)


@pytest.fixture
def rough(config) -> RoughnessConfig:
    """The packaged roughness config, pinned to the schedule these tests assert."""
    return replace(
        config.roughness, alpha_schedule=SCHEDULE, cost_thresholds=THRESHOLDS, history_len=8
    )


def _coeffs_with_finest(finest) -> WaveletCoeffs:
    finest = np.asarray(finest, dtype=float)
    return WaveletCoeffs(
        approx=0.0,
        details=(finest, np.zeros(8), np.zeros(4), np.zeros(2), np.zeros(1)),
    )


def test_sigma_of_equal_details():
    sigma = estimate_sigma(_coeffs_with_finest(np.full(16, 0.2)))
    assert sigma == pytest.approx(0.2 / MAD_GAUSS, abs=1e-15)


def test_sigma_constant_segment_is_exactly_zero():
    assert estimate_sigma(dwt(np.full(32, 9.8))) == 0.0


def test_sigma_even_median_averages_central_pair():
    finest = np.array([0.1] * 8 + [0.3] * 8)
    sigma = estimate_sigma(_coeffs_with_finest(finest))
    assert sigma == pytest.approx(0.2 / MAD_GAUSS, abs=1e-15)


# A few small integers give ties; the floats cover the finite range.
_FINEST = st.lists(
    st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=64,
)


@given(values=_FINEST)
@example(values=[5e-324, 5e-324])  # the smallest subnormal: halving each would round to 0
@example(values=[1.7e308, 1.7e308])  # the pair sum overflows, as in np.median
def test_sigma_median_is_numpy_median_to_the_bit(values):
    finest = np.array(values)
    with np.errstate(over="ignore"):
        expected = float(np.median(np.abs(finest))) / MAD_GAUSS
    # The transform hands over its details as lists of floats.
    assert estimate_sigma(WaveletCoeffs(approx=0.0, details=(values,))) == expected


def test_sigma_scale_equivariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(0.0, 1.0, 32)
        base = estimate_sigma(dwt(x))
        scaled = estimate_sigma(dwt(-2.5 * x))
        assert scaled == pytest.approx(2.5 * base, rel=1e-9)


def test_sigma_monte_carlo_mean_near_unit():
    rng = np.random.default_rng(1)
    estimates = [
        estimate_sigma(dwt(rng.normal(0.0, 1.0, 32)))
        for _ in range(2000)
    ]
    assert 0.9 <= float(np.mean(estimates)) <= 1.1


def test_cost_single_estimate(rough):
    state = RoughnessState(replace(rough, forgetting=0.3))
    state.history.append(0.42)
    assert cost(state) == 0.42


def test_cost_unit_forgetting_sums(rough):
    state = RoughnessState(replace(rough, forgetting=1.0))
    state.history.extend([0.02] * 8)
    assert cost(state) == pytest.approx(0.16, abs=1e-15)


def test_cost_geometric_weights(rough):
    # Newest last in history; weights 1, 0.5, 0.25 oldest.
    state = RoughnessState(replace(rough, forgetting=0.5))
    state.history.extend([1.0, 1.0, 1.0])
    assert cost(state) == 1.75


def test_history_caps_at_length(rough):
    state = RoughnessState(rough)
    for i in range(11):
        state.history.append(float(i))
    assert list(state.history) == [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]


def test_update_alpha_branches(rough):
    l = rough.history_len
    assert update_alpha(0.02 * l, rough) == 0.998
    assert update_alpha(0.0085 * l, rough) == 0.996
    assert update_alpha(0.0075 * l, rough) == 0.995
    assert update_alpha(0.0, rough) == 0.992
    assert update_alpha(0.004 * l, rough) == 0.992


def test_update_alpha_boundaries_belong_to_larger_alpha(rough):
    l = rough.history_len
    assert update_alpha(0.007 * l, rough) == 0.995
    assert update_alpha(0.008 * l, rough) == 0.996
    assert update_alpha(0.01 * l, rough) == 0.998


def test_update_alpha_monotone_in_cost(rough):
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b = sorted(rng.uniform(0.0, 0.15, 2))
        assert SCHEDULE.index(update_alpha(a, rough)) <= SCHEDULE.index(update_alpha(b, rough))


def test_alpha_never_leaves_schedule(rough):
    rng = np.random.default_rng(3)
    state = RoughnessState(rough)
    for _ in range(300):
        x = rng.normal(9.8, rng.uniform(0.0, 2.0), 32)
        level = classify_segment(state, dwt(x))
        assert state.alpha in SCHEDULE
        assert level == SCHEDULE.index(state.alpha)


def test_classify_constant_road_stays_smooth(rough):
    state = RoughnessState(rough)
    for _ in range(20):
        level = classify_segment(state, dwt(np.full(32, 9.8)))
        assert level == 0
        assert state.alpha == 0.992


def test_classify_normalizes_sigma_before_costing(rough):
    state = RoughnessState(replace(rough, sigma_normalization=9.8))
    coeffs = _coeffs_with_finest(np.full(16, 9.8 * MAD_GAUSS))
    classify_segment(state, coeffs)
    assert state.history[-1] == pytest.approx(1.0, rel=1e-12)


def _segment(i: int) -> Segment:
    return Segment(index=i, times=list(range(640 * i, 640 * i + 640, 20)), values=np.zeros(32))


def test_tracker_opens_and_closes_with_hold_off():
    tracker = RoughEventTracker(hold_off=3)
    levels = [0, 1, 2, 1, 0, 0, 0, 0, 0]
    for i, level in enumerate(levels):
        tracker.observe(_segment(i), level)
    events = tracker.finish()
    assert len(events) == 1
    ev = events[0]
    assert (ev.t_start_ms, ev.t_end_ms) == (640, 3 * 640 + 620)
    assert ev.intensity == 2


def test_tracker_bridges_short_dips():
    tracker = RoughEventTracker(hold_off=3)
    for i, level in enumerate([1, 0, 0, 1, 1, 0, 0, 0]):
        tracker.observe(_segment(i), level)
    events = tracker.finish()
    assert len(events) == 1
    assert events[0].t_end_ms == 4 * 640 + 620


def test_tracker_separates_distant_events():
    tracker = RoughEventTracker(hold_off=2)
    for i, level in enumerate([1, 1, 0, 0, 0, 3, 3, 0, 0]):
        tracker.observe(_segment(i), level)
    events = tracker.finish()
    assert [e.intensity for e in events] == [1, 3]


def test_tracker_closes_open_event_at_finish():
    tracker = RoughEventTracker(hold_off=8)
    tracker.observe(_segment(0), 2)
    events = tracker.finish()
    assert len(events) == 1
    assert events[0].intensity == 2
