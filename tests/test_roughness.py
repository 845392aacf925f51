from __future__ import annotations

import numpy as np
import pytest

from roadsense.errors import InsufficientDataError
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


def _coeffs_with_finest(finest) -> WaveletCoeffs:
    finest = np.asarray(finest, dtype=float)
    return WaveletCoeffs(
        approx=0.0,
        details=(finest, np.zeros(8), np.zeros(4), np.zeros(2), np.zeros(1)),
    )


def test_sigma_of_equal_details():
    est = estimate_sigma(_coeffs_with_finest(np.full(16, 0.2)))
    assert est.sigma_hat == pytest.approx(0.2 / MAD_GAUSS, abs=1e-15)


def test_sigma_constant_segment_is_exactly_zero():
    est = estimate_sigma(dwt(np.full(32, 9.8)))
    assert est.sigma_hat == 0.0


def test_sigma_even_median_averages_central_pair():
    finest = np.array([0.1] * 8 + [0.3] * 8)
    est = estimate_sigma(_coeffs_with_finest(finest))
    assert est.sigma_hat == pytest.approx(0.2 / MAD_GAUSS, abs=1e-15)


def test_sigma_scale_equivariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(0.0, 1.0, 32)
        base = estimate_sigma(dwt(x)).sigma_hat
        scaled = estimate_sigma(dwt(-2.5 * x)).sigma_hat
        assert scaled == pytest.approx(2.5 * base, rel=1e-9)


def test_sigma_monte_carlo_mean_near_unit():
    rng = np.random.default_rng(1)
    estimates = [
        estimate_sigma(dwt(rng.normal(0.0, 1.0, 32))).sigma_hat
        for _ in range(2000)
    ]
    assert 0.9 <= float(np.mean(estimates)) <= 1.1


def test_cost_single_estimate():
    state = RoughnessState(forgetting=0.3, history_len=8)
    state.history.append(0.42)
    assert cost(state) == 0.42


def test_cost_unit_forgetting_sums():
    state = RoughnessState(forgetting=1.0, history_len=8)
    state.history.extend([0.02] * 8)
    assert cost(state) == pytest.approx(0.16, abs=1e-15)


def test_cost_geometric_weights():
    # Newest last in history; weights 1, 0.5, 0.25 oldest.
    state = RoughnessState(forgetting=0.5, history_len=8)
    state.history.extend([1.0, 1.0, 1.0])
    assert cost(state) == 1.75


def test_cost_empty_history_raises():
    with pytest.raises(InsufficientDataError):
        cost(RoughnessState())


def test_history_caps_at_length():
    state = RoughnessState(history_len=8)
    for i in range(11):
        state.history.append(float(i))
    assert list(state.history) == [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]


def test_update_alpha_branches():
    l = 8
    assert update_alpha(0.02 * l, l) == 0.998
    assert update_alpha(0.0085 * l, l) == 0.996
    assert update_alpha(0.0075 * l, l) == 0.995
    assert update_alpha(0.0, l) == 0.992
    assert update_alpha(0.004 * l, l) == 0.992


def test_update_alpha_boundaries_belong_to_larger_alpha():
    l = 8
    assert update_alpha(0.007 * l, l) == 0.995
    assert update_alpha(0.008 * l, l) == 0.996
    assert update_alpha(0.01 * l, l) == 0.998


def test_update_alpha_monotone_in_cost():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b = sorted(rng.uniform(0.0, 0.15, 2))
        assert SCHEDULE.index(update_alpha(a, 8)) <= SCHEDULE.index(update_alpha(b, 8))


def test_alpha_never_leaves_schedule():
    rng = np.random.default_rng(3)
    state = RoughnessState()
    for _ in range(300):
        x = rng.normal(9.8, rng.uniform(0.0, 2.0), 32)
        state, level = classify_segment(state, dwt(x))
        assert state.alpha in SCHEDULE
        assert level == SCHEDULE.index(state.alpha)


def test_classify_constant_road_stays_smooth():
    state = RoughnessState()
    for _ in range(20):
        state, level = classify_segment(state, dwt(np.full(32, 9.8)))
        assert level == 0
        assert state.alpha == 0.992


def test_classify_normalizes_sigma_before_costing():
    state = RoughnessState()
    coeffs = _coeffs_with_finest(np.full(16, 9.8 * MAD_GAUSS))
    classify_segment(state, coeffs, sigma_normalization=9.8)
    assert state.history[-1] == pytest.approx(1.0, rel=1e-12)


def _segment(i: int) -> Segment:
    return Segment(index=i, t_start_ms=640 * i, t_end_ms=640 * i + 620, values=np.zeros(32))


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
