from __future__ import annotations

import numpy as np
import pytest

from roadsense.gravity_filter import (
    filter_step,
    gravity_magnitude,
    make_filter,
    reset_seed,
    set_alpha,
)

SCHEDULE = (0.992, 0.995, 0.996, 0.998)


def _run_constant(state, sample, n):
    outputs = []
    for _ in range(n):
        state, g = filter_step(state, *sample)
        outputs.append(g)
    return state, outputs


def test_seeds_from_first_sample():
    state, g = filter_step(make_filter(0.992), 1.5, -2.5, 9.1)
    assert g == (1.5, -2.5, 9.1)
    assert state.seeded


def test_constant_input_is_exact_fixed_point():
    sample = (3.3, -1.7, 9.1)
    _, outputs = _run_constant(make_filter(0.992), sample, 500)
    assert all(g == sample for g in outputs)


def test_unit_step_matches_closed_form():
    # Seed at 0, then drive with 1: after n steps the output is 1 - alpha^n.
    for alpha in SCHEDULE:
        state, _ = filter_step(make_filter(alpha), 0.0, 0.0, 0.0)
        for n in range(1, 201):
            state, g = filter_step(state, 1.0, 1.0, 1.0)
            assert abs(g[0] - (1.0 - alpha**n)) < 1e-12


def test_unit_step_checkpoint_value():
    state, _ = filter_step(make_filter(0.992), 0.0, 0.0, 0.0)
    for _ in range(86):
        state, g = filter_step(state, 1.0, 1.0, 1.0)
    assert round(g[0], 4) == 0.4988


def test_tiny_alpha_tracks_input():
    state, _ = filter_step(make_filter(1e-12), 0.0, 0.0, 0.0)
    _, g = filter_step(state, 7.0, -3.0, 2.0)
    assert g[0] == pytest.approx(7.0, abs=1e-9)


def test_set_alpha_preserves_memory():
    state, _ = _run_constant(make_filter(0.992), (0.0, 0.0, 9.8), 10)
    state, g = filter_step(state, 1.0, 2.0, 3.0)
    switched = set_alpha(state, 0.998)
    assert (switched.gx, switched.gy, switched.gz) == (state.gx, state.gy, state.gz)
    # Next step blends at the new rate.
    _, g = filter_step(switched, 1.0, 2.0, 3.0)
    assert g[0] == pytest.approx(state.gx + 0.002 * (1.0 - state.gx), abs=1e-15)


def test_alpha_switch_constant_trajectory_unchanged():
    sample = (0.3, 0.4, 9.79)
    state, _ = _run_constant(make_filter(0.992), sample, 50)
    state = set_alpha(state, 0.998)
    state, _ = _run_constant(state, sample, 50)
    state = set_alpha(state, 0.992)
    _, outputs = _run_constant(state, sample, 50)
    assert all(g == sample for g in outputs)


def test_bounded_input_containment():
    rng = np.random.default_rng(7)
    for _ in range(300):
        alpha = rng.uniform(0.01, 0.99)
        stream = rng.uniform(-30.0, 30.0, (40, 3))
        state = make_filter(alpha)
        lo, hi = stream[0].copy(), stream[0].copy()
        for sample in stream:
            lo, hi = np.minimum(lo, sample), np.maximum(hi, sample)
            state, g = filter_step(state, *sample)
            assert all(lo[i] <= g[i] <= hi[i] for i in range(3))


def test_reset_seed_reseeds_on_next_sample():
    state, _ = _run_constant(make_filter(0.992), (0.0, 0.0, 9.8), 20)
    state = reset_seed(state)
    _, g = filter_step(state, 5.0, 5.0, 5.0)
    assert g == (5.0, 5.0, 5.0)


def test_gravity_magnitude_axis_cases():
    assert gravity_magnitude((0.0, 0.0, 9.8)) == 9.8
    assert gravity_magnitude((9.8, 0.0, 0.0)) == 9.8


def test_stationary_trace_converges_near_gravity():
    rng = np.random.default_rng(11)
    state = make_filter(0.992)
    for _ in range(3000):
        noise = rng.normal(0.0, 0.05, 3)
        state, g = filter_step(state, noise[0], noise[1], 9.8 + noise[2])
    assert gravity_magnitude(g) == pytest.approx(9.8, abs=0.05)
