from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from roadsense.bump import (
    LipschitzEstimate,
    detect_bump,
    lipschitz_algorithm1,
    lipschitz_diagnostics,
    lipschitz_lsq,
    merge_events,
)
from roadsense.config import BumpConfig
from roadsense.errors import DegenerateFitError, DomainError
from roadsense.events import RoadEvent
from roadsense.gravity_filter import filter_step, gravity_magnitude, make_filter
from roadsense.oracles import oracle_algorithm1
from roadsense.wavelet import WaveletCoeffs, dwt

from conftest import z_threshold_baseline

CFG = BumpConfig(
    beta_max=0.8,
    min_speed_mps=1.5,
    allow_unknown_speed=True,
    merge_window_ms=1000,
    peak_plateau_policy="strict",
)


def _bump_segment(height_g: float = 1.5, offset: int = 12, width: int = 6) -> np.ndarray:
    x = np.full(32, 9.8)
    k = np.arange(1, width + 1)
    pulse = np.sin(np.pi * k / (width + 1)) ** 2
    x[offset : offset + width] += height_g * 9.8 * pulse / pulse.max()
    return x


def test_lsq_recovers_half_slope():
    a, beta = lipschitz_lsq([(j, j**0.5) for j in (1, 2, 4)])
    assert beta == pytest.approx(0.5, abs=1e-9)
    assert a == pytest.approx(1.0, abs=1e-9)


def test_lsq_flat_fit():
    a, beta = lipschitz_lsq([(1, 0.7), (2, 0.7), (4, 0.7)])
    assert beta == pytest.approx(0.0, abs=1e-12)
    assert a == pytest.approx(0.7, abs=1e-12)


def test_lsq_random_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(100):
        true_a = float(np.exp(rng.uniform(-2, 2)))
        true_beta = float(rng.uniform(-2, 2))
        data = [(j, true_a * j**true_beta) for j in (1, 2, 4, 8)]
        a, beta = lipschitz_lsq(data)
        assert beta == pytest.approx(true_beta, abs=1e-9)
        assert a == pytest.approx(true_a, rel=1e-9)


def test_lsq_rejects_non_positive_modulus():
    with pytest.raises(DomainError):
        lipschitz_lsq([(1, 0.0), (2, 1.0)])


def test_lsq_rejects_single_scale():
    with pytest.raises(DegenerateFitError):
        lipschitz_lsq([(2, 1.0), (2, 2.0)])


def test_constant_segment_invalid():
    est = lipschitz_algorithm1(dwt(np.full(32, 9.8)))
    assert not est.valid
    assert est.loc == -1


def test_monotone_decay_segment_invalid():
    # The filter's exponential relaxation after a jolt has no interior peaks.
    x = 9.8 + 0.4 * 0.992 ** np.arange(32)
    assert not lipschitz_algorithm1(dwt(x)).valid


def test_impulse_matches_oracle():
    x = np.full(32, 9.8)
    x[16] += 3.0
    est = lipschitz_algorithm1(dwt(x))
    orc = oracle_algorithm1(x)
    assert est.valid and orc["valid"]
    assert est.beta_hat == pytest.approx(orc["beta_hat"], abs=1e-12)
    assert est.p1 == pytest.approx(orc["p1"], abs=1e-12)
    assert est.p2 == pytest.approx(orc["p2"], abs=1e-12)
    assert est.loc == 2 * (orc["location"] - 1)


def test_random_segments_match_oracle():
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(200):
        x = rng.normal(9.8, rng.uniform(0.01, 2.0), 32)
        est = lipschitz_algorithm1(dwt(x))
        orc = oracle_algorithm1(x)
        assert est.valid == orc["valid"]
        if est.valid:
            checked += 1
            assert est.beta_hat == pytest.approx(orc["beta_hat"], abs=1e-9)
            assert est.p1 == pytest.approx(orc["p1"], abs=1e-9)
            assert est.p2 == pytest.approx(orc["p2"], abs=1e-9)
    assert checked > 150


def test_exponent_identity():
    # The two-term matrix row collapses to (7/17) * log2(P1 * P2).
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.normal(9.8, 0.5, 32)
        est = lipschitz_algorithm1(dwt(x))
        if est.valid:
            assert est.beta_hat == pytest.approx(
                (7.0 / 17.0) * math.log2(est.p1 * est.p2), abs=1e-12
            )


def test_gain_shifts_exponent_algebraically():
    x = _bump_segment()
    base = lipschitz_algorithm1(dwt(x))
    for c in (0.5, 0.75, 1.5, 2.0):
        scaled = lipschitz_algorithm1(dwt(9.8 + c * (x - 9.8)))
        assert scaled.loc == base.loc
        assert scaled.p1 == pytest.approx(c * base.p1, rel=1e-9)
        expected = base.beta_hat + (14.0 / 17.0) * math.log2(c)
        assert scaled.beta_hat == pytest.approx(expected, abs=1e-9)


def _filtered_window(height_g: float, offset: int, gain: float) -> np.ndarray:
    # What the pipeline actually scores: the smoothed magnitude of a raw
    # pulse, after the gravity filter has settled on level road.
    raw = np.full(96, 9.8)
    k = np.arange(1, 7)
    raw[64 + offset : 64 + offset + 6] += height_g * 9.8 * np.sin(np.pi * k / 7.0) ** 2
    raw *= gain
    state = make_filter(0.992)
    out = []
    for v in raw:
        state, g = filter_step(state, 0.0, 0.0, float(v))
        out.append(gravity_magnitude(g))
    return np.asarray(out[64:])


def test_detection_survives_gain_attenuation():
    # A weaker device gain shifts the exponent by (14/17)*log2(gain), far
    # from the ceiling for real bump shapes, so the verdict holds; the fixed
    # z-threshold baseline loses these same pulses (see the scaled case in
    # test_z_baseline_misses_attenuated_bump).
    for height in (1.2, 1.5, 2.0):
        for offset in (8, 12, 16, 20):
            for gain in (0.6, 1.0):
                est = lipschitz_algorithm1(dwt(_filtered_window(height, offset, gain)))
                assert est.valid
                assert est.beta_hat < CFG.beta_max


def test_scale2_tie_resolves_to_earlier_peak():
    d2 = np.array([0.1, 0.2, 5.0, 0.2, 7.0, 0.2, 0.1, 0.1])
    d1 = np.zeros(16)
    d1[7] = 2.0
    coeffs = WaveletCoeffs(
        approx=50.0, details=(d1, d2, np.zeros(4), np.zeros(2), np.zeros(1))
    )
    est = lipschitz_algorithm1(coeffs)
    # Both scale-2 peaks sit exactly 0.125 from the finest peak; the earlier
    # one (value 5, not 7) must win.
    assert est.p2 == pytest.approx(5.0, abs=1e-9)
    assert est.beta_hat == pytest.approx((7.0 / 17.0) * math.log2(10.0), abs=1e-9)


def test_diagnostics_exposes_unused_scale3():
    x = _bump_segment()
    diag = lipschitz_diagnostics(dwt(x))
    orc = oracle_algorithm1(x)
    assert [loc for loc, _ in diag["peaks3"]] == [loc - 1 for loc in orc["locs3"]]
    assert diag["estimate"].valid


def _valid_est(beta: float) -> LipschitzEstimate:
    return LipschitzEstimate(beta_hat=beta, p1=1.0, p2=1.0, loc=10, valid=True)


def test_detect_bump_gates():
    assert detect_bump(_valid_est(-1.0), 5.0, 1000, CFG) is not None
    assert detect_bump(replace(_valid_est(-1.0), valid=False), 5.0, 1000, CFG) is None
    assert detect_bump(_valid_est(0.9), 5.0, 1000, CFG) is None
    assert detect_bump(_valid_est(-1.0), 0.5, 1000, CFG) is None
    assert detect_bump(_valid_est(-1.0), None, 1000, CFG) is not None
    strict = replace(CFG, allow_unknown_speed=False)
    assert detect_bump(_valid_est(-1.0), None, 1000, strict) is None


def test_detect_bump_event_fields():
    ev = detect_bump(_valid_est(-2.25), 5.0, 7040, CFG)
    assert ev.kind == "bump"
    assert (ev.t_start_ms, ev.t_end_ms) == (7040, 7040)
    assert ev.intensity == -2.25


def test_detect_bump_monotone_in_gates():
    est = _valid_est(-0.5)
    speeds = [0.0, 1.0, 2.0, 5.0]
    fired = [detect_bump(est, s, 0, replace(CFG, min_speed_mps=m)) is not None
             for m in (0.5, 1.5, 3.0) for s in speeds]
    by_gate = [fired[i : i + len(speeds)] for i in range(0, len(fired), len(speeds))]
    for tight, loose in zip(by_gate[1:], by_gate):
        assert all(not t or l for t, l in zip(tight, loose))
    for bmax in (-1.0, -0.4, 0.0, 0.8):
        fires = detect_bump(est, 5.0, 0, replace(CFG, beta_max=bmax)) is not None
        assert fires == (est.beta_hat < bmax)


def _candidate(t_ms: int, beta: float, lat: float | None = None) -> RoadEvent:
    return RoadEvent(
        kind="bump", t_start_ms=t_ms, t_end_ms=t_ms, intensity=beta, lat=lat, lon=lat
    )


def test_merge_chains_close_candidates():
    evs = [_candidate(1000, -1.0, 10.0), _candidate(1600, -2.5, 11.0), _candidate(2100, -1.5, 12.0)]
    merged = merge_events(evs, 1000)
    assert len(merged) == 1
    assert merged[0].intensity == -2.5
    assert merged[0].lat == 11.0
    assert (merged[0].t_start_ms, merged[0].t_end_ms) == (1000, 2100)


def test_merge_respects_window():
    merged = merge_events([_candidate(0, -1.0), _candidate(5000, -1.0)], 1000)
    assert len(merged) == 2


def test_merge_does_not_mutate_input():
    evs = [_candidate(1000, -1.0), _candidate(1500, -3.0)]
    merge_events(evs, 1000)
    assert evs[0].intensity == -1.0
    assert evs[0].t_end_ms == 1000


def test_merge_empty():
    assert merge_events([], 1000) == []


def test_z_baseline_flags():
    z = np.full(100, 9.8)
    assert z_threshold_baseline(z, 16.0).size == 0
    z[40] = 25.0
    assert list(z_threshold_baseline(z, 16.0)) == [40]


def test_z_baseline_misses_attenuated_bump():
    z = 9.8 + 9.8 * 1.4 * np.array([0.3, 0.8, 1.0, 0.8, 0.3])
    assert z_threshold_baseline(z, 16.0).size > 0
    assert z_threshold_baseline(0.6 * z, 16.0).size == 0
