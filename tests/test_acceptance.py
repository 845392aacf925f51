"""End-to-end acceptance checks, one test per shipping criterion.

Each test pins the tolerances and time budgets the pipeline must meet on
synthetic reproductions of the field scenarios (rough road, six bumps at
two device gains, the stationary surge) plus the numeric property suites.
Run with ``pytest -v`` for a pass/fail line per criterion.
"""
from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np

from roadsense import (
    BumpSpec,
    RoughPatch,
    Scenario,
    SpeedPoint,
    dwt,
    estimate_sigma,
    filter_step,
    generate_trip,
    lipschitz_algorithm1,
    make_filter,
    update_alpha,
)
from roadsense.cli import main
from roadsense.oracles import oracle_algorithm1, oracle_dwt

from conftest import analyze_scenario, z_threshold_baseline

ALPHAS = (0.992, 0.995, 0.996, 0.998)
SEG_MS = 640  # 32 samples at 50 Hz


def test_criterion_01_filter_correctness():
    start = time.perf_counter()

    # Constant input is an exact floating-point fixed point, not merely close.
    state = make_filter(0.992)
    state, g = filter_step(state, 0.3, -0.2, 9.79)
    for _ in range(1000):
        state, g = filter_step(state, 0.3, -0.2, 9.79)
    assert g == (0.3, -0.2, 9.79)

    # Unit step from rest follows 1 - alpha^n to 1e-12 for every schedule alpha.
    for alpha in ALPHAS:
        state = make_filter(alpha)
        state, _ = filter_step(state, 0.0, 0.0, 0.0)
        for n in range(1, 301):
            state, g = filter_step(state, 0.0, 0.0, 1.0)
            assert abs(g[2] - (1.0 - alpha**n)) < 1e-12

    # Randomized containment: output never leaves the hull of inputs seen.
    rng = np.random.default_rng(100)
    for _ in range(10_000):
        alpha = float(rng.uniform(0.01, 0.99))
        state = make_filter(alpha)
        xs = rng.uniform(-20.0, 20.0, (20, 3))
        lo = np.full(3, np.inf)
        hi = np.full(3, -np.inf)
        for x in xs:
            lo = np.minimum(lo, x)
            hi = np.maximum(hi, x)
            state, g = filter_step(state, float(x[0]), float(x[1]), float(x[2]))
            assert np.all(lo <= np.asarray(g)) and np.all(np.asarray(g) <= hi)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 1 PASS (filter correctness, {elapsed:.2f}s)")


def test_criterion_02_dwt_correctness():
    start = time.perf_counter()

    # The transform's response to the 32 unit vectors is an orthonormal basis.
    analysis = np.column_stack(
        [np.concatenate([[c.approx], *c.details]) for c in map(dwt, np.eye(32))]
    )
    assert np.max(np.abs(analysis.T @ analysis - np.eye(32))) < 1e-9

    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(1_000):
        x = rng.normal(0.0, rng.uniform(0.1, 10.0), 32)
        coeffs = dwt(x)
        flat = np.concatenate([[coeffs.approx], *coeffs.details])
        energy_in = float(np.sum(x * x))
        energy_out = float(np.sum(flat * flat))
        assert abs(energy_in - energy_out) < 1e-9 * max(1.0, energy_in)
        ref = oracle_dwt(x)
        worst = max(worst, abs(coeffs.approx - ref.approx))
        for mine, theirs in zip(coeffs.details, ref.details):
            worst = max(worst, float(np.max(np.abs(mine - np.asarray(theirs)))))
    assert worst < 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 2 PASS (dwt correctness, worst oracle gap {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_mad_estimator():
    start = time.perf_counter()

    rng = np.random.default_rng(300)
    total = 0.0
    for _ in range(10_000):
        total += estimate_sigma(dwt(rng.normal(0.0, 1.0, 32))).sigma_hat
    mean = total / 10_000
    assert 0.9 <= mean <= 1.1

    assert estimate_sigma(dwt(np.full(32, 9.8))).sigma_hat == 0.0

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 3 PASS (mad estimator, MC mean {mean:.4f}, {elapsed:.2f}s)")


def test_criterion_04_adaptive_schedule():
    l = 8
    # One probe inside each branch, then the three boundary points exactly.
    assert update_alpha(0.001 * l, l) == 0.992
    assert update_alpha(0.0075 * l, l) == 0.995
    assert update_alpha(0.009 * l, l) == 0.996
    assert update_alpha(0.02 * l, l) == 0.998
    assert update_alpha(0.007 * l, l) == 0.995
    assert update_alpha(0.008 * l, l) == 0.996
    assert update_alpha(0.01 * l, l) == 0.998
    print("criterion 4 PASS (adaptive schedule branches and boundaries)")


def test_criterion_05_rough_road_scenario(config):
    start = time.perf_counter()
    scn = Scenario(
        name="rough-road",
        duration_s=120.0,
        noise_sigma_g=0.02,
        rough=(RoughPatch(20.0, 40.0, 8.0), RoughPatch(70.0, 90.0, 8.0)),
        speed_profile=(SpeedPoint(0.0, 5.0),),
        rng_seed=11,
    )
    report = analyze_scenario(scn, config)
    rough = [e for e in report.events if e.kind == "rough"]
    assert len(rough) == 2

    onset_budget_ms = 2 * config.roughness.history_len * SEG_MS
    onsets = []
    for ev, truth_ms in zip(rough, (20_000, 70_000)):
        onsets.append(ev.t_start_ms - truth_ms)
        assert abs(ev.t_start_ms - truth_ms) <= onset_budget_ms
        assert ev.intensity >= 1

    smooth = Scenario(
        name="smooth-road",
        duration_s=120.0,
        noise_sigma_g=0.001,
        speed_profile=(SpeedPoint(0.0, 5.0),),
        rng_seed=12,
    )
    smooth_report = analyze_scenario(smooth, config)
    assert [e for e in smooth_report.events if e.kind == "rough"] == []

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 5 PASS (rough road, onset deltas {onsets} ms, {elapsed:.2f}s)")


def test_criterion_06_lipschitz_equivalence():
    rng = np.random.default_rng(600)
    valid_count = 0
    for _ in range(1_000):
        x = rng.normal(9.8, rng.uniform(0.01, 2.0), 32)
        est = lipschitz_algorithm1(dwt(x))
        ref = oracle_algorithm1(x)
        assert est.valid == ref["valid"]
        if not est.valid:
            continue
        valid_count += 1
        assert abs(est.beta_hat - ref["beta_hat"]) < 1e-9
        assert abs(est.p1 - ref["p1"]) < 1e-9
        assert abs(est.p2 - ref["p2"]) < 1e-9
        assert est.loc == 2 * (ref["location"] - 1)
        assert abs(est.beta_hat - (7.0 / 17.0) * math.log2(est.p1 * est.p2)) < 1e-12
    assert valid_count > 500
    print(f"criterion 6 PASS (lipschitz equivalence on {valid_count} valid segments)")


def _bump_hits(events, truth_ms, tol_ms=2_000):
    hits = {}
    extras = 0
    for ev in events:
        matched = [t for t in truth_ms if abs(ev.t_start_ms - t) <= tol_ms]
        if matched:
            hits[matched[0]] = ev
        else:
            extras += 1
    return hits, extras


def test_criterion_07_bump_scenario_two_gains(config):
    start = time.perf_counter()
    truth_s = (20.0, 45.0, 70.0, 95.0, 120.0, 145.0)
    heights = (1.2, 1.5, 1.8, 1.4, 1.6, 2.0)
    base = Scenario(
        name="six-bumps",
        duration_s=170.0,
        bumps=tuple(BumpSpec(t, h, 6) for t, h in zip(truth_s, heights)),
        speed_profile=(SpeedPoint(0.0, 5.0),),
        rng_seed=21,
    )
    truth_ms = [round(t * 1000) for t in truth_s]

    found_at_gain = {}
    for gain in (1.0, 0.6):
        scn = replace(base, device_gain=gain)
        report = analyze_scenario(scn, config, trip_id=f"gain-{gain}")
        bumps = [e for e in report.events if e.kind == "bump"]
        hits, extras = _bump_hits(bumps, truth_ms)
        assert len(hits) >= 5, f"gain {gain}: only {len(hits)} of 6 bumps found"
        assert extras <= 1, f"gain {gain}: {extras} false positives"
        found_at_gain[gain] = hits

    # The fixed 16 m/s^2 threshold loses attenuated bumps the exponent keeps.
    dim_csv, _ = generate_trip(replace(base, device_gain=0.6))
    az = np.array(
        [float(ln.split(",")[4]) for ln in dim_csv.splitlines()[1:] if ln.startswith("A,")]
    )
    z_idx = z_threshold_baseline(az, 16.0)
    z_times = set((z_idx * 20).tolist())
    z_missed = [
        t for t in truth_ms if not any(abs(zt - t) <= 2_000 for zt in z_times)
    ]
    rescued = [t for t in z_missed if t in found_at_gain[0.6]]
    assert rescued, "z-threshold baseline missed nothing the detector caught"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        "criterion 7 PASS (bumps: "
        f"{len(found_at_gain[1.0])}/6 at gain 1.0, {len(found_at_gain[0.6])}/6 at gain 0.6, "
        f"{len(rescued)} rescued from z-baseline, {elapsed:.2f}s)"
    )


def test_criterion_08_speed_gate(config):
    surge = Scenario(
        name="surge",
        duration_s=20.0,
        bumps=(BumpSpec(4.72, 1.5, 6),),
        rng_seed=31,
    )
    parked = analyze_scenario(surge, config)
    assert [e for e in parked.events if e.kind == "bump"] == []

    moving = replace(surge, speed_profile=(SpeedPoint(0.0, 5.0),))
    report = analyze_scenario(moving, config)
    assert len([e for e in report.events if e.kind == "bump"]) == 1
    print("criterion 8 PASS (speed gate: 0 bumps parked, 1 at 5 m/s)")


def test_criterion_09_aggregation(config):
    from roadsense.aggregate import cluster_events, prune_isolated

    shared = (BumpSpec(20.0, 1.5, 6), BumpSpec(40.0, 1.8, 6))
    reports = []
    for i, seed in enumerate((1, 2, 3), start=1):
        bumps = shared if i < 3 else shared + (BumpSpec(60.0, 1.4, 6),)
        scn = Scenario(
            name=f"trip{i}",
            duration_s=80.0,
            bumps=bumps,
            speed_profile=(SpeedPoint(0.0, 5.0),),
            rng_seed=seed,
        )
        reports.append(analyze_scenario(scn, config, trip_id=f"trip{i}"))

    clusters = cluster_events(
        reports, config.aggregate.cluster_radius_m, config.gps.earth_radius_m
    )
    kept, dropped = prune_isolated(clusters, min_trips=2)
    assert len(kept) == 2
    assert all(c.supporting_trips == 3 for c in kept)
    assert len(dropped) == 1
    assert dropped[0].supporting_trips == 1

    identity_kept, identity_dropped = prune_isolated(clusters, min_trips=1)
    assert identity_kept == clusters and identity_dropped == []
    print("criterion 9 PASS (aggregation: 2 confirmed, 1 spurious pruned)")


def test_criterion_10_determinism_and_hour_trip(config, tmp_path):
    scn = Scenario(
        name="hour",
        duration_s=3600.0,
        noise_sigma_g=0.02,
        rough=(RoughPatch(600.0, 640.0, 8.0),),
        bumps=(BumpSpec(1200.0, 1.5, 6), BumpSpec(2400.0, 1.8, 6)),
        speed_profile=(SpeedPoint(0.0, 5.0),),
        rng_seed=41,
    )
    csv_text, _ = generate_trip(scn)
    trip = tmp_path / "hour.csv"
    trip.write_text(csv_text)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"

    start = time.perf_counter()
    assert main(["analyze", str(trip), "--out", str(out1)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0

    # Second run under tracing: byte-identical output, bounded working set
    # (the sample stream must never be materialized).
    tracemalloc.start()
    assert main(["analyze", str(trip), "--out", str(out2)]) == 0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert out1.read_bytes() == out2.read_bytes()
    assert peak < 16 * 1024 * 1024

    print(
        "criterion 10 PASS (hour trip "
        f"{elapsed:.2f}s, peak {peak / 1e6:.1f} MB, byte-identical reports)"
    )
