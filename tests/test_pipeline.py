from __future__ import annotations

import io
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from roadsense import BumpSpec, Scenario, SpeedPoint, generate_trip
from roadsense.geo import GpsFix, haversine_m
from roadsense.pipeline import analyze_trip_file, analyze_trip_stream
from roadsense.synth import load_scenario
from roadsense.trip_io import TripReader, write_report

from conftest import analyze_scenario


def test_flat_road_produces_nothing(config):
    scn = Scenario(name="flat", duration_s=100.0)
    report = analyze_scenario(scn, config)
    assert report.events == []
    # 5000 samples fill 156 windows of 32; the tail 8 never form one.
    assert report.stats.segments == 156
    assert report.stats.dropped_samples == 8
    assert report.stats.malformed_rows == 0
    assert report.stats.gps_gaps == 0
    assert report.trip_id == "flat"
    assert report.sample_rate_hz == 50.0


def test_single_bump_timed_and_located(config):
    # Sample 1004 sits at offset 12 of window 31, well inside it.
    scn = Scenario(
        name="one-bump",
        duration_s=60.0,
        bumps=(BumpSpec(t_s=20.08, height_g=1.5, width_samples=6),),
        speed_profile=(SpeedPoint(0.0, 5.0),),
    )
    report = analyze_scenario(scn, config)
    bumps = [e for e in report.events if e.kind == "bump"]
    assert len(bumps) == 1
    ev = bumps[0]
    assert 19_840 <= ev.t_start_ms <= 20_520
    assert ev.intensity < config.bump.beta_max
    assert ev.lat is not None
    travelled = haversine_m(scn.origin_lat, scn.origin_lon, ev.lat, ev.lon)
    assert abs(travelled - 5.0 * (ev.t_start_ms / 1000.0)) < 10.0


def _block(t0_ms: int, value: float, n: int = 96) -> list[tuple[str, tuple]]:
    return [("A", (t0_ms + 20 * i, 0.0, 0.0, value)) for i in range(n)]


def test_long_gap_reseeds_gravity_filter(config):
    # After a 10 s dropout the filter restarts from the next raw sample, so a
    # changed resting magnitude yields flat windows instead of a relaxation
    # tail. A 40 ms hiccup (two periods) must not reseed: the tail shows up.
    diag: list = []
    rows = _block(0, 9.8) + _block(12_000, 12.0)
    report = analyze_trip_stream(rows, config, diagnostics=diag.append)
    assert report.events == []
    assert all(d["sigma_hat"] == 0.0 for d in diag)

    diag_hiccup: list = []
    rows = _block(0, 9.8) + _block(1_940, 12.0)
    analyze_trip_stream(rows, config, diagnostics=diag_hiccup.append)
    assert any(d["sigma_hat"] > 0.0 for d in diag_hiccup)


def _expected_windows(times: list[int], gap_ms: float, window: int = 32):
    """(start, end) of every window when each gap longer than gap_ms restarts one."""
    runs, run = [], []
    for t in times:
        if run and t - run[-1] > gap_ms:
            runs.append(run)
            run = []
        run.append(t)
    runs.append(run)
    return [
        (r[k], r[k + window - 1]) for r in runs for k in range(0, len(r) - window + 1, window)
    ]


def _check_gap_windowing(rows, config):
    times = [v[0] for kind, v in rows if kind == "A"]
    diag: list = []
    report = analyze_trip_stream(rows, config, diagnostics=diag.append)
    spans = [(d["t_start_ms"], d["t_end_ms"]) for d in diag]
    gap_ms = config.signal.reseed_gap_periods * config.signal.period_ms
    gaps = [(a, b) for a, b in zip(times, times[1:]) if b - a > gap_ms]
    assert not any(start <= a and b <= end for start, end in spans for a, b in gaps)
    assert spans == _expected_windows(times, gap_ms)
    assert report.stats.segments * 32 + report.stats.dropped_samples == len(times)
    return spans


def test_sensor_gap_restarts_the_window(config):
    # Cut one second of samples out of six_bumps: no window may bridge it.
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "six_bumps.yaml"
    csv_text, _ = generate_trip(load_scenario(scenario))
    rows = [
        (kind, v) for kind, v in TripReader(io.StringIO(csv_text))
        if not (kind == "A" and 30_000 <= v[0] < 31_000)
    ]
    spans = _check_gap_windowing(rows, config)
    assert (29_440, 31_060) not in spans
    assert any(start == 31_000 for start, _ in spans)


# (samples in the run, step in ms from the previous run's last sample); steps
# of 60 ms or less are within the 3-period reseed limit, longer ones are gaps.
_RUNS = st.lists(
    st.tuples(st.integers(0, 100), st.sampled_from([0, 20, 40, 60, 61, 80, 1_000, 12_000])),
    max_size=8,
)


@given(runs=_RUNS)
def test_no_window_spans_a_sensor_gap(config, runs):
    rows, t = [], 0
    for count, step in runs:
        for i in range(count):
            t += step if i == 0 else 20
            rows.append(("A", (t, 0.0, 0.1 * (i % 3), 9.8)))
    _check_gap_windowing(rows, config)


def test_bump_time_is_its_own_sample_timestamp(config):
    # From 9700 ms on every sample arrives 40 ms late, a hiccup below the
    # reseed gap, so the window holding the bump starts on time but the bump
    # sample itself is late. The bump must move with its sample.
    scn = Scenario(
        name="late",
        duration_s=20.0,
        bumps=(BumpSpec(t_s=10.0, height_g=1.5, width_samples=6),),
        speed_profile=(SpeedPoint(0.0, 5.0),),
    )
    csv_text, _ = generate_trip(scn)
    rows = list(TripReader(io.StringIO(csv_text)))
    shifted = [
        (kind, (v[0] + 40, *v[1:]) if kind == "A" and v[0] >= 9_700 else v)
        for kind, v in rows
    ]
    [on_time] = [e.t_start_ms for e in analyze_trip_stream(rows, config).events]
    [late] = [e.t_start_ms for e in analyze_trip_stream(shifted, config).events]
    assert on_time == 10_040
    assert late == on_time + 40
    assert late in {v[0] for kind, v in shifted if kind == "A"}


def test_parse_stats_carry_into_report(config, tmp_path):
    rows = ["A,%d,0,0,9.8" % (20 * i) for i in range(300)]
    rows[7] = "A,nan-ish,0,0,9.8"
    rows[8] = "garbage"
    path = tmp_path / "trip.csv"
    path.write_text("type,t_ms,a,b,c\n" + "\n".join(rows) + "\n")
    report = analyze_trip_file(str(path), config, trip_id="t")
    assert report.stats.malformed_rows == 2
    assert report.stats.segments == 9


def test_diagnostics_one_entry_per_segment(config):
    diag: list = []
    csv_text, _ = generate_trip(Scenario(name="d", duration_s=30.0, noise_sigma_g=0.01))
    analyze_trip_stream(TripReader(io.StringIO(csv_text)), config, diagnostics=diag.append)
    assert len(diag) == 46
    assert [d["segment"] for d in diag] == list(range(46))
    expected = {
        "segment", "t_start_ms", "t_end_ms", "sigma_hat", "j_cost", "alpha",
        "level", "valid", "beta_hat", "p1", "p2", "loc", "peaks1", "peaks2", "peaks3",
    }
    assert set(diag[0]) == expected


def test_analysis_is_deterministic(config):
    scn = Scenario(
        name="det",
        duration_s=45.0,
        noise_sigma_g=0.02,
        bumps=(BumpSpec(10.08, 1.6, 6),),
        speed_profile=(SpeedPoint(0.0, 6.0),),
        rng_seed=5,
    )
    first = write_report(analyze_scenario(scn, config))
    second = write_report(analyze_scenario(scn, config))
    assert first == second


def test_bump_inside_gps_gap_stays_unlocated(config):
    samples = [(20 * i, 0.0, 0.0, 9.8) for i in range(2000)]
    pulse = (0.25, 0.75, 1.0, 0.75, 0.25, 0.05)
    for k, frac in enumerate(pulse):
        t_ms = samples[1004 + k][0]
        samples[1004 + k] = (t_ms, 0.0, 0.0, 9.8 + 14.7 * frac)
    # Two fixes a minute apart: usable mean speed, but no idea where within.
    rows = [("A", s) for s in samples]
    rows.insert(1, ("G", GpsFix(0, 45.0, 7.0)))
    rows.append(("G", GpsFix(60_000, 45.0027, 7.0)))
    report = analyze_trip_stream(rows, config)
    bumps = [e for e in report.events if e.kind == "bump"]
    assert len(bumps) == 1
    assert bumps[0].lat is None and bumps[0].lon is None
    assert report.stats.gps_gaps == 1
