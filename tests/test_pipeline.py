from __future__ import annotations

import io

from roadsense import BumpSpec, Scenario, SpeedPoint, generate_trip
from roadsense.geo import GpsFix, haversine_m
from roadsense.pipeline import analyze_trip_file, analyze_trip_stream
from roadsense.signal_core import AccelSample
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


def _block(t0_ms: int, value: float, n: int = 96) -> list[tuple[str, AccelSample]]:
    return [("A", AccelSample(t0_ms + 20 * i, 0.0, 0.0, value)) for i in range(n)]


def test_long_gap_reseeds_gravity_filter(config):
    # After a 10 s dropout the filter restarts from the next raw sample, so a
    # changed resting magnitude yields flat windows instead of a relaxation
    # tail. A 40 ms hiccup (two periods) must not reseed: the tail shows up.
    diag: list = []
    rows = _block(0, 9.8) + _block(12_000, 12.0)
    report = analyze_trip_stream(rows, config, diagnostics=diag)
    assert report.events == []
    assert all(d["sigma_hat"] == 0.0 for d in diag)

    diag_hiccup: list = []
    analyze_trip_stream(_block(0, 9.8) + _block(1_940, 12.0), config, diagnostics=diag_hiccup)
    assert any(d["sigma_hat"] > 0.0 for d in diag_hiccup)


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
    analyze_trip_stream(TripReader(io.StringIO(csv_text)), config, diagnostics=diag)
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
    samples = [AccelSample(20 * i, 0.0, 0.0, 9.8) for i in range(2000)]
    pulse = (0.25, 0.75, 1.0, 0.75, 0.25, 0.05)
    for k, frac in enumerate(pulse):
        s = samples[1004 + k]
        samples[1004 + k] = AccelSample(s.t_ms, 0.0, 0.0, 9.8 + 14.7 * frac)
    # Two fixes a minute apart: usable mean speed, but no idea where within.
    rows = [("A", s) for s in samples]
    rows.insert(1, ("G", GpsFix(0, 45.0, 7.0, 5.0)))
    rows.append(("G", GpsFix(60_000, 45.0027, 7.0, 5.0)))
    report = analyze_trip_stream(rows, config)
    bumps = [e for e in report.events if e.kind == "bump"]
    assert len(bumps) == 1
    assert bumps[0].lat is None and bumps[0].lon is None
    assert report.stats.gps_gaps == 1
