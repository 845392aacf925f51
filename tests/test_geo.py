from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roadsense.geo import (
    GpsFix,
    gap_count,
    haversine_m,
    locate_event,
    speed_at,
)
from roadsense.trip_io import TRIP_HEADER, TripReader

EARTH_R = 6_371_000.0
# Longer than any fix gap in these tests, so a lookup is never left unlocated.
NO_GAP_MS = 10**9


def _fix(t_ms: int, lat: float, lon: float) -> GpsFix:
    return GpsFix(t_ms=t_ms, lat=lat, lon=lon)


def test_haversine_zero_distance():
    assert haversine_m(51.5, -0.1, 51.5, -0.1, EARTH_R) == 0.0


def test_haversine_milli_degree_latitude():
    # One thousandth of a degree of latitude is about 111.19 m on this sphere.
    d = haversine_m(45.0, 7.0, 45.001, 7.0, EARTH_R)
    assert d == pytest.approx(111.19, abs=0.01)


def test_haversine_antipodal():
    assert haversine_m(0.0, 0.0, 0.0, 180.0, EARTH_R) == pytest.approx(
        math.pi * EARTH_R, rel=1e-12
    )


def test_haversine_symmetry():
    a = haversine_m(48.1, 11.5, 48.2, 11.7, EARTH_R)
    b = haversine_m(48.2, 11.7, 48.1, 11.5, EARTH_R)
    assert a == pytest.approx(b, rel=1e-12)


def test_fix_range_validation():
    # The trip reader is the one range check; a GpsFix is a plain record.
    fixes = ["G,0,91.0,0.0,", "G,1000,0.0,181.0,", "G,2000,nan,0.0,", "G,3000,45.0,7.0,"]
    samples = ["A,%d,0,0,9.8" % (20 * i) for i in range(400)]
    reader = TripReader([TRIP_HEADER, *fixes, *samples])
    assert [v for k, v in reader if k == "G"] == [_fix(3000, 45.0, 7.0)]
    assert reader.stats.malformed_rows == 3


def test_interpolate_hits_fix_exactly():
    fixes = [_fix(0, 10.0, 20.0), _fix(10_000, 10.001, 20.0)]
    assert locate_event(fixes, 0, NO_GAP_MS) == (10.0, 20.0)
    assert locate_event(fixes, 10_000, NO_GAP_MS) == (10.001, 20.0)


def test_interpolate_midpoint():
    fixes = [_fix(0, 0.0, 0.0), _fix(10_000, 0.001, 0.0)]
    lat, lon = locate_event(fixes, 5_000, NO_GAP_MS)
    assert lat == pytest.approx(0.0005, abs=1e-12)
    assert lon == 0.0


def test_interpolate_clamps_outside_span():
    fixes = [_fix(1_000, 1.0, 2.0), _fix(2_000, 1.1, 2.1)]
    assert locate_event(fixes, 0, NO_GAP_MS) == (1.0, 2.0)
    assert locate_event(fixes, 9_999, NO_GAP_MS) == (1.1, 2.1)


def test_interpolate_single_fix():
    fixes = [_fix(500, 3.0, 4.0)]
    assert locate_event(fixes, 0, NO_GAP_MS) == (3.0, 4.0)
    assert locate_event(fixes, 99_999, NO_GAP_MS) == (3.0, 4.0)


def test_interpolate_continuity():
    fixes = [_fix(0, 50.0, 8.0), _fix(4_000, 50.002, 8.001), _fix(9_000, 50.001, 8.004)]
    prev = locate_event(fixes, 0, NO_GAP_MS)
    for t in range(100, 9_100, 100):
        cur = locate_event(fixes, t, NO_GAP_MS)
        assert abs(cur[0] - prev[0]) < 1e-4 and abs(cur[1] - prev[1]) < 1e-4
        prev = cur


def test_speed_between_known_fixes():
    # 111.19 m covered in 10 s reads back as about 11.12 m/s.
    fixes = [_fix(0, 45.0, 7.0), _fix(10_000, 45.001, 7.0)]
    assert speed_at(fixes, 5_000) == pytest.approx(11.12, abs=0.01)


def test_speed_stationary():
    fixes = [_fix(0, 45.0, 7.0), _fix(10_000, 45.0, 7.0)]
    assert speed_at(fixes, 5_000) == 0.0


def test_speed_needs_two_fixes():
    assert speed_at([_fix(0, 45.0, 7.0)], 0) is None
    assert speed_at([], 0) is None


def test_speed_duplicate_timestamps():
    fixes = [_fix(1_000, 45.0, 7.0), _fix(1_000, 45.001, 7.0)]
    assert speed_at(fixes, 1_000) == 0.0


def test_speed_never_negative():
    fixes = [_fix(0, 45.0, 7.0), _fix(5_000, 44.999, 6.999), _fix(9_000, 45.0, 7.0)]
    for t in (0, 2_500, 6_000, 9_000):
        assert speed_at(fixes, t) >= 0.0


def test_gap_count():
    fixes = [_fix(0, 0.0, 0.0), _fix(1_000, 0.0, 0.0), _fix(9_000, 0.0, 0.0), _fix(30_000, 0.0, 0.0)]
    assert gap_count(fixes, 5_000) == 2
    assert gap_count(fixes, 25_000) == 0
    assert gap_count([], 5_000) == 0


def test_locate_event_inside_gap_returns_none():
    fixes = [_fix(0, 10.0, 20.0), _fix(60_000, 10.01, 20.0)]
    assert locate_event(fixes, 30_000, 5_000) is None


def test_locate_event_at_gap_edges():
    fixes = [_fix(0, 10.0, 20.0), _fix(60_000, 10.01, 20.0)]
    assert locate_event(fixes, 0, 5_000) == (10.0, 20.0)
    assert locate_event(fixes, 60_000, 5_000) == (10.01, 20.0)


def test_locate_event_clamps_outside_track():
    fixes = [_fix(10_000, 10.0, 20.0), _fix(12_000, 10.001, 20.0)]
    assert locate_event(fixes, 0, 5_000) == (10.0, 20.0)
    assert locate_event(fixes, 50_000, 5_000) == (10.001, 20.0)


def test_locate_event_without_fixes():
    assert locate_event([], 1_000, 5_000) is None


def test_locate_event_interpolates_dense_track():
    fixes = [_fix(0, 0.0, 0.0), _fix(2_000, 0.001, 0.0)]
    loc = locate_event(fixes, 1_000, 5_000)
    assert loc is not None
    assert loc[0] == pytest.approx(0.0005, abs=1e-12)


# -- Property: every lookup brackets like a linear scan over the track ---------


def _scan_bracket(fixes: list[GpsFix], t_ms: int) -> tuple[GpsFix, GpsFix]:
    hi = next((i for i, f in enumerate(fixes) if f.t_ms > t_ms), len(fixes))
    hi = min(max(hi, 1), len(fixes) - 1)
    return fixes[hi - 1], fixes[hi]


def _scan_position(fixes: list[GpsFix], t_ms: int) -> tuple[float, float]:
    first, last = fixes[0], fixes[-1]
    if len(fixes) == 1 or t_ms <= first.t_ms:
        return first.lat, first.lon
    if t_ms >= last.t_ms:
        return last.lat, last.lon
    lo, hi = _scan_bracket(fixes, t_ms)
    if hi.t_ms == lo.t_ms:
        return lo.lat, lo.lon
    w = (t_ms - lo.t_ms) / (hi.t_ms - lo.t_ms)
    return lo.lat + w * (hi.lat - lo.lat), lo.lon + w * (hi.lon - lo.lon)


def _scan_speed(fixes: list[GpsFix], t_ms: int) -> float:
    lo, hi = _scan_bracket(fixes, t_ms)
    if hi.t_ms <= lo.t_ms:
        return 0.0
    return haversine_m(lo.lat, lo.lon, hi.lat, hi.lon, EARTH_R) / ((hi.t_ms - lo.t_ms) / 1000.0)


def _scan_locate(fixes: list[GpsFix], t_ms: int, max_gap_ms: int) -> tuple[float, float] | None:
    if fixes[0].t_ms < t_ms < fixes[-1].t_ms:
        lo, hi = _scan_bracket(fixes, t_ms)
        if hi.t_ms - lo.t_ms > max_gap_ms and lo.t_ms < t_ms < hi.t_ms:
            return None
    return _scan_position(fixes, t_ms)


@st.composite
def _tracks(draw) -> list[GpsFix]:
    # Zero steps repeat a timestamp; the rest range from dense to long gaps.
    steps = draw(st.lists(st.one_of(st.just(0), st.integers(1, 30_000)), max_size=25))
    t = draw(st.integers(0, 10_000))
    fixes = []
    for step in [0, *steps]:
        t += step
        lat = draw(st.floats(-90.0, 90.0))
        lon = draw(st.floats(-180.0, 180.0))
        fixes.append(_fix(t, lat, lon))
    return fixes


@given(track=_tracks(), data=st.data())
def test_lookups_match_linear_scan_reference(track, data):
    times = [f.t_ms for f in track]
    on_or_between = st.one_of(
        st.sampled_from(times), st.integers(times[0] - 20_000, times[-1] + 20_000)
    )
    queries = data.draw(st.lists(on_or_between, min_size=1, max_size=10))
    max_gap_ms = data.draw(st.integers(1, 20_000))
    for t in queries:
        assert locate_event(track, t, NO_GAP_MS) == _scan_position(track, t)
        assert locate_event(track, t, max_gap_ms) == _scan_locate(track, t, max_gap_ms)
        if len(track) > 1:
            assert speed_at(track, t) == _scan_speed(track, t)
