from __future__ import annotations

import json
import math
import random

from hypothesis import given
from hypothesis import strategies as st
from oracles import oracle_cluster_events

from roadsense import aggregate
from roadsense.aggregate import cluster_events, prune_isolated, write_map
from roadsense.events import RoadEvent, TripReport
from roadsense.geo import EARTH_RADIUS_M, haversine_m


def _bump(trip_id: str, lat: float, lon: float, t_ms: int = 0, beta: float = -2.0) -> RoadEvent:
    return RoadEvent(
        kind="bump", t_start_ms=t_ms, t_end_ms=t_ms, intensity=beta,
        trip_id=trip_id, lat=lat, lon=lon,
    )


def _report(trip_id: str, events: list[RoadEvent]) -> TripReport:
    return TripReport(trip_id=trip_id, device_id="d", sample_rate_hz=50.0, events=events)


# About 5 m of latitude at the default earth radius.
LAT_5M = 5.0 / 111_194.93


def test_nearby_events_from_two_trips_join():
    reports = [
        _report("t1", [_bump("t1", 48.0, 11.0)]),
        _report("t2", [_bump("t2", 48.0 + LAT_5M, 11.0)]),
    ]
    clusters = cluster_events(reports, radius_m=15.0)
    assert len(clusters) == 1
    assert clusters[0].supporting_trips == 2
    assert clusters[0].lat == (48.0 + 48.0 + LAT_5M) / 2


def test_events_either_side_of_the_meridian_join():
    reports = [
        _report("t1", [_bump("t1", 0.0, 179.99999)]),
        _report("t2", [_bump("t2", 0.0, -179.99999)]),
    ]
    (cl,) = cluster_events(reports, radius_m=15.0)
    assert cl.supporting_trips == 2


def test_centroid_sums_start_from_zero():
    # As with sum(), 0 + -0.0 is 0.0: two members at lon -0.0 average to 0.0.
    reports = [_report(t, [_bump(t, 48.0, -0.0)]) for t in ("t1", "t2")]
    (cl,) = cluster_events(reports, radius_m=15.0)
    assert math.copysign(1.0, cl.lon) == 1.0


def test_subnormal_radius_still_clusters():
    # In radians this radius is subnormal: without a floor on the cell size, lat / height overflows.
    reports = [_report(t, [_bump(t, 48.0, 11.0)]) for t in ("t1", "t2")]
    (cl,) = cluster_events(reports, radius_m=1e-310)
    assert cl.supporting_trips == 2


def test_distant_events_stay_apart():
    reports = [
        _report("t1", [_bump("t1", 48.0, 11.0)]),
        _report("t2", [_bump("t2", 48.0 + 100 * LAT_5M, 11.0)]),
    ]
    assert len(cluster_events(reports, radius_m=15.0)) == 2


def test_kinds_never_share_a_cluster():
    rough = RoadEvent(kind="rough", t_start_ms=0, t_end_ms=1000, intensity=2,
                      trip_id="t1", lat=48.0, lon=11.0)
    reports = [_report("t1", [rough]), _report("t2", [_bump("t2", 48.0, 11.0)])]
    clusters = cluster_events(reports, radius_m=15.0)
    assert sorted(c.kind for c in clusters) == ["bump", "rough"]


def test_every_located_event_lands_in_one_cluster():
    import numpy as np

    rng = np.random.default_rng(3)
    reports = []
    n_located = 0
    for t in range(6):
        events = []
        for _ in range(10):
            lat = 48.0 + float(rng.integers(0, 5)) * 3 * LAT_5M
            events.append(_bump(f"t{t}", lat, 11.0))
            n_located += 1
        events.append(_bump(f"t{t}", 0.0, 0.0))
        events[-1].lat = events[-1].lon = None
        reports.append(_report(f"t{t}", events))
    clusters = cluster_events(reports, radius_m=15.0)
    assert sum(len(c.events) for c in clusters) == n_located


def test_prune_by_distinct_trips():
    shared = [
        _report("t1", [_bump("t1", 48.0, 11.0)]),
        _report("t2", [_bump("t2", 48.0, 11.0)]),
        _report("t3", [_bump("t3", 48.0 + 200 * LAT_5M, 11.0)]),
    ]
    clusters = cluster_events(shared, radius_m=15.0)
    kept, dropped = prune_isolated(clusters, min_trips=2)
    assert [c.supporting_trips for c in kept] == [2]
    assert [c.supporting_trips for c in dropped] == [1]


def test_min_trips_one_keeps_everything():
    reports = [_report("t1", [_bump("t1", 48.0, 11.0)]),
               _report("t2", [_bump("t2", 49.0, 11.0)])]
    clusters = cluster_events(reports, radius_m=15.0)
    kept, dropped = prune_isolated(clusters, min_trips=1)
    assert kept == clusters and dropped == []


def test_same_trip_repeats_count_once():
    evs = [_bump("t1", 48.0, 11.0, t_ms=1000 * i) for i in range(4)]
    clusters = cluster_events([_report("t1", evs)], radius_m=15.0)
    assert len(clusters) == 1
    assert len(clusters[0].events) == 4
    assert clusters[0].supporting_trips == 1
    kept, _ = prune_isolated(clusters, min_trips=2)
    assert kept == []


def test_report_order_does_not_matter():
    reports = [
        _report("t2", [_bump("t2", 48.0 + LAT_5M, 11.0)]),
        _report("t3", [_bump("t3", 48.0 + 300 * LAT_5M, 11.0)]),
        _report("t1", [_bump("t1", 48.0, 11.0)]),
    ]
    def map_of(ordered):
        return write_map(*prune_isolated(cluster_events(ordered, radius_m=15.0), min_trips=2))

    a = map_of(reports)
    b = map_of(list(reversed(reports)))
    assert a == b


def test_map_canonical_form():
    reports = [
        _report("t1", [_bump("t1", 48.00000049, 11.0, beta=-2.2514)]),
        _report("t2", [_bump("t2", 48.00000049, 11.0, beta=-2.2514)]),
    ]
    kept, dropped = prune_isolated(cluster_events(reports, radius_m=15.0), min_trips=2)
    text = write_map(kept, dropped)
    assert text.endswith("\n")
    payload = json.loads(text)
    assert set(payload) == {"schema_version", "clusters", "discarded"}
    (cl,) = payload["clusters"]
    assert cl["lat"] == 48.0  # six-decimal rounding
    assert cl["mean_intensity"] == -2.251
    assert cl["event_count"] == 2 and cl["supporting_trips"] == 2
    assert payload["discarded"] == []


def test_map_clusters_sorted():
    reports = [
        _report("t1", [_bump("t1", 49.0, 11.0), _bump("t1", 48.0, 11.0)]),
        _report("t2", [_bump("t2", 49.0, 11.0), _bump("t2", 48.0, 11.0)]),
    ]
    kept, dropped = prune_isolated(cluster_events(reports, radius_m=15.0), min_trips=2)
    payload = json.loads(write_map(kept, dropped))
    lats = [c["lat"] for c in payload["clusters"]]
    assert lats == sorted(lats)


# Lattice half-width of the property test, in steps of about a quarter radius.
_SPAN = 10


@st.composite
def _city(draw):
    """Reports of six trips around one base point, and the radius to cluster them at.

    Coordinates sit on a lattice of power-of-two degree steps about a quarter
    radius apart, so coordinate differences are exact and two centroids
    mirrored about an event tie exactly. The base |lat| is 60° to 90°; half
    the time the lattice straddles the ±180° meridian. Events come in groups:
    a spot many trips see, a walk whose centroid drifts across cell edges,
    and a tie (two clusters, either one made first, then an event halfway
    between them).
    """
    radius = draw(st.sampled_from([1.0, 15.0, 50_000.0]) | st.floats(1.0, 50_000.0))
    lat_base = draw(st.sampled_from([60.0, 89.99, 90.0]) | st.floats(60.0, 90.0))
    lat_base *= draw(st.sampled_from([1.0, -1.0]))
    lon_base = 180.0 if draw(st.booleans()) else draw(st.floats(-180.0, 180.0))
    lat_step = 2.0 ** round(math.log2(math.degrees(radius / 4 / EARTH_RADIUS_M)))
    cos_base = max(math.cos(math.radians(lat_base)), 1e-9)
    lon_step = min(1.0, 2.0 ** round(math.log2(lat_step / cos_base)))
    lat0 = round(lat_base / lat_step) * lat_step
    lon0 = round(lon_base / lon_step) * lon_step

    def point(i: int, j: int) -> tuple[float, float]:
        lat = max(-90.0, min(90.0, lat0 + i * lat_step))
        lon = lon0 + j * lon_step
        return lat, lon - 360.0 if lon > 180.0 else lon + 360.0 if lon < -180.0 else lon

    trip = st.integers(0, 5)
    index = st.integers(-_SPAN, _SPAN)
    sightings: list[tuple[int, str, tuple[float, float] | None]] = []
    for _ in range(draw(st.integers(1, 6))):
        shape = draw(st.sampled_from(["spot", "walk", "tie"]))
        kind = draw(st.sampled_from(["bump", "rough"]))
        i, j = draw(index), draw(index)
        if shape == "spot":
            sightings += [(draw(trip), kind, point(i, j)) for _ in range(draw(st.integers(2, 8)))]
        elif shape == "walk":
            di, dj = draw(st.sampled_from([(0, 1), (1, 0), (1, 1), (1, -1)]))
            t = draw(trip)
            sightings += [(t, kind, point(i + n * di, j + n * dj)) for n in range(draw(st.integers(3, 12)))]
        else:
            lat = point(i, j)[0]
            step_m = haversine_m(lat, 0.0, lat, lon_step)
            k = max(1, int(radius // step_m)) if step_m > 0 else 1
            k *= draw(st.sampled_from([1, -1]))  # which end is made first
            t = draw(trip)
            sightings += [(t, kind, point(i, j - k)), (t, kind, point(i, j + k)), (t, kind, point(i, j))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(sightings)))
        sightings.insert(at, (draw(trip), draw(st.sampled_from(["bump", "rough"])), None))

    events: dict[str, list[RoadEvent]] = {f"t{n}": [] for n in range(6)}
    for n, kind, where in sightings:
        level = draw(st.floats(-4.0, -1.0)) if kind == "bump" else draw(st.integers(1, 3))
        lat, lon = where or (None, None)
        events[f"t{n}"].append(RoadEvent(kind, 0, 0, level, f"t{n}", lat, lon))
    return [_report(t, evs) for t, evs in events.items()], radius


@given(_city())
def test_grid_clusters_like_the_scan(city):
    reports, radius = city
    grid = cluster_events(reports, radius)
    scan = oracle_cluster_events(reports, radius)
    assert [[id(ev) for ev in c.events] for c in grid] == [[id(ev) for ev in c.events] for c in scan]
    for min_trips in (1, 2):
        assert write_map(*prune_isolated(grid, min_trips)) == write_map(*prune_isolated(scan, min_trips))


def test_each_event_measures_few_clusters(monkeypatch):
    """About 5k events over 5 x 5 km: under 3 distance calls per event, not one per cluster."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return haversine_m(*args)

    monkeypatch.setattr(aggregate, "haversine_m", counted)
    rng = random.Random(7)
    lon_5m = LAT_5M / math.cos(math.radians(48.0))
    events: dict[str, list[RoadEvent]] = {f"t{n:02d}": [] for n in range(40)}
    for _ in range(1800):
        lat = 48.0 + rng.uniform(-500, 500) * LAT_5M
        lon = 11.0 + rng.uniform(-500, 500) * lon_5m
        kind = rng.choice(["bump", "rough"])
        for trip in rng.sample(sorted(events), rng.randint(1, 5)):
            ev = _bump(trip, lat + rng.uniform(-0.6, 0.6) * LAT_5M, lon + rng.uniform(-0.6, 0.6) * lon_5m)
            ev.kind = kind
            events[trip].append(ev)
    located = sum(len(evs) for evs in events.values())
    clusters = cluster_events([_report(t, evs) for t, evs in events.items()], radius_m=15.0)
    assert sum(len(c.events) for c in clusters) == located
    assert calls < 3 * located
