from __future__ import annotations

import json

from roadsense.aggregate import cluster_events, prune_isolated, write_map
from roadsense.events import RoadEvent, TripReport


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
