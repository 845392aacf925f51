"""Cross-trip aggregation of located events into confirmed hazards.

Events of one kind that fall within a fixed radius of a cluster centroid
join that cluster; the centroid is the running arithmetic mean of member
coordinates. Processing order is canonical (reports by trip id, events in
report order), so the same inputs always produce the same map. A hazard is
confirmed once enough distinct trips support it; repeats within one trip
count once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .config import SCHEMA_VERSION
from .errors import TripFormatError
from .events import RoadEvent, TripReport
from .geo import haversine_m


@dataclass
class HazardCluster:
    kind: str
    lat: float
    lon: float
    events: list[RoadEvent] = field(default_factory=list)

    @property
    def supporting_trips(self) -> int:
        return len({ev.trip_id for ev in self.events})

    @property
    def mean_intensity(self) -> float:
        return sum(ev.intensity for ev in self.events) / len(self.events)

    def _join(self, ev: RoadEvent) -> None:
        self.events.append(ev)
        self.lat = sum(e.lat for e in self.events) / len(self.events)
        self.lon = sum(e.lon for e in self.events) / len(self.events)


def cluster_events(reports: list[TripReport], radius_m: float) -> list[HazardCluster]:
    """Greedy same-kind clustering of every located event in the reports.

    Unlocated events (GPS gap at the wrong moment; lat and lon both None)
    cannot support a map entry and are skipped. An event joins the nearest
    centroid within the radius, else starts a new cluster. Two reports with
    the same trip id count as one trip, so they raise :class:`TripFormatError`.
    """
    ordered = sorted(reports, key=lambda r: r.trip_id)
    for a, b in zip(ordered, ordered[1:]):
        if a.trip_id == b.trip_id:
            raise TripFormatError(f"two reports share trip_id {a.trip_id!r}")
    clusters: list[HazardCluster] = []
    for report in ordered:
        for ev in report.events:
            if ev.lat is None:
                continue
            best = None
            best_dist = None
            for cl in clusters:
                if cl.kind != ev.kind:
                    continue
                d = haversine_m(cl.lat, cl.lon, ev.lat, ev.lon)
                if d <= radius_m and (best_dist is None or d < best_dist):
                    best, best_dist = cl, d
            if best is None:
                clusters.append(HazardCluster(kind=ev.kind, lat=ev.lat, lon=ev.lon, events=[ev]))
            else:
                best._join(ev)
    return clusters


def prune_isolated(
    clusters: list[HazardCluster], min_trips: int
) -> tuple[list[HazardCluster], list[HazardCluster]]:
    """Split clusters into (confirmed, discarded) by distinct-trip support."""
    kept = [c for c in clusters if c.supporting_trips >= min_trips]
    dropped = [c for c in clusters if c.supporting_trips < min_trips]
    return kept, dropped


def _cluster_payload(cl: HazardCluster) -> dict:
    return {
        "kind": cl.kind,
        "lat": round(cl.lat, 6),
        "lon": round(cl.lon, 6),
        "supporting_trips": cl.supporting_trips,
        "event_count": len(cl.events),
        "mean_intensity": round(cl.mean_intensity, 3),
    }


def write_map(
    confirmed: list[HazardCluster], discarded: list[HazardCluster] | None = None
) -> str:
    """Canonical JSON text for a hazard map: confirmed clusters plus a discard log."""
    key = lambda c: (c["kind"], c["lat"], c["lon"], c["supporting_trips"])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "clusters": sorted((_cluster_payload(c) for c in confirmed), key=key),
        "discarded": sorted((_cluster_payload(c) for c in discarded or []), key=key),
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
