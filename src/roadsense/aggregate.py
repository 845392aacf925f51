"""Cross-trip aggregation of located events into confirmed hazards.

Each located event joins the nearest cluster of its kind whose centroid lies
within a fixed radius (the earliest cluster wins a tie), else starts a new
one; the centroid is the arithmetic mean of member coordinates. Processing
order is canonical (reports by trip id, events in report order), so the same
inputs always produce the same map. A hazard is confirmed once enough
distinct trips support it; repeats within one trip count once.

Clusters sit in a hash of radius-sized cells that wrap at ±180°, so an event
measures only the clusters in the 3x3 block of cells around it and the cost
grows about linearly with the number of events. The clusters, their members
and their order are exactly those of measuring each event against every one.
"""
from __future__ import annotations

import json
import math

from .config import SCHEMA_VERSION
from .errors import TripFormatError
from .events import RoadEvent, TripReport
from .geo import EARTH_RADIUS_M, haversine_m

# Cells are this much larger than the distance bound they must cover, so
# rounding in the distance and in the cell arithmetic cannot hide a cluster.
_MARGIN = 1.001
# No cell is narrower than about 1 cm, so a tiny radius cannot overflow an index.
_MIN_CELL_DEG = 1e-7


class HazardCluster:
    """Same-kind events around a centroid, the mean of member coordinates.

    Running sums of member latitudes, longitudes and intensities keep
    ``_join`` and ``mean_intensity`` from re-reading every member. Each sum
    adds members left to right from 0. CPython 3.11's ``sum()`` does exactly
    that with floats, so there the centroid is bit-identical to
    ``sum(lats) / n``. CPython 3.12 and later compensate float ``sum()``, so
    the two can differ in the last bit. A lone member's centroid is its own
    coordinates. ``cluster_events`` feeds events one trip at a time, so a
    trip's events reach a cluster together and ``supporting_trips`` counts
    changes of trip id: the distinct trips, with no set to keep.
    """

    __slots__ = ("kind", "lat", "lon", "events", "supporting_trips",
                 "_lat_sum", "_lon_sum", "_intensity_sum", "_last_trip")

    def __init__(self, ev: RoadEvent) -> None:
        self.kind = ev.kind
        self.lat, self.lon = ev.lat, ev.lon
        self.events = [ev]
        # From 0 as sum() starts, so a lone -0.0 sums to 0.0 as it would there.
        self._lat_sum, self._lon_sum = 0 + ev.lat, 0 + ev.lon
        self._intensity_sum = 0 + ev.intensity
        self._last_trip = ev.trip_id
        self.supporting_trips = 1

    @property
    def mean_intensity(self) -> float:
        return self._intensity_sum / len(self.events)

    def _join(self, ev: RoadEvent) -> None:
        self.events.append(ev)
        self._lat_sum += ev.lat
        self._lon_sum += ev.lon
        self._intensity_sum += ev.intensity
        self.lat = self._lat_sum / len(self.events)
        self.lon = self._lon_sum / len(self.events)
        if ev.trip_id != self._last_trip:
            self._last_trip = ev.trip_id
            self.supporting_trips += 1


def _cell_sizes(located: list[RoadEvent], radius_m: float) -> tuple[float, float, int]:
    """Row height and column width in degrees, and the number of columns.

    Two points within the radius are at most ``radius/R`` radians apart in
    latitude, because haversine >= R·|Δφ|; so they sit in the same or
    adjacent rows. In longitude they are at most ``2·asin(sin(r/2R) / cos
    φmax)`` apart (wrapped), where φmax bounds the |lat| of both. Centroids
    are member means, so the largest |lat| of any event, plus one row, bounds
    every point compared. Columns divide 360° evenly and so wrap at ±180°.
    Where fewer than three columns fit (near a pole, or for a radius near
    half the earth) one column spans every longitude.
    """
    half = radius_m / (2.0 * EARTH_RADIUS_M)
    row_deg = max(math.degrees(2.0 * half) * _MARGIN, _MIN_CELL_DEG)
    phi_max = min(90.0, max((abs(ev.lat) for ev in located), default=0.0) + row_deg)
    reach = math.sin(half) / math.cos(math.radians(phi_max)) if half < math.pi / 2 else 1.0
    if reach < 1.0:
        cols = int(360.0 // max(math.degrees(2.0 * math.asin(reach)) * _MARGIN, _MIN_CELL_DEG))
        if cols >= 3:
            return row_deg, 360.0 / cols, cols
    return row_deg, 360.0, 1


def cluster_events(reports: list[TripReport], radius_m: float) -> list[HazardCluster]:
    """Greedy same-kind clustering of every located event in the reports.

    Unlocated events (GPS gap at the wrong moment; lat and lon both None)
    cannot support a map entry and are skipped. An event joins the nearest
    centroid within the radius, the earliest made on a tie, else starts a new
    cluster. Two reports with the same trip id count as one trip, so they
    raise :class:`TripFormatError`.
    """
    ordered = sorted(reports, key=lambda r: r.trip_id)
    for a, b in zip(ordered, ordered[1:]):
        if a.trip_id == b.trip_id:
            raise TripFormatError(f"two reports share trip_id {a.trip_id!r}")
    located = [ev for report in ordered for ev in report.events if ev.lat is not None]
    row_deg, col_deg, cols = _cell_sizes(located, radius_m)
    col_steps = (-1, 0, 1) if cols > 1 else (0,)

    def cell(lat: float, lon: float) -> int:
        # Row times column count plus column: one int per cell.
        return math.floor(lat / row_deg) * cols + math.floor((lon + 180.0) / col_deg) % cols

    clusters: list[HazardCluster] = []
    # Per kind: cell -> indices of the clusters whose centroid is in it.
    cells_of: dict[str, dict[int, list[int]]] = {}
    for ev in located:
        cells = cells_of.setdefault(ev.kind, {})
        home = cell(ev.lat, ev.lon)
        row, col = divmod(home, cols)
        near = [(col + step) % cols for step in col_steps]
        best = best_dist = None
        for r in (row - 1, row, row + 1):
            for c in near:
                for i in cells.get(r * cols + c, ()):
                    cl = clusters[i]
                    d = haversine_m(cl.lat, cl.lon, ev.lat, ev.lon)
                    if d <= radius_m and (best is None or d < best_dist or d == best_dist and i < best):
                        best, best_dist = i, d
        if best is None:
            cells.setdefault(home, []).append(len(clusters))
            clusters.append(HazardCluster(ev))
            continue
        cl = clusters[best]
        was = cell(cl.lat, cl.lon)
        cl._join(ev)
        # The join may carry the centroid across a cell edge.
        now = cell(cl.lat, cl.lon)
        if now != was:
            cells[was].remove(best)
            cells.setdefault(now, []).append(best)
    return clusters


def prune_isolated(
    clusters: list[HazardCluster], min_trips: int
) -> tuple[list[HazardCluster], list[HazardCluster]]:
    """Split clusters into (confirmed, discarded) by distinct-trip support."""
    kept: list[HazardCluster] = []
    dropped: list[HazardCluster] = []
    for c in clusters:
        (kept if c.supporting_trips >= min_trips else dropped).append(c)
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
