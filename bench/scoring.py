"""Detection quality against ground truth: trip reports and hazard maps.

Inputs are plain JSON-decoded dicts, so scoring depends on the report and
map formats only, not on the program's classes:

- a trip report's ``events`` (``kind``, ``t_start_ms``, ``t_end_ms``,
  ``lat``, ``lon``) against the synthesizer's labels JSON (``duration_ms``,
  ``bumps[].t_ms``, ``rough[].start_ms``);
- a hazard map's ``clusters`` against planted spots (``kind``, ``lat``,
  ``lon``, ``trips`` = how many distinct trips saw the spot).
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

# A reported bump matches a label within this distance in time; the same
# tolerance the bump acceptance criterion uses.
BUMP_TOL_MS = 2000
EARTH_RADIUS_M = 6371000.0
MS_PER_HOUR = 3_600_000


def _gap_ms(t_ms: int, start_ms: int, end_ms: int) -> int:
    """Distance in time from a point to an interval (0 when inside it)."""
    return max(start_ms - t_ms, t_ms - end_ms, 0)


def _subtract(start: int, end: int, holes: list[tuple[int, int]]) -> int:
    """Length of [start, end] not covered by the (sorted, disjoint) holes."""
    left = end - start
    for lo, hi in holes:
        left -= max(0, min(end, hi) - max(start, lo))
    return left


def _union(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def bump_scores(events: list[dict], labels: dict, tol_ms: int = BUMP_TOL_MS) -> dict:
    """Bump recall and false-bump rates of one trip report.

    A labelled bump is recalled when some reported bump's time span comes
    within ``tol_ms`` of it; merged events span several windows, so the
    span, not only its start, is what must come close. A reported bump
    farther than ``tol_ms`` from every label is false. ``false_bump_s_per_h``
    is the reported bump time lying outside every label's tolerance band;
    ``false_bumps_per_h`` counts the false events themselves, so single
    zero-length false events still show.
    """
    bumps = [(e["t_start_ms"], e["t_end_ms"]) for e in events if e["kind"] == "bump"]
    truth = [b["t_ms"] for b in labels["bumps"]]
    hours = labels["duration_ms"] / MS_PER_HOUR
    recalled = sum(1 for t in truth if any(_gap_ms(t, lo, hi) <= tol_ms for lo, hi in bumps))
    false_events = sum(
        1 for lo, hi in bumps if all(_gap_ms(t, lo, hi) > tol_ms for t in truth)
    )
    bands = _union([(t - tol_ms, t + tol_ms) for t in truth])
    false_ms = sum(_subtract(lo, hi, bands) for lo, hi in _union(bumps))
    return {
        "bump_recall": recalled / len(truth) if truth else None,
        "bumps_recalled": recalled,
        "bumps_labelled": len(truth),
        "false_bump_s_per_h": false_ms / 1000.0 / hours,
        "false_bumps_per_h": false_events / hours,
    }


def rough_onset_err_s(events: list[dict], labels: dict) -> float | None:
    """Mean |reported start - labelled start| over labelled rough patches.

    Each patch is paired with the reported rough event that overlaps it and
    starts nearest its labelled start. Patches no event overlaps are left
    out; None when no patch is matched.
    """
    rough = [e for e in events if e["kind"] == "rough"]
    errors = []
    for patch in labels["rough"]:
        start, end = patch["start_ms"], patch["end_ms"]
        starts = [e["t_start_ms"] for e in rough if e["t_start_ms"] <= end and e["t_end_ms"] >= start]
        if starts:
            errors.append(min(abs(t - start) for t in starts) / 1000.0)
    return sum(errors) / len(errors) if errors else None


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres on the spherical earth the maps use."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dlat, dlon = p2 - p1, math.radians(lon2 - lon1)
    a = math.sin(dlat / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlon / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def map_scores(clusters: list[dict], spots: list[dict], radius_m: float) -> dict:
    """Hazard recall and false hazards of a map's confirmed clusters.

    A spot seen by two or more trips is recalled when a confirmed cluster of
    its kind lies within ``radius_m`` of it. A confirmed cluster with no
    planted spot of its kind within ``radius_m`` is a false hazard.
    """
    # Great-circle distance is at least the latitude difference times the
    # radius, so only spots in a narrow latitude band can be near a cluster.
    band = math.degrees(radius_m / EARTH_RADIUS_M)
    by_lat = sorted(spots, key=lambda s: s["lat"])
    lats = [s["lat"] for s in by_lat]

    def near(cl: dict) -> list[int]:
        lo = bisect_left(lats, cl["lat"] - band)
        hi = bisect_right(lats, cl["lat"] + band)
        return [
            i
            for i in range(lo, hi)
            if by_lat[i]["kind"] == cl["kind"]
            and haversine_m(cl["lat"], cl["lon"], by_lat[i]["lat"], by_lat[i]["lon"]) <= radius_m
        ]

    matches = [near(c) for c in clusters]
    found = {i for m in matches for i in m if by_lat[i]["trips"] >= 2}
    planted = sum(1 for s in spots if s["trips"] >= 2)
    return {
        "hazard_recall": len(found) / planted if planted else None,
        "hazards_recalled": len(found),
        "hazards_planted": planted,
        "false_hazards": sum(1 for m in matches if not m),
    }
