"""Independent reference implementations used to cross-check the estimators.

Everything here is deliberately plain Python: explicit inner products
instead of the pyramid recursion, hand-rolled peak scans, a 2x2 inverse by
adjugate, a trip reader that parses each row in its own call, a clustering
that measures every event against every cluster. These routes
share no code with the production implementations they verify, so
agreement between the two is meaningful. ``numpy_dwt`` is the exception: it
is the same pyramid on float64 arrays, which the package's list pyramid
must match to the bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from roadsense.errors import CorruptTripError, OrderingError, ShapeError
from roadsense.geo import GpsFix
from roadsense.wavelet import WaveletCoeffs


def oracle_dwt(values) -> WaveletCoeffs:
    """Haar analysis via explicit inner products with each sampled wavelet."""
    x = [float(v) for v in values]
    size = len(x)
    if size < 2 or size & (size - 1):
        raise ShapeError(f"length must be a power of two >= 2, got {size}")
    levels = size.bit_length() - 1
    approx = math.fsum(v / math.sqrt(size) for v in x)
    details = []
    for j in range(1, levels + 1):
        support = 1 << j
        half = support >> 1
        amp = 2.0 ** (-j / 2.0)
        row = []
        for k in range(size >> j):
            start = k * support
            terms = [x[i] * amp for i in range(start, start + half)]
            terms += [x[i] * -amp for i in range(start + half, start + support)]
            row.append(math.fsum(terms))
        details.append(np.array(row))
    return WaveletCoeffs(approx=approx, details=tuple(details))


def numpy_dwt(values) -> WaveletCoeffs:
    """The Haar pyramid on float64 arrays, as the package ran it with numpy."""
    x = np.asarray(values, dtype=float)
    size = x.shape[0] if x.ndim == 1 else 0
    if size < 2 or size & (size - 1):
        raise ShapeError(f"expected a 1-D power-of-two length >= 2, got shape {x.shape}")
    details = []
    smooth = x
    for _ in range(size.bit_length() - 1):
        even = smooth[0::2]
        odd = smooth[1::2]
        details.append((even - odd) * 2.0**-0.5)
        smooth = (even + odd) * 2.0**-0.5
    return WaveletCoeffs(approx=float(smooth[0]), details=tuple(details))


def _findpeaks_1based(series: list[float]) -> tuple[list[float], list[int]]:
    # Strict local maxima, endpoints excluded; locations are 1-based.
    pks, locs = [], []
    for i in range(1, len(series) - 1):
        if series[i] > series[i - 1] and series[i] > series[i + 1]:
            pks.append(series[i])
            locs.append(i + 1)
    return pks, locs


def _inv2x2(m: list[list[float]]) -> list[list[float]]:
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return [
        [m[1][1] / det, -m[0][1] / det],
        [-m[1][0] / det, m[0][0] / det],
    ]


def oracle_algorithm1(values) -> dict:
    """Step-by-step singularity exponent estimate for one window.

    Returns every intermediate the windowed estimator produces: the three
    peak sets (scale 3 is computed though the estimate never consumes it),
    the dominant peaks P1 and P2, the 1-based finest-scale peak location,
    and the exponent. ``valid`` is False when scale 1 or 2 has no peak.
    """
    coeffs = oracle_dwt(values)
    d1 = [abs(c) for c in coeffs.details[0]]
    d2 = [abs(c) for c in coeffs.details[1]]
    d3 = [abs(c) for c in coeffs.details[2]]
    pks1, locs1 = _findpeaks_1based(d1)
    pks2, locs2 = _findpeaks_1based(d2)
    pks3, locs3 = _findpeaks_1based(d3)
    result = {
        "valid": False,
        "beta_hat": None,
        "p1": None,
        "p2": None,
        "location": None,
        "pks1": pks1,
        "locs1": locs1,
        "pks2": pks2,
        "locs2": locs2,
        "pks3": pks3,
        "locs3": locs3,
    }
    if not pks1 or not pks2:
        return result
    p1 = max(pks1)
    location = locs1[pks1.index(p1)]
    normloc1 = location / len(d1)
    normloc2 = [loc / len(d2) for loc in locs2]
    diffs = [abs(nl - normloc1) for nl in normloc2]
    p2 = pks2[diffs.index(min(diffs))]
    m = _inv2x2([[4.0, 7.0], [7.0, 25.0]])
    s = math.log2(p1) + math.log2(p2)
    beta = m[1][0] * s + m[1][1] * 7.0 * s
    result.update(valid=True, beta_hat=beta, p1=p1, p2=p2, location=location)
    return result


def _parse_row(line: str) -> tuple[str, tuple | GpsFix] | None:
    # One stripped, non-blank trip row, or None when it is malformed.
    fields = line.split(",")
    if len(fields) != 5:
        return None
    kind = fields[0]
    try:
        t_ms = int(fields[1])
        if kind == "A":
            axes = (float(fields[2]), float(fields[3]), float(fields[4]))
            if not all(math.isfinite(v) for v in axes):
                return None
            return "A", (t_ms, *axes)
        if kind == "G":
            if fields[4] != "":
                float(fields[4])
            lat, lon = float(fields[2]), float(fields[3])
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                return None
            return "G", GpsFix(t_ms, lat, lon)
    except ValueError:
        return None
    return None


def oracle_read_trip(lines: list[str]) -> tuple[list, int, int, type | None]:
    """Read a trip body (no header) one ``_parse_row`` call per line.

    Returns the rows read, the total and malformed row counts, and the type
    of the error that ended the read (None when the file is accepted).
    """
    rows, total, malformed = [], 0, 0
    prev_a = prev_g = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        total += 1
        row = _parse_row(line)
        if row is None:
            malformed += 1
            continue
        kind, value = row
        if kind == "A":
            if prev_a is not None and value[0] < prev_a:
                return rows, total, malformed, OrderingError
            prev_a = value[0]
        else:
            if prev_g is not None and value.t_ms < prev_g:
                return rows, total, malformed, OrderingError
            prev_g = value.t_ms
        rows.append(row)
    if malformed > 0.01 * total:
        return rows, total, malformed, CorruptTripError
    return rows, total, malformed, None


def _haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    # The great-circle distance on a 6371 km sphere, operation for operation,
    # so exact ties and the radius boundary fall where the package's do.
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * 6371000.0 * math.asin(min(1.0, math.sqrt(a)))


@dataclass
class OracleCluster:
    """A scan cluster: members, a centroid re-summed per join, support by a set."""

    kind: str
    lat: float
    lon: float
    events: list = field(default_factory=list)

    @property
    def supporting_trips(self) -> int:
        return len({ev.trip_id for ev in self.events})

    @property
    def mean_intensity(self) -> float:
        return sum(ev.intensity for ev in self.events) / len(self.events)


def oracle_cluster_events(reports, radius_m: float) -> list[OracleCluster]:
    """Greedy same-kind clustering by measuring each event against every cluster.

    Reports go by trip id and events in report order; unlocated events are
    skipped. An event joins the nearest centroid within the radius, the first
    made on a tie (``<``), else starts a cluster. A join recomputes the
    centroid with ``sum()`` over all members.
    """
    clusters: list[OracleCluster] = []
    for report in sorted(reports, key=lambda r: r.trip_id):
        for ev in report.events:
            if ev.lat is None:
                continue
            best = best_dist = None
            for cl in clusters:
                if cl.kind != ev.kind:
                    continue
                d = _haversine_m(cl.lat, cl.lon, ev.lat, ev.lon)
                if d <= radius_m and (best_dist is None or d < best_dist):
                    best, best_dist = cl, d
            if best is None:
                clusters.append(OracleCluster(ev.kind, ev.lat, ev.lon, [ev]))
            else:
                best.events.append(ev)
                best.lat = sum(e.lat for e in best.events) / len(best.events)
                best.lon = sum(e.lon for e in best.events) / len(best.events)
    return clusters
