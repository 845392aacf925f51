"""Trip log parsing and canonical report serialization.

Trip files are CSV with header ``type,t_ms,a,b,c``. Accelerometer rows
(type A) put the three axes in a/b/c; GPS rows (type G) put latitude,
longitude and an optional accuracy there. Both sensors share one file in
timestamp order, and timestamps must be non-decreasing within each stream.

A small fraction of malformed rows is tolerated and counted (real phone
logs always contain a few); past one percent the file is rejected as
corrupt rather than silently analyzed.

Reports serialize to a canonical JSON form: sorted keys, degrees at six
decimals, exponents at three, times as integer milliseconds. Two runs over
identical input produce byte-identical files.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

from .config import SCHEMA_VERSION
from .errors import CorruptTripError, OrderingError, TripFormatError
from .events import KIND_BUMP, KIND_ROUGH, RoadEvent, TripReport, TripStats
from .geo import GpsFix

TRIP_HEADER = "type,t_ms,a,b,c"
MALFORMED_TOLERANCE = 0.01


@dataclass
class ParseStats:
    total_rows: int = 0
    malformed_rows: int = 0


class TripReader:
    """Single-pass trip CSV reader yielding ("A", (t_ms, ax, ay, az)) / ("G", GpsFix).

    Keeps nothing in memory beyond the current row, so arbitrarily long
    trips stream through. This is the one place samples enter, so it is the
    one sample check: a non-finite accelerometer axis or a GPS lat/lon out of
    range (nan included) makes the row malformed. A GPS row's accuracy column
    must be empty or a number but is not kept. The malformed-row budget can
    only be judged at end of file, which is where CorruptTripError surfaces;
    ordering violations raise at the offending row.
    """

    def __init__(self, lines: Iterable[str]) -> None:
        if isinstance(lines, str):
            lines = lines.splitlines()
        self._lines = iter(lines)
        self.stats = ParseStats()
        header = next(self._lines, None)
        if header is None or header.strip() != TRIP_HEADER:
            raise TripFormatError(f"missing or wrong header; expected {TRIP_HEADER!r}")

    def __iter__(self) -> Iterator[tuple[str, tuple[int, float, float, float] | GpsFix]]:
        stats = self.stats
        isfinite = math.isfinite
        prev_a = prev_g = -math.inf
        for line in self._lines:
            line = line.strip()
            if not line:
                continue
            stats.total_rows += 1
            try:
                kind, t, a, b, c = line.split(",")
                t_ms = int(t)
                if kind == "A":
                    ax, ay, az = float(a), float(b), float(c)
                    ok = isfinite(ax) and isfinite(ay) and isfinite(az)
                elif kind == "G":
                    if c:
                        float(c)  # accuracy: validated, not kept
                    lat, lon = float(a), float(b)
                    ok = -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0
                else:
                    ok = False
            except ValueError:
                ok = False
            if not ok:
                stats.malformed_rows += 1
            elif kind == "A":
                if t_ms < prev_a:
                    raise OrderingError(f"accelerometer time went backwards at t={t_ms}")
                prev_a = t_ms
                yield "A", (t_ms, ax, ay, az)
            else:
                if t_ms < prev_g:
                    raise OrderingError(f"GPS time went backwards at t={t_ms}")
                prev_g = t_ms
                yield "G", GpsFix(t_ms, lat, lon)
        if stats.malformed_rows > MALFORMED_TOLERANCE * stats.total_rows:
            raise CorruptTripError(f"{stats.malformed_rows} of {stats.total_rows} rows malformed")


# -- Canonical report serialization -------------------------------------------


def _event_payload(ev: RoadEvent) -> dict:
    return {
        "kind": ev.kind,
        "t_start_ms": int(ev.t_start_ms),
        "t_end_ms": int(ev.t_end_ms),
        "lat": None if ev.lat is None else round(ev.lat, 6),
        "lon": None if ev.lon is None else round(ev.lon, 6),
        "intensity": int(ev.intensity) if ev.kind == KIND_ROUGH else round(ev.intensity, 3),
    }


def write_report(report: TripReport) -> str:
    """Serialize a trip report to its canonical JSON text."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "trip_id": report.trip_id,
        "device_id": report.device_id,
        "sample_rate_hz": report.sample_rate_hz,
        "events": [_event_payload(ev) for ev in report.events],
        "stats": asdict(report.stats),
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finite(value) -> bool:
    # A bool is an int to Python but never a number in a report.
    return type(value) in (int, float) and math.isfinite(value)


def _check_event(e: dict) -> None:
    lat, lon, start, end, level = e["lat"], e["lon"], e["t_start_ms"], e["t_end_ms"], e["intensity"]
    located = _finite(lat) and _finite(lon) and abs(lat) <= 90.0 and abs(lon) <= 180.0
    times = type(start) is int and type(end) is int and start <= end
    # A rough level is an int from 1 to 3; 1.5, 2.0 and True are not levels.
    rough = type(level) is int and 1 <= level <= 3
    kind = e["kind"] == KIND_BUMP or e["kind"] == KIND_ROUGH and rough
    if not (kind and times and _finite(level) and (located or lat is None and lon is None)):
        raise TripFormatError(f"not a valid trip report: bad event {e!r}")


def parse_report(text: str) -> TripReport:
    """Rebuild a TripReport from its canonical JSON text.

    A report whose ``schema_version`` is missing or not this package's is
    rejected, not read as if it were. So is one with a non-finite number, a
    bool or string for a number, a non-string ``trip_id`` or ``device_id``,
    a ``sample_rate_hz`` of zero or less, a non-integer time, a count that is
    not an int of at least 0, a coordinate out of range or null on one side
    only, a kind other than bump or rough, an end before its start, or a
    rough level other than an int from 1 to 3.
    """
    try:
        payload = json.loads(text)
        if payload["schema_version"] != SCHEMA_VERSION:
            raise TripFormatError(
                f"unsupported report schema_version {payload['schema_version']!r}; "
                f"expected {SCHEMA_VERSION}"
            )
        stats = TripStats(**payload["stats"])
        rate = payload["sample_rate_hz"]
        if not (
            type(payload["trip_id"]) is str
            and type(payload["device_id"]) is str
            and _finite(rate) and rate > 0
            and all(type(v) is int and v >= 0 for v in vars(stats).values())
        ):
            raise TripFormatError(
                "not a valid trip report: bad trip_id, device_id, sample_rate_hz or stats"
            )
        for e in payload["events"]:
            _check_event(e)
        events = [
            RoadEvent(
                kind=e["kind"],
                t_start_ms=e["t_start_ms"],
                t_end_ms=e["t_end_ms"],
                intensity=e["intensity"],
                trip_id=payload["trip_id"],
                lat=e["lat"],
                lon=e["lon"],
            )
            for e in payload["events"]
        ]
        return TripReport(
            trip_id=payload["trip_id"],
            device_id=payload["device_id"],
            sample_rate_hz=rate,
            events=events,
            stats=stats,
        )
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise TripFormatError(f"not a valid trip report: {exc}") from exc
