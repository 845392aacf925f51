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
from dataclasses import dataclass
from typing import Iterable, Iterator

from .config import SCHEMA_VERSION
from .errors import (
    CorruptTripError,
    InvalidSampleError,
    OrderingError,
    TripFormatError,
)
from .events import KIND_ROUGH, RoadEvent, TripReport, TripStats
from .geo import GpsFix
from .signal_core import AccelSample

TRIP_HEADER = "type,t_ms,a,b,c"
MALFORMED_TOLERANCE = 0.01


@dataclass
class ParseStats:
    total_rows: int = 0
    malformed_rows: int = 0


class TripReader:
    """Single-pass trip CSV reader yielding ("A", AccelSample) / ("G", GpsFix).

    Keeps nothing in memory beyond the current row, so arbitrarily long
    trips stream through. The malformed-row budget can only be judged at end
    of file, which is where CorruptTripError surfaces; ordering violations
    raise at the offending row.
    """

    def __init__(self, lines: Iterable[str]) -> None:
        if isinstance(lines, str):
            lines = lines.splitlines()
        self._lines = iter(lines)
        self.stats = ParseStats()
        header = next(self._lines, None)
        if header is None or header.strip() != TRIP_HEADER:
            raise TripFormatError(f"missing or wrong header; expected {TRIP_HEADER!r}")

    def __iter__(self) -> Iterator[tuple[str, AccelSample | GpsFix]]:
        prev_a = prev_g = None
        for line in self._lines:
            line = line.strip()
            if not line:
                continue
            self.stats.total_rows += 1
            row = self._parse_row(line)
            if row is None:
                self.stats.malformed_rows += 1
                continue
            kind, value = row
            if kind == "A":
                if prev_a is not None and value.t_ms < prev_a:
                    raise OrderingError(f"accelerometer time went backwards at t={value.t_ms}")
                prev_a = value.t_ms
            else:
                if prev_g is not None and value.t_ms < prev_g:
                    raise OrderingError(f"GPS time went backwards at t={value.t_ms}")
                prev_g = value.t_ms
            yield kind, value
        if self.stats.malformed_rows > MALFORMED_TOLERANCE * self.stats.total_rows:
            raise CorruptTripError(
                f"{self.stats.malformed_rows} of {self.stats.total_rows} rows malformed"
            )

    @staticmethod
    def _parse_row(line: str) -> tuple[str, AccelSample | GpsFix] | None:
        fields = line.split(",")
        if len(fields) != 5:
            return None
        kind = fields[0]
        try:
            t_ms = int(fields[1])
            if kind == "A":
                return "A", AccelSample(
                    t_ms, float(fields[2]), float(fields[3]), float(fields[4])
                )
            if kind == "G":
                acc = float(fields[4]) if fields[4] != "" else None
                return "G", GpsFix(t_ms, float(fields[2]), float(fields[3]), acc)
        except (ValueError, InvalidSampleError):
            return None
        return None


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
        "stats": {
            "segments": report.stats.segments,
            "dropped_samples": report.stats.dropped_samples,
            "malformed_rows": report.stats.malformed_rows,
            "gps_gaps": report.stats.gps_gaps,
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def parse_report(text: str) -> TripReport:
    """Rebuild a TripReport from its canonical JSON text.

    A report whose ``schema_version`` is missing or not this package's is
    rejected, not read as if it were.
    """
    try:
        payload = json.loads(text)
        if payload["schema_version"] != SCHEMA_VERSION:
            raise TripFormatError(
                f"unsupported report schema_version {payload['schema_version']!r}; "
                f"expected {SCHEMA_VERSION}"
            )
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
        stats = TripStats(**payload["stats"])
        return TripReport(
            trip_id=payload["trip_id"],
            device_id=payload["device_id"],
            sample_rate_hz=payload["sample_rate_hz"],
            events=events,
            stats=stats,
        )
    except (json.JSONDecodeError, KeyError, TypeError, InvalidSampleError) as exc:
        raise TripFormatError(f"not a valid trip report: {exc}") from exc
