"""Road events and per-trip reports shared across the pipeline stages."""
from __future__ import annotations

from dataclasses import dataclass, field

KIND_ROUGH = "rough"
KIND_BUMP = "bump"


@dataclass
class RoadEvent:
    """One detected hazard: a rough stretch or a single bump.

    ``intensity`` is the peak roughness level (1..3) for rough events and the
    singularity exponent estimate for bumps. Location stays ``None`` until
    geo-tagging, or forever when GPS coverage was unusable at that moment.
    A plain record: ``parse_report`` checks the events it reads.
    """

    kind: str
    t_start_ms: int
    t_end_ms: int
    intensity: float
    trip_id: str = ""
    lat: float | None = None
    lon: float | None = None


@dataclass
class TripStats:
    segments: int = 0
    dropped_samples: int = 0
    malformed_rows: int = 0
    gps_gaps: int = 0


@dataclass
class TripReport:
    """Everything the pipeline produces for one trip, ready to serialize."""

    trip_id: str
    device_id: str
    sample_rate_hz: float
    events: list[RoadEvent] = field(default_factory=list)
    stats: TripStats = field(default_factory=TripStats)
