"""Road events and per-trip reports shared across the pipeline stages."""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidSampleError

KIND_ROUGH = "rough"
KIND_BUMP = "bump"


@dataclass
class RoadEvent:
    """One detected hazard: a rough stretch or a single bump.

    ``intensity`` is the peak roughness level (1..3) for rough events and the
    singularity exponent estimate for bumps. Location stays ``None`` until
    geo-tagging, or forever when GPS coverage was unusable at that moment.
    """

    kind: str
    t_start_ms: int
    t_end_ms: int
    intensity: float
    trip_id: str = ""
    lat: float | None = None
    lon: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_ROUGH, KIND_BUMP):
            raise InvalidSampleError(f"unknown event kind: {self.kind}")
        if self.t_end_ms < self.t_start_ms:
            raise InvalidSampleError("event ends before it starts")
        # A rough level is an int from 1 to 3; 1.5, 2.0 and True are not levels.
        level = self.intensity
        if self.kind == KIND_ROUGH and (type(level) is not int or not 1 <= level <= 3):
            raise InvalidSampleError(f"not a rough level: {level!r}")


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
