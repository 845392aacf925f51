from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import settings

from roadsense import PipelineConfig, Scenario, generate_trip, load_config
from roadsense.events import TripReport
from roadsense.pipeline import analyze_trip_stream
from roadsense.trip_io import TripReader

# Property tests draw the same examples on every run, with no example
# database and no per-example deadline, so timing noise cannot fail them.
settings.register_profile("roadsense", derandomize=True, database=None, deadline=None)
settings.load_profile("roadsense")


@pytest.fixture(scope="session")
def config() -> PipelineConfig:
    return load_config()


def analyze_scenario(scn: Scenario, config: PipelineConfig, trip_id: str | None = None) -> TripReport:
    """Render a scenario and push the trip through the streaming pipeline."""
    csv_text, _ = generate_trip(scn)
    reader = TripReader(io.StringIO(csv_text))
    return analyze_trip_stream(reader, config, trip_id=trip_id or scn.name)


def z_threshold_baseline(z_values: np.ndarray, threshold: float) -> np.ndarray:
    """Indices of raw vertical-axis samples exceeding a fixed threshold.

    Comparison baseline only: it keys on absolute magnitude, so the same
    bump recorded by a less sensitive device can slip under the threshold.
    """
    return np.flatnonzero(np.asarray(z_values, dtype=float) > threshold)
