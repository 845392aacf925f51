"""Road roughness and bump detection from phone accelerometer and GPS logs."""

from .aggregate import cluster_events, prune_isolated, write_map
from .bump import lipschitz_algorithm1
from .config import PipelineConfig, load_config
from .gravity_filter import filter_step, gravity_magnitude, make_filter
from .pipeline import analyze_trip_file
from .roughness import estimate_sigma, update_alpha
from .signal_core import SegmentBuffer
from .wavelet import dwt

__version__ = "0.1.0"

__all__ = [
    "BumpSpec",
    "PipelineConfig",
    "RoughPatch",
    "Scenario",
    "SegmentBuffer",
    "SpeedPoint",
    "analyze_trip_file",
    "cluster_events",
    "dwt",
    "estimate_sigma",
    "filter_step",
    "generate_trip",
    "gravity_magnitude",
    "lipschitz_algorithm1",
    "load_config",
    "make_filter",
    "prune_isolated",
    "update_alpha",
    "write_map",
]


def __getattr__(name: str):
    # The scenario names load synth on first use, so the command line starts without it.
    if name in ("BumpSpec", "RoughPatch", "Scenario", "SpeedPoint", "generate_trip"):
        from . import synth
        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
