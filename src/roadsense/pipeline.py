"""End-to-end trip analysis.

One forward pass over the interleaved sensor stream: filter each sample,
collapse to the resultant magnitude, window, transform, classify roughness
(which feeds the chosen smoothing factor back into the filter), and score
each window for a singularity. Bump candidates are speed-gated, geo-tagged
and time-merged once the stream ends, when the full GPS track is known.

The GPS track is retained whole for that final pass; at roughly one fix per
second it stays negligible next to the sample stream, which is never
materialized.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable

from .bump import (
    LipschitzEstimate,
    detect_bump,
    lipschitz_algorithm1,
    lipschitz_diagnostics,
    merge_events,
)
from .config import PipelineConfig
from .events import RoadEvent, TripReport, TripStats
from .geo import GpsFix, gap_count, locate_event, speed_at
from .gravity_filter import (
    filter_step,
    gravity_magnitude,
    make_filter,
    reset_seed,
    set_alpha,
)
from .roughness import (
    RoughEventTracker,
    RoughnessState,
    classify_segment,
    cost,
    estimate_sigma,
)
from .signal_core import SegmentBuffer
from .trip_io import TripReader
from .wavelet import dwt


def _round_location(ev: RoadEvent) -> None:
    if ev.lat is not None:
        ev.lat = round(ev.lat, 6)
        ev.lon = round(ev.lon, 6)


def analyze_trip_stream(
    rows: Iterable[tuple[str, tuple[int, float, float, float] | GpsFix]],
    config: PipelineConfig,
    trip_id: str = "",
    device_id: str = "",
    diagnostics: Callable[[dict], None] | None = None,
) -> TripReport:
    """Analyze an interleaved, time-ordered sensor row stream into a report.

    ``rows`` yields ("A", (t_ms, ax, ay, az)) with finite axes and ("G",
    GpsFix) pairs, e.g. from a :class:`~roadsense.trip_io.TripReader`. When
    the iterable exposes reader parse stats, malformed-row counts carry into
    the report. ``diagnostics``, when given, receives one dict per window as
    soon as the window is scored.
    """
    sig, rough_cfg = config.signal, config.roughness
    fstate = make_filter(rough_cfg.alpha_schedule[0])
    segbuf = SegmentBuffer(sig.segment_len)
    rstate = RoughnessState(rough_cfg)
    tracker = RoughEventTracker(hold_off=rough_cfg.hold_off_segments)
    candidates: list[tuple[LipschitzEstimate, int]] = []
    fixes: list[GpsFix] = []
    gap_ms = sig.reseed_gap_periods * sig.period_ms
    prev_t = math.inf  # the first sample follows no gap

    for kind, value in rows:
        if kind == "G":
            fixes.append(value)
            continue
        t_ms, ax, ay, az = value
        if t_ms - prev_t > gap_ms:
            # No window spans a sensor gap, and stale filter state does not
            # carry across it.
            fstate = reset_seed(fstate)
            segbuf.restart()
        prev_t = t_ms
        fstate, g = filter_step(fstate, ax, ay, az)
        seg = segbuf.push(t_ms, gravity_magnitude(g))
        if seg is None:
            continue

        coeffs = dwt(seg.values)
        level = classify_segment(rstate, coeffs)
        if rstate.alpha != fstate.alpha:
            fstate = set_alpha(fstate, rstate.alpha)
        tracker.observe(seg, level)
        est = lipschitz_algorithm1(coeffs)
        if est.valid:
            candidates.append((est, seg.times[est.loc]))
        if diagnostics is not None:
            diagnostics(_segment_diag(seg, coeffs, rstate, level, est))

    events = _finish(tracker, candidates, fixes, config)
    for ev in events:
        ev.trip_id = trip_id
    stats = TripStats(
        segments=segbuf.count,
        dropped_samples=segbuf.dropped,
        malformed_rows=getattr(getattr(rows, "stats", None), "malformed_rows", 0),
        gps_gaps=gap_count(fixes, config.gps.max_gap_ms),
    )
    return TripReport(
        trip_id=trip_id,
        device_id=device_id,
        sample_rate_hz=sig.sample_rate_hz,
        events=events,
        stats=stats,
    )


def _finish(
    tracker: RoughEventTracker,
    candidates: list[tuple[LipschitzEstimate, int]],
    fixes: list[GpsFix],
    config: PipelineConfig,
) -> list[RoadEvent]:
    gps_cfg, bump_cfg = config.gps, config.bump
    bumps: list[RoadEvent] = []
    for est, t_ms in candidates:
        ev = detect_bump(est, speed_at(fixes, t_ms), t_ms, bump_cfg)
        if ev is None:
            continue
        loc = locate_event(fixes, t_ms, gps_cfg.max_gap_ms)
        if loc is not None:
            ev.lat, ev.lon = loc
        bumps.append(ev)
    merged = merge_events(bumps, bump_cfg.merge_window_ms)
    for ev in merged:
        ev.intensity = round(ev.intensity, 3)
        _round_location(ev)

    rough_events = tracker.finish()
    for ev in rough_events:
        mid = (ev.t_start_ms + ev.t_end_ms) // 2
        loc = locate_event(fixes, mid, gps_cfg.max_gap_ms)
        if loc is not None:
            ev.lat, ev.lon = loc
        _round_location(ev)

    return sorted(rough_events + merged, key=lambda e: (e.t_start_ms, e.kind, e.t_end_ms))


def _segment_diag(seg, coeffs, rstate, level, est) -> dict:
    return {
        "segment": seg.index,
        "t_start_ms": seg.t_start_ms,
        "t_end_ms": seg.t_end_ms,
        "sigma_hat": estimate_sigma(coeffs),
        "j_cost": cost(rstate),
        "alpha": rstate.alpha,
        "level": level,
        "valid": est.valid,
        "beta_hat": est.beta_hat if est.valid else None,
        "p1": est.p1 if est.valid else None,
        "p2": est.p2 if est.valid else None,
        "loc": est.loc if est.valid else None,
        **lipschitz_diagnostics(coeffs),
    }


def analyze_trip_file(
    path: str,
    config: PipelineConfig,
    trip_id: str = "",
    device_id: str = "",
    diagnostics: Callable[[dict], None] | None = None,
) -> TripReport:
    """Stream a trip CSV from disk through the pipeline."""
    with open(path, encoding="utf-8") as fh:
        reader = TripReader(fh)
        return analyze_trip_stream(reader, config, trip_id, device_id, diagnostics)
