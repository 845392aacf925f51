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

from typing import Iterable

from .bump import (
    LipschitzEstimate,
    detect_bump,
    lipschitz_algorithm1,
    lipschitz_diagnostics,
    merge_events,
)
from .config import PipelineConfig
from .errors import NoSpeedError, RoadSenseError
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
from .signal_core import AccelSample, SegmentBuffer
from .trip_io import TripReader
from .wavelet import dwt


def _round_location(ev: RoadEvent) -> None:
    if ev.lat is not None:
        ev.lat = round(ev.lat, 6)
        ev.lon = round(ev.lon, 6)


def analyze_trip_stream(
    rows: Iterable[tuple[str, AccelSample | GpsFix]],
    config: PipelineConfig,
    trip_id: str = "",
    device_id: str = "",
    diagnostics: list | None = None,
) -> TripReport:
    """Analyze an interleaved, time-ordered sensor row stream into a report.

    ``rows`` yields ("A", AccelSample) and ("G", GpsFix) pairs, e.g. from a
    :class:`~roadsense.trip_io.TripReader`. When the iterable exposes reader
    parse stats, malformed-row counts carry into the report.
    """
    sig, rough_cfg, bump_cfg = config.signal, config.roughness, config.bump
    fstate = make_filter(config.gravity.alpha)
    segbuf = SegmentBuffer(sig.segment_len)
    rstate = RoughnessState(
        forgetting=rough_cfg.forgetting,
        history_len=rough_cfg.history_len,
        alpha=config.gravity.alpha,
    )
    tracker = RoughEventTracker(hold_off=rough_cfg.hold_off_segments)
    candidates: list[tuple[LipschitzEstimate, int]] = []
    fixes: list[GpsFix] = []
    gap_ms = sig.reseed_gap_periods * sig.period_ms
    prev_t: int | None = None

    for kind, value in rows:
        if kind == "G":
            fixes.append(value)
            continue
        if prev_t is not None and value.t_ms - prev_t > gap_ms:
            fstate = reset_seed(fstate)
        prev_t = value.t_ms
        fstate, g = filter_step(fstate, value.ax, value.ay, value.az)
        seg = segbuf.push(value.t_ms, gravity_magnitude(g))
        if seg is None:
            continue

        try:
            coeffs = dwt(seg.values)
            rstate, level = classify_segment(
                rstate,
                coeffs,
                rough_cfg.sigma_normalization,
                rough_cfg.cost_thresholds,
                rough_cfg.alpha_schedule,
            )
            if rstate.alpha != fstate.alpha:
                fstate = set_alpha(fstate, rstate.alpha)
            tracker.observe(seg, level)
            est = lipschitz_algorithm1(coeffs, bump_cfg.peak_plateau_policy)
        except RoadSenseError as exc:
            raise type(exc)(f"segment {seg.index}: {exc}") from exc
        if est.valid:
            t_est = seg.t_start_ms + round(est.loc * sig.period_ms)
            candidates.append((est, t_est))
        if diagnostics is not None:
            diagnostics.append(_segment_diag(seg, coeffs, rstate, level, est, bump_cfg))

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
        try:
            speed = speed_at(fixes, t_ms, gps_cfg.earth_radius_m)
        except NoSpeedError:
            speed = None
        ev = detect_bump(est, speed, t_ms, bump_cfg)
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


def _segment_diag(seg, coeffs, rstate, level, est, bump_cfg) -> dict:
    diag = lipschitz_diagnostics(coeffs, bump_cfg.peak_plateau_policy)
    return {
        "segment": seg.index,
        "t_start_ms": seg.t_start_ms,
        "t_end_ms": seg.t_end_ms,
        "sigma_hat": estimate_sigma(coeffs).sigma_hat,
        "j_cost": cost(rstate),
        "alpha": rstate.alpha,
        "level": level,
        "valid": est.valid,
        "beta_hat": est.beta_hat if est.valid else None,
        "p1": est.p1 if est.valid else None,
        "p2": est.p2 if est.valid else None,
        "loc": est.loc if est.valid else None,
        "peaks1": diag["peaks1"],
        "peaks2": diag["peaks2"],
        "peaks3": diag["peaks3"],
    }


def analyze_trip_file(
    path: str,
    config: PipelineConfig,
    trip_id: str = "",
    device_id: str = "",
    diagnostics: list | None = None,
) -> TripReport:
    """Stream a trip CSV from disk through the pipeline."""
    with open(path, encoding="utf-8") as fh:
        reader = TripReader(fh)
        return analyze_trip_stream(reader, config, trip_id, device_id, diagnostics)
