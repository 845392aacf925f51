"""Layer spans for the traced run, recorded from outside the program.

The tracer replaces public functions under the names the calling modules
import them by (``cli``, ``pipeline``, ``aggregate``, plus ``trip_io`` for
the report writer ``cli`` imports late), and wraps the row iterator handed
to ``analyze_trip_stream``. Spans stay in memory: name, first start, last
end, summed duration, call count, parent span and operation id. Calls with
the same operation, name and parent add up into one span, so a per-sample
layer costs one record per operation, not one per sample.

A layer's self time is its summed duration minus that of its child spans;
summed over every span of an operation, self times equal the root span's
duration. A target missing from the program (renamed or removed by a later
change) is reported as absent and the run goes on without it.
"""
from __future__ import annotations

import importlib
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from time import perf_counter

ROOT = "cli.self_s"

# (span, module, attribute, calls counter). The span is the per-layer metric
# that receives the layer's self time.
FUNCTION_LAYERS = [
    ("config.load_s", "cli", "load_config", None),
    ("pipeline.self_s", "cli", "analyze_trip_file", None),
    ("gravity_filter.s", "pipeline", "filter_step", "gravity_filter.calls"),
    ("gravity_filter.s", "pipeline", "gravity_magnitude", None),
    ("gravity_filter.s", "pipeline", "set_alpha", "gravity_filter.alpha_switches"),
    ("gravity_filter.s", "pipeline", "reset_seed", "gravity_filter.reseeds"),
    ("wavelet.dwt_s", "pipeline", "dwt", None),
    ("roughness.classify_s", "pipeline", "classify_segment", None),
    ("bump.exponent_s", "pipeline", "lipschitz_algorithm1", None),
    ("geo.speed_s", "pipeline", "speed_at", "geo.calls"),
    ("geo.locate_s", "pipeline", "locate_event", "geo.calls"),
    ("bump.gate_s", "pipeline", "detect_bump", "bump.candidates"),
    ("bump.merge_s", "pipeline", "merge_events", None),
    ("trip_io.write_s", "trip_io", "write_report", None),
    ("trip_io.parse_report_s", "cli", "parse_report", None),
    ("aggregate.cluster_s", "cli", "cluster_events", None),
    ("aggregate.prune_s", "cli", "prune_isolated", None),
    ("aggregate.write_map_s", "cli", "write_map", None),
]
# Wrapped specially: the row iterator, the window buffer, and distance calls
# (counted only, since one aggregate makes millions of them).
ROWS_TARGET = ("pipeline", "analyze_trip_stream")
WINDOW_TARGET = ("pipeline", "SegmentBuffer")
DISTANCE_TARGET = ("aggregate", "haversine_m")

SPAN_METRICS = sorted(
    {span for span, *_ in FUNCTION_LAYERS}
    | {ROOT, "trip_io.parse_s", "signal_core.window_s"}
)
COUNT_METRICS = [
    "trip_io.rows",
    "gravity_filter.calls",
    "gravity_filter.alpha_switches",
    "gravity_filter.reseeds",
    "signal_core.windows",
    "signal_core.dropped_samples",
    "geo.calls",
    "bump.candidates",
    "bump.events",
    "aggregate.distance_calls",
    "aggregate.clusters",
    "aggregate.confirmed",
]

# Counters fed from a wrapped function's result.
_RESULT_COUNTERS = {
    "merge_events": ("bump.events", len),
    "cluster_events": ("aggregate.clusters", len),
    "prune_isolated": ("aggregate.confirmed", lambda kept_dropped: len(kept_dropped[0])),
}


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    dur: float = 0.0
    calls: int = 0


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op = 0
        self._stack: list[Span] = []
        self._index: dict[tuple[int, str, int | None], Span] = {}

    def enter(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        key = (self.op, name, parent)
        span = self._index.get(key)
        if span is None:
            span = Span(len(self.spans), name, self.op, parent)
            self.spans.append(span)
            self._index[key] = span
        self._stack.append(span)
        return span

    def exit(self, span: Span, t0: float, t1: float) -> None:
        self._stack.pop()
        if span.calls == 0:
            span.start = t0
        span.end = t1
        span.dur += t1 - t0
        span.calls += 1

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.op, name)] += n

    def wrap(self, name: str, fn, counter: str | None = None, on_result=None):
        """``fn`` timed as span ``name``; counts calls and results if asked."""

        def traced(*args, **kwargs):
            span = self.enter(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(span, t0, perf_counter())
            if counter is not None:
                self.count(counter)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def self_times(self, op: int) -> dict[str, float]:
        """Self time per span name within one operation."""
        spans = [s for s in self.spans if s.op == op]
        child_dur: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_dur[s.parent] += s.dur
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s.name] += s.dur - child_dur[s.id]
        return dict(out)

    def root_time(self, op: int) -> float:
        return sum(s.dur for s in self.spans if s.op == op and s.parent is None)


class _TimedRows:
    """Row iterator that times each row the reader yields as trip parsing."""

    def __init__(self, tracer: Tracer, rows) -> None:
        self._tracer = tracer
        self._rows = rows

    def __getattr__(self, name):
        # Reader attributes (parse stats) stay visible to the pipeline.
        return getattr(self._rows, name)

    def __iter__(self):
        tracer = self._tracer
        it = iter(self._rows)
        n = 0
        try:
            while True:
                span = tracer.enter("trip_io.parse_s")
                t0 = perf_counter()
                try:
                    row = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit(span, t0, perf_counter())
                n += 1
                yield row
        finally:
            tracer.count("trip_io.rows", n)


def _timed_rows_stream(tracer: Tracer, fn):
    def traced(rows, *args, **kwargs):
        report = fn(_TimedRows(tracer, rows), *args, **kwargs)
        tracer.count("signal_core.dropped_samples", report.stats.dropped_samples)
        return report

    return traced


def _timed_window_buffer(tracer: Tracer, cls):
    class TimedSegmentBuffer(cls):
        def push(self, *args, **kwargs):
            span = tracer.enter("signal_core.window_s")
            t0 = perf_counter()
            try:
                seg = super().push(*args, **kwargs)
            finally:
                tracer.exit(span, t0, perf_counter())
            if seg is not None:
                tracer.count("signal_core.windows")
            return seg

    return TimedSegmentBuffer


def _count_result(tracer: Tracer, counter: str, size, result) -> None:
    tracer.count(counter, size(result))


def _counted(tracer: Tracer, counter: str, fn):
    def counted(*args, **kwargs):
        tracer.count(counter)
        return fn(*args, **kwargs)

    return counted


class Instrumentation:
    """Installs the tracer's wrappers into the program and restores them.

    ``absent`` lists the ``module.attribute`` targets the program does not
    have; their layers report nothing.
    """

    def __init__(self, tracer: Tracer, package: str = "roadsense") -> None:
        self.tracer = tracer
        self.package = package
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"{self.package}.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def __enter__(self) -> "Instrumentation":
        t = self.tracer
        for span, module, attr, counter in FUNCTION_LAYERS:
            on_result = None
            if attr in _RESULT_COUNTERS:
                name, size = _RESULT_COUNTERS[attr]
                on_result = partial(_count_result, t, name, size)
            self._patch(module, attr, partial(t.wrap, span, counter=counter, on_result=on_result))
        self._patch(*ROWS_TARGET, lambda fn: _timed_rows_stream(t, fn))
        self._patch(*WINDOW_TARGET, lambda cls: _timed_window_buffer(t, cls))
        self._patch(*DISTANCE_TARGET, lambda fn: _counted(t, "aggregate.distance_calls", fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
