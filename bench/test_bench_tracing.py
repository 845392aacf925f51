"""The traced run: layer accounting, counts, and targets missing from the program."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from roadsense import cli, pipeline
from roadsense.synth import BumpSpec, Scenario, SpeedPoint, generate_trip

SECONDS = 20
SAMPLES = SECONDS * 50
FIXES = SECONDS + 1


@pytest.fixture
def trip(tmp_path):
    scn = Scenario(
        name="short",
        duration_s=float(SECONDS),
        noise_sigma_g=0.01,
        bumps=(BumpSpec(8.0, 1.5, 6),),
        speed_profile=(SpeedPoint(0.0, 5.0),),
        rng_seed=3,
    )
    csv_text, _ = generate_trip(scn)
    path = tmp_path / "short.csv"
    path.write_text(csv_text)
    return path


def traced_analyze(trip: Path):
    tracer = tracing.Tracer()
    tracer.op = 1
    out = trip.with_suffix(".json")
    with tracing.Instrumentation(tracer) as inst:
        code = tracer.wrap(tracing.ROOT, cli.main)(["analyze", str(trip), "--out", str(out)])
    assert code == 0
    return tracer, inst, json.loads(out.read_text())


def test_self_times_account_for_the_operation(trip):
    tracer, inst, report = traced_analyze(trip)
    assert inst.absent == []
    selfs = tracer.self_times(1)
    for name in tracing.SPAN_METRICS:
        if not name.startswith("aggregate.") and name != "trip_io.parse_report_s":
            assert selfs[name] > 0.0, name
    assert sum(selfs.values()) == pytest.approx(tracer.root_time(1), rel=1e-9)
    counts = {name: n for (op, name), n in tracer.counts.items() if op == 1}
    assert counts["trip_io.rows"] == SAMPLES + FIXES
    assert counts["gravity_filter.calls"] == SAMPLES
    assert counts["signal_core.windows"] == report["stats"]["segments"] == SAMPLES // 32
    assert counts["signal_core.dropped_samples"] == SAMPLES % 32
    bumps = [e for e in report["events"] if e["kind"] == "bump"]
    assert counts["bump.events"] == len(bumps)
    # One speed lookup per candidate, one location per gated bump or rough event.
    rough = len(report["events"]) - len(bumps)
    assert counts["bump.candidates"] <= counts["geo.calls"] <= 2 * counts["bump.candidates"] + rough


def test_instrumentation_restores_the_program(trip):
    originals = (pipeline.filter_step, pipeline.SegmentBuffer, cli.load_config)
    traced_analyze(trip)
    assert (pipeline.filter_step, pipeline.SegmentBuffer, cli.load_config) == originals


def test_missing_target_is_marked_absent_and_the_run_goes_on(trip, monkeypatch):
    monkeypatch.delattr(cli, "parse_report")
    tracer, inst, report = traced_analyze(trip)
    assert inst.absent == ["cli.parse_report"]
    assert report["stats"]["segments"] == SAMPLES // 32
    assert "trip_io.parse_report_s" not in tracer.self_times(1)
    assert tracer.self_times(1)["gravity_filter.s"] > 0.0


def test_benchmark_fails_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parent
    (tmp_path / "bench").mkdir()
    for f in bench.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "city_map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert out.returncode != 0
    assert out.stdout == ""
    assert "cannot import the program" in out.stderr
