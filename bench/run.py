"""roadsense benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload hour_trip --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file, and scratch files go to ``.bench_work/`` there and
are removed at exit. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1`` they
are the per-layer ones from a traced run. Lines before it give every metric
of the workload by name with its unit, the layer table when traced, the
failed checks, and the machine and code state. See bench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads
from workloads import Result

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 3
SETUP_SPAWNS = 11
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import roadsense.cli\n"
    "from roadsense.config import load_config\n"
    "load_config()\n"
    "print(time.perf_counter() - t0)\n"
)
# VmHWM is the peak resident set of this process's own address space; the
# rusage maximum would also count the parent's pages at fork time.
RSS_CODE = (
    "import json, sys\n"
    "from roadsense import cli\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    if cli.main(argv) != 0:\n"
    "        sys.exit(1)\n"
    "with open('/proc/self/status') as fh:\n"
    "    print(next(ln.split()[1] for ln in fh if ln.startswith('VmHWM:')))\n"
)

# The --trace 0 line holds only the metrics that apply to every workload;
# the table before it shows all of ALL_METRICS, "n/a" where one does not apply.
END_TO_END = ["setup_s", "wall_s", "peak_rss_mb"]
PER_LAYER = tracing.SPAN_METRICS + tracing.COUNT_METRICS + [
    "bump.useful_ratio", "trace.wall_s", "trace.overhead_s", "trace.absent_layers",
]
ALL_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "map_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "bump_recall": "ratio",
    "false_bump_s_per_h": "s/h",
    "false_bumps_per_h": "1/h",
    "rough_onset_err_s": "s",
    "hazard_recall": "ratio",
    "false_hazards": "count",
    "error_rate": "ratio",
}


def _load_program() -> SimpleNamespace:
    if not (SRC / "roadsense" / "__init__.py").is_file():
        raise ImportError(f"no roadsense package under {SRC}")
    sys.path.insert(0, str(SRC))
    from roadsense import cli
    from roadsense.events import RoadEvent, TripReport, TripStats
    from roadsense.synth import BumpSpec, RoughPatch, Scenario, SpeedPoint, generate_trip
    from roadsense.trip_io import parse_report, write_report

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"roadsense imported from {cli.__file__}, not {SRC}")
    return SimpleNamespace(
        cli=cli, parse_report=parse_report, write_report=write_report,
        RoadEvent=RoadEvent, TripReport=TripReport, TripStats=TripStats,
        Scenario=Scenario, RoughPatch=RoughPatch, BumpSpec=BumpSpec,
        SpeedPoint=SpeedPoint, generate_trip=generate_trip,
    )


def _fresh_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports from src/."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=150,
    )
    return out.stdout.strip()


def setup_time() -> float:
    """Time a fresh interpreter takes to import roadsense and load config."""
    return float(_fresh_python(SETUP_CODE))


def machine(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    lines = sum(p.read_text("utf-8").count("\n") for p in SRC.rglob("*.py"))
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "src_lines": lines,
    }


class Runner:
    """Runs operations of one workload and checks each one's outputs."""

    def __init__(self, wl: workloads.Workload, rs: SimpleNamespace) -> None:
        self.wl = wl
        self.rs = rs
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def op(self, call) -> tuple[float, Result | None]:
        gc.collect()
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = self.wl.run(call)
        except (Exception, SystemExit):  # argparse exits on a rejected command line
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=3))
            return perf_counter() - t0, None
        wall = perf_counter() - t0
        problems = self.wl.check(result, self.rs.parse_report)
        if problems:
            self.failed += 1
            self.failures.extend(problems)
        return wall, result

    def loop(self, seconds: float, call, between=None) -> list[tuple[float, Result | None]]:
        """Operations for ``seconds`` of operation time, at least MIN_OPS.

        ``between`` runs after each operation; its time does not count.
        """
        done = []
        spent = 0.0
        while spent < seconds or len(done) < MIN_OPS:
            done.append(self.op(call))
            spent += done[-1][0]
            if between is not None:
                between()
        return done


def end_to_end(runner: Runner, seconds: float) -> dict:
    wl = runner.wl
    # Set-up is timed between operations, so that its median, like wall_s,
    # spans the whole run rather than one moment of a shared machine.
    setups: list[float] = []
    setup_time()  # the first interpreter also compiles bytecode; not counted
    loop = runner.loop(seconds, runner.rs.cli.main, lambda: setups.append(setup_time()))
    ops = [(w, r) for w, r in loop if r is not None]
    setups += [setup_time() for _ in range(SETUP_SPAWNS - len(setups))]
    out: dict = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb(runner)}
    if ops:
        walls = [w for w, _ in ops]
        out["wall_s"] = statistics.median(walls)
        out["walls"] = walls
        if wl.trips:
            out["samples_per_s"] = wl.samples / out["wall_s"]
        if wl.map_inputs:
            out["map_s"] = statistics.median(r.map_s for _, r in ops)
            out["events_per_s"] = located_events(wl, ops[-1][1]) / out["map_s"]
        out.update(wl.quality(ops[-1][1]))
    out["error_rate"] = runner.failed / runner.attempted
    return out


def peak_traced_mb(runner: Runner) -> float:
    """tracemalloc peak of one operation, in a pass of its own.

    tracemalloc slows allocation-heavy code several times over (about 4x
    for the hour trip, 14x for city_map's cluster scan), so it runs only in
    the traced run and only where an analysis runs.
    """
    gc.collect()
    tracemalloc.start()
    try:
        runner.op(runner.rs.cli.main)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def located_events(wl: workloads.Workload, result: Result) -> int:
    return wl.located_events + sum(
        1 for raw in result.reports for e in json.loads(raw)["events"] if e["lat"] is not None
    )


def peak_rss_mb(runner: Runner) -> float | None:
    """Peak resident memory of a fresh process running one operation."""
    wl = runner.wl
    runner.attempted += 1
    try:
        kib = int(_fresh_python(RSS_CODE, json.dumps(wl.commands())))
    except (subprocess.SubprocessError, ValueError):
        runner.failed += 1
        runner.failures.append("peak memory pass: " + traceback.format_exc(limit=1))
        return None
    problems = wl.check(wl.collect(), runner.rs.parse_report)
    if problems:
        runner.failed += 1
        runner.failures.extend(problems)
    return kib * 1024 / 1e6


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list, list]:
    main = runner.rs.cli.main
    untraced = [w for w, r in runner.loop(seconds / 2, main) if r is not None]
    tracer = tracing.Tracer()
    rows: list[dict] = []
    traced_main = tracer.wrap(tracing.ROOT, main)
    with tracing.Instrumentation(tracer) as inst:
        deadline = perf_counter() + seconds / 2
        while perf_counter() < deadline or tracer.op < MIN_OPS:
            tracer.op += 1
            wall, result = runner.op(traced_main)
            if result is None:
                continue
            op = tracer.op
            row = {name: 0.0 for name in tracing.SPAN_METRICS}
            row.update(tracer.self_times(op))
            for name in tracing.COUNT_METRICS:
                row[name] = tracer.counts.get((op, name), 0)
            row["bump.useful_ratio"] = (
                row["bump.events"] / row["bump.candidates"] if row["bump.candidates"] else 0.0
            )
            row["trace.wall_s"] = wall
            row["trace.accounted_s"] = tracer.root_time(op)
            rows.append(row)
    layers = {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}
    if rows and untraced:
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(untraced)
    layers["trace.absent_layers"] = len(inst.absent)
    return layers, inst.absent, rows


def unit_of(name: str) -> str:
    if name in ALL_METRICS:
        return ALL_METRICS[name]
    if name.endswith("_s") or name == "gravity_filter.s":
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        rs = _load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        info = machine(args.seed)
        t0 = perf_counter()
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed, rs)
        info["input_s"] = perf_counter() - t0
        runner = Runner(wl, rs)
        print(f"roadsense bench  workload={args.workload}  trace={args.trace}")
        print("machine " + json.dumps(info, sort_keys=True))
        if args.trace:
            layers, absent, rows = per_layer(runner, args.seconds)
            wall = layers.get("trace.wall_s") or float("nan")
            print(f"traced operations: {len(rows)}; median per operation:")
            for name in sorted(layers):
                share = f"{100 * layers[name] / wall:5.1f}%" if unit_of(name) == "s" else ""
                print(f"  {name:28s} {_fmt(layers[name]):>12s} {unit_of(name):6s} {share}")
            for target in absent:
                print(f"  absent: {target} (layer not traced)")
            if wl.trips:
                print(f"  {'peak_mem_mb':28s} {_fmt(peak_traced_mb(runner)):>12s} MB")
            chosen = {n: layers.get(n) for n in PER_LAYER}
        else:
            measured = end_to_end(runner, args.seconds)
            walls = measured.get("walls", [])
            print(f"operations timed: {len(walls)}; walls {[round(w, 4) for w in walls]} s")
            for name, unit in ALL_METRICS.items():
                print(f"  {name:22s} {_fmt(measured.get(name)):>12s} {unit}")
            chosen = {n: measured.get(n) for n in END_TO_END}
        for failure in runner.failures:
            print("FAILED: " + failure.rstrip())
        missing = [n for n, v in chosen.items() if v is None]
        if missing:
            print(f"error: not measured: {', '.join(missing)}", file=sys.stderr)
            return 1
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in chosen.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
