"""Command-line interface.

Subcommands: ``analyze`` runs one trip file through the pipeline and writes
its canonical report; ``aggregate`` folds reports into a hazard map;
``synth`` renders a scenario to a trip file plus its ground-truth labels.

Exit codes: 0 success, 2 format-level problems (header, config, scenario,
usage), 3 corrupt trip content.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .aggregate import cluster_events, prune_isolated, write_map
from .config import SCHEMA_VERSION, load_config
from .errors import ConfigError, CorruptTripError, RoadSenseError, TripFormatError
from .pipeline import analyze_trip_file
from .trip_io import parse_report

ENV_CONFIG = "ROADSENSE_CONFIG"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadsense",
        description="Road roughness and bump detection from phone sensor trip logs.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"roadsense {__version__} (config schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one trip CSV into a report")
    p.add_argument("trip", help="trip CSV file")
    p.add_argument("--config", help=f"config YAML overriding defaults (or ${ENV_CONFIG})")
    p.add_argument("--out", help="report file (default: stdout)")
    p.add_argument("--diagnostics", action="store_true", help="per-window JSONL on stderr")
    p.add_argument("--trip-id", help="trip identifier (default: file stem)")
    p.add_argument("--device-id", default="", help="device identifier for the report")

    p = sub.add_parser("aggregate", help="merge trip reports into a hazard map")
    p.add_argument("reports", nargs="+", help="trip report files")
    p.add_argument("--out", required=True, help="hazard map file")
    p.add_argument("--config", help="config YAML overriding defaults")
    p.add_argument("--radius", type=float, help="cluster radius in metres")
    p.add_argument("--min-trips", type=int, help="distinct trips needed to confirm")

    p = sub.add_parser("synth", help="render a scenario to a synthetic trip")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--out", required=True, help="trip CSV path; labels go next to it")
    return parser


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _config_path(flag_value: str | None) -> str | None:
    # An empty environment value means no file, as if the variable were unset.
    return flag_value if flag_value is not None else os.environ.get(ENV_CONFIG) or None


def _write_diagnostic(entry: dict) -> None:
    sys.stderr.write(json.dumps(entry, sort_keys=True) + "\n")


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .trip_io import write_report

    config = load_config(_config_path(args.config))
    trip_id = args.trip_id if args.trip_id is not None else Path(args.trip).stem
    report = analyze_trip_file(
        args.trip,
        config,
        trip_id=trip_id,
        device_id=args.device_id,
        diagnostics=_write_diagnostic if args.diagnostics else None,
    )
    _write(args.out, write_report(report))
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    flags = {"cluster_radius_m": args.radius, "min_trips": args.min_trips}
    config = load_config(
        _config_path(args.config),
        {"aggregate": {key: value for key, value in flags.items() if value is not None}},
    )
    reports = []
    for path in args.reports:
        reports.append(parse_report(Path(path).read_text("utf-8")))
    clusters = cluster_events(reports, config.aggregate.cluster_radius_m)
    kept, dropped = prune_isolated(clusters, config.aggregate.min_trips)
    _write(args.out, write_map(kept, dropped))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    # Only this subcommand needs the scenario types, so analyze and aggregate skip them.
    from .synth import generate_trip, load_scenario

    scenario = load_scenario(Path(args.scenario))
    csv_text, labels_text = generate_trip(scenario)
    _write(args.out, csv_text)
    _write(str(Path(args.out).with_suffix(".labels.json")), labels_text)
    return 0


_COMMANDS = {"analyze": _cmd_analyze, "aggregate": _cmd_aggregate, "synth": _cmd_synth}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CorruptTripError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (TripFormatError, ConfigError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, RoadSenseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
