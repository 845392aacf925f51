"""Golden outputs: reports, a map and a diagnostics stream, locked byte for byte.

Every scenario under ``scenarios/`` and the hour trip of acceptance criterion
10 (``golden/hour_trip.yaml``) is rendered with ``synth`` and run through
``analyze``. The five reports are merged with ``aggregate --min-trips 1``, and
``six_bumps`` is analyzed once more with ``--diagnostics``. Each output must
equal its file under ``tests/golden/`` byte for byte.

A change that alters any of these bytes alters behaviour. Only a change meant
to alter behaviour may regenerate the files, by running
``PYTHONPATH=src python tests/test_golden.py``, and it must say so, and why,
in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from roadsense.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
TRIPS = sorted((GOLDEN.parent.parent / "scenarios").glob("*.yaml")) + [GOLDEN / "hour_trip.yaml"]
DIAGNOSED = "six_bumps"


def render(work: Path) -> dict[str, bytes]:
    """Run the CLI over every golden input in ``work``; output name -> bytes."""
    reports = []
    for scenario in TRIPS:
        trip = work / f"{scenario.stem}.csv"
        report = work / f"{scenario.stem}.json"
        assert main(["synth", str(scenario), "--out", str(trip)]) == 0
        assert main(["analyze", str(trip), "--out", str(report)]) == 0
        reports.append(report)
    map_path = work / "map.json"
    assert main(["aggregate", *map(str, reports), "--min-trips", "1", "--out", str(map_path)]) == 0
    diagnostics = io.StringIO()
    with contextlib.redirect_stderr(diagnostics):
        assert main(["analyze", str(work / f"{DIAGNOSED}.csv"), "--diagnostics",
                     "--out", str(work / "diagnosed.json")]) == 0
    outputs = {p.name: p.read_bytes() for p in [*reports, map_path]}
    outputs[f"{DIAGNOSED}.diagnostics.jsonl"] = diagnostics.getvalue().encode("utf-8")
    return outputs


@pytest.fixture(scope="module")
def rendered(tmp_path_factory) -> dict[str, bytes]:
    return render(tmp_path_factory.mktemp("golden"))


def _golden_names() -> list[str]:
    return sorted(p.name for p in GOLDEN.iterdir() if p.suffix in (".json", ".jsonl"))


def test_golden_file_set(rendered):
    assert sorted(rendered) == _golden_names()


@pytest.mark.parametrize("name", _golden_names())
def test_output_matches_golden(rendered, name):
    assert rendered[name] == (GOLDEN / name).read_bytes(), f"{name} differs from its golden file"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, data in render(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name} ({len(data)} bytes)", file=sys.stderr)
