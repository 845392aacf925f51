"""The package ships only what the command line runs."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import roadsense
from roadsense import Scenario, errors, generate_trip

PACKAGE = Path(roadsense.__file__).resolve().parent

PROBE = """
import sys
import roadsense.cli

def loaded():
    return ",".join(m for m in sys.modules if m == "roadsense" or m.startswith("roadsense."))

roadsense.cli.load_config()
print(loaded())
roadsense.Scenario
print(loaded())
"""


def test_cli_import_loads_every_module():
    # A module nothing imports (a test-only reference, say) belongs in tests/.
    # The command line starts without synth, which loads on first use of a
    # scenario name, so analyze and aggregate never pay for it.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    at_start, after_synth = (set(line.split(",")) for line in run.stdout.split())
    modules = {f"roadsense.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert at_start == modules - {"roadsense.synth"} | {"roadsense"}
    assert after_synth == modules | {"roadsense"}


NUMPY_PROBE = """
import sys
import roadsense.cli
from roadsense.config import load_config
load_config()
trip, report, hazard_map = sys.argv[1:]
assert roadsense.cli.main(["analyze", trip, "--out", report]) == 0
assert roadsense.cli.main(["aggregate", report, "--out", hazard_map, "--min-trips", "1"]) == 0
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")))
"""


def test_command_line_never_imports_numpy(tmp_path):
    # Only synthesis needs numpy; analyze and aggregate start without it.
    trip = tmp_path / "trip.csv"
    trip.write_text(generate_trip(Scenario(name="probe", duration_s=12.0))[0])
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(trip), str(tmp_path / "r.json"),
         str(tmp_path / "map.json")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout.split() == ["[]"]
    assert (tmp_path / "map.json").exists()


def test_every_error_class_is_raised():
    # An exception class the package never raises nor derives from is dead.
    used = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.add(getattr(exc, "id", None))
            elif isinstance(node, ast.ClassDef):
                used.update(getattr(base, "id", None) for base in node.bases)
    classes = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.RoadSenseError)
    }
    assert sorted(classes - used - {"RoadSenseError"}) == []
