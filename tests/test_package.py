"""The package ships only what the command line runs."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import roadsense

PACKAGE = Path(roadsense.__file__).resolve().parent

PROBE = """
import sys
import roadsense.cli
print(*(m for m in sys.modules if m == "roadsense" or m.startswith("roadsense.")))
"""


def test_cli_import_loads_every_module():
    # A module nothing imports (a test-only reference, say) belongs in tests/.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    modules = {f"roadsense.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert set(run.stdout.split()) == modules | {"roadsense"}
