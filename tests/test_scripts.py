"""Smoke test: the calibration script runs against the current library."""
from __future__ import annotations

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_beta_max.py"


def test_calibrate_beta_max_runs(capsys):
    spec = importlib.util.spec_from_file_location("calibrate_beta_max", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main([]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^worst-case bump exponent: [+-]\d+\.\d{3}$", out, flags=re.M)
