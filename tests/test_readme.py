"""The README's library snippet runs and its config example loads."""
from __future__ import annotations

import json
import re
from pathlib import Path

from roadsense import generate_trip, load_config
from roadsense.synth import load_scenario

ROOT = Path(__file__).resolve().parent.parent


def _block(lang: str) -> str:
    text = (ROOT / "README.md").read_text("utf-8")
    [block] = re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)
    return block


def test_library_snippet_runs(tmp_path, monkeypatch):
    csv_text, _ = generate_trip(load_scenario(ROOT / "scenarios" / "six_bumps.yaml"))
    (tmp_path / "trip.csv").write_text(csv_text)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_block("python"), "README.md", "exec"), namespace)
    assert namespace["report"].trip_id == "demo"
    assert namespace["kept"] and namespace["dropped"] == []
    assert len(json.loads(namespace["map_json"])["clusters"]) == len(namespace["kept"])


def test_config_example_loads(tmp_path):
    path = tmp_path / "override.yaml"
    path.write_text(_block("yaml"))
    config = load_config(path)
    assert config.bump.min_speed_mps == 2.5
    assert config.aggregate.min_trips == 3
