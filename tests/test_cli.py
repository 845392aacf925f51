from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from roadsense import Scenario, generate_trip
from roadsense.cli import main
from roadsense.events import RoadEvent, TripReport
from roadsense.trip_io import parse_report, write_report


def _trip_file(tmp_path, name="mytrip.csv", duration_s=12.0):
    csv_text, _ = generate_trip(Scenario(name="cli", duration_s=duration_s))
    path = tmp_path / name
    path.write_text(csv_text)
    return path


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "roadsense 0.1.0 (config schema 1)"


def test_analyze_writes_report(tmp_path):
    trip = _trip_file(tmp_path)
    out = tmp_path / "report.json"
    assert main(["analyze", str(trip), "--out", str(out)]) == 0
    report = parse_report(out.read_text())
    assert report.trip_id == "mytrip"
    assert report.stats.segments == 18


def test_analyze_stdout_and_flags(tmp_path, capsys):
    trip = _trip_file(tmp_path)
    assert main(["analyze", str(trip), "--trip-id", "abc", "--device-id", "dev1"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert report.trip_id == "abc" and report.device_id == "dev1"


def test_analyze_bad_header_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,x,y,z\n1,2,3,4\n")
    assert main(["analyze", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_corrupt_trip_exits_3(tmp_path, capsys):
    rows = ["A,%d,0,0,9.8" % (20 * i) for i in range(50)] + ["junk"] * 5
    bad = tmp_path / "corrupt.csv"
    bad.write_text("type,t_ms,a,b,c\n" + "\n".join(rows) + "\n")
    assert main(["analyze", str(bad)]) == 3


def test_analyze_missing_file_exits_1(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.csv")]) == 1


def test_analyze_diagnostics_jsonl(tmp_path, capsys):
    trip = _trip_file(tmp_path)
    out = tmp_path / "report.json"
    assert main(["analyze", str(trip), "--out", str(out), "--diagnostics"]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert len(lines) == 18
    entry = json.loads(lines[0])
    assert entry["segment"] == 0 and "beta_hat" in entry


def test_analyze_diagnostics_stream_before_a_failure(tmp_path, capsys):
    # Time goes backwards after three whole windows: those three windows'
    # lines are already out when the trip fails.
    rows = ["A,%d,0,0,9.8" % (20 * i) for i in range(100)] + ["A,0,0,0,9.8"]
    bad = tmp_path / "backwards.csv"
    bad.write_text("type,t_ms,a,b,c\n" + "\n".join(rows) + "\n")
    assert main(["analyze", str(bad), "--diagnostics"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(ln)["segment"] for ln in lines[:-1]] == [0, 1, 2]
    assert lines[-1].startswith("error: ")


def test_config_env_var_and_flag_precedence(tmp_path, monkeypatch, capsys):
    trip = _trip_file(tmp_path)
    broken = tmp_path / "broken.yaml"
    broken.write_text("no_such_section: 1\n")
    fine = tmp_path / "fine.yaml"
    fine.write_text("bump:\n  beta_max: 0.7\n")

    monkeypatch.setenv("ROADSENSE_CONFIG", str(broken))
    assert main(["analyze", str(trip), "--out", str(tmp_path / "r.json")]) == 2
    # An explicit --config must win over the environment.
    assert main(["analyze", str(trip), "--out", str(tmp_path / "r.json"),
                 "--config", str(fine)]) == 0


@pytest.mark.parametrize(
    "override",
    ["bump:\n  beta_max: .nan\n", "signal:\n  sample_rate_hz: .inf\n"],
    ids=["beta-max-nan", "sample-rate-inf"],
)
def test_analyze_non_finite_config_exits_2(tmp_path, capsys, override):
    trip = _trip_file(tmp_path)
    cfg = tmp_path / "nonfinite.yaml"
    cfg.write_text(override)
    out = tmp_path / "r.json"
    assert main(["analyze", str(trip), "--out", str(out), "--config", str(cfg)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_empty_config_env_var_means_no_file(tmp_path, monkeypatch):
    # ROADSENSE_CONFIG= counts as unset: the packaged defaults apply.
    trip = _trip_file(tmp_path)
    assert main(["analyze", str(trip), "--out", str(tmp_path / "plain.json")]) == 0
    monkeypatch.setenv("ROADSENSE_CONFIG", "")
    assert main(["analyze", str(trip), "--out", str(tmp_path / "r.json")]) == 0
    assert (tmp_path / "r.json").read_text() == (tmp_path / "plain.json").read_text()
    out = tmp_path / "map.json"
    assert main(["aggregate", str(tmp_path / "r.json"), "--out", str(out)]) == 0


def test_synth_renders_trip_and_labels(tmp_path):
    scn = tmp_path / "scn.yaml"
    scn.write_text("name: s\nduration_s: 8\nbumps:\n  - [3.0, 1.5, 6]\n")
    out = tmp_path / "trip.csv"
    assert main(["synth", str(scn), "--out", str(out)]) == 0
    assert out.read_text().startswith("type,t_ms,a,b,c\n")
    labels = json.loads((tmp_path / "trip.labels.json").read_text())
    assert labels["bumps"][0]["t_ms"] == 3000


def test_synth_bad_scenario_exits_2(tmp_path, capsys):
    scn = tmp_path / "scn.yaml"
    scn.write_text("duration_s: -4\n")
    assert main(["synth", str(scn), "--out", str(tmp_path / "t.csv")]) == 2


def _report_file(tmp_path, trip_id: str, lat: float) -> str:
    ev = RoadEvent(kind="bump", t_start_ms=0, t_end_ms=0, intensity=-2.0,
                   trip_id=trip_id, lat=lat, lon=11.0)
    rep = TripReport(trip_id=trip_id, device_id="d", sample_rate_hz=50.0, events=[ev])
    path = tmp_path / f"{trip_id}.json"
    path.write_text(write_report(rep))
    return str(path)


def test_aggregate_honors_min_trips(tmp_path):
    paths = [
        _report_file(tmp_path, "t1", 48.0),
        _report_file(tmp_path, "t2", 48.0),
        _report_file(tmp_path, "t3", 49.0),
    ]
    out = tmp_path / "map.json"
    assert main(["aggregate", *paths, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["clusters"]) == 1
    assert len(payload["discarded"]) == 1

    assert main(["aggregate", *paths, "--out", str(out), "--min-trips", "1"]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["clusters"]) == 2 and payload["discarded"] == []


@pytest.mark.parametrize(
    "flags",
    [
        ["--radius", "-1"],
        ["--radius", "0"],
        ["--radius", "nan"],
        ["--radius", "inf"],
        ["--min-trips", "0"],
    ],
    ids=["radius-negative", "radius-zero", "radius-nan", "radius-inf", "min-trips-zero"],
)
def test_aggregate_rejects_out_of_range_flags(tmp_path, capsys, flags):
    # Flags obey the same rules as the config keys they override.
    paths = [_report_file(tmp_path, "t1", 48.0), _report_file(tmp_path, "t2", 48.0)]
    out = tmp_path / "map.json"
    assert main(["aggregate", *paths, "--out", str(out), *flags]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_aggregate_rejects_duplicate_trip_ids(tmp_path, capsys):
    # Two trips both named after their file stem must not count as one trip.
    paths = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        paths.append(_report_file(tmp_path / folder, "monday", 48.0))
    out = tmp_path / "map.json"
    assert main(["aggregate", *paths, "--out", str(out)]) == 2
    assert "'monday'" in capsys.readouterr().err
    assert not out.exists()


def test_aggregate_rejects_non_report(tmp_path, capsys):
    bogus = tmp_path / "x.json"
    bogus.write_text("{}")
    assert main(["aggregate", str(bogus), "--out", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize(
    "event, header",
    [
        pytest.param({"intensity": math.nan}, {}, id="intensity-nan"),
        pytest.param({"lat": "1.0", "intensity": "2"}, {}, id="numbers-as-strings"),
        pytest.param({"lat": 95.0, "lon": 400.0}, {}, id="coordinates-out-of-range"),
        pytest.param({"intensity": True}, {}, id="intensity-bool"),
        pytest.param({"t_start_ms": 1.5, "t_end_ms": 1.5}, {}, id="time-not-integer"),
        pytest.param({"lat": None}, {}, id="only-lat-null"),
        pytest.param({}, {"sample_rate_hz": math.inf}, id="rate-infinite"),
        pytest.param({}, {"trip_id": 7}, id="trip-id-number"),
        pytest.param({}, {"device_id": 7}, id="device-id-number"),
        pytest.param({}, {"sample_rate_hz": -5.0}, id="rate-negative"),
        pytest.param({}, {"sample_rate_hz": 0.0}, id="rate-zero"),
        pytest.param({}, {"stats": {"segments": 1.5, "dropped_samples": 0,
                                    "malformed_rows": 0, "gps_gaps": 0}}, id="count-not-integer"),
        pytest.param({}, {"stats": {"segments": -3, "dropped_samples": 0,
                                    "malformed_rows": 0, "gps_gaps": 0}}, id="count-negative"),
        pytest.param({"kind": "rough", "intensity": 1.5}, {}, id="rough-level-fractional"),
        pytest.param({"kind": "pothole"}, {}, id="kind-unknown"),
        pytest.param({"t_start_ms": 2000, "t_end_ms": 1000}, {}, id="ends-before-start"),
    ],
)
def test_aggregate_rejects_malformed_report(tmp_path, capsys, event, header):
    path = tmp_path / "t1.json"
    payload = json.loads(Path(_report_file(tmp_path, "t1", 48.0)).read_text())
    payload["events"][0].update(event)
    payload.update(header)
    path.write_text(json.dumps(payload))
    out = tmp_path / "map.json"
    assert main(["aggregate", str(path), "--min-trips", "1", "--out", str(out)]) == 2
    assert "not a valid trip report" in capsys.readouterr().err
    assert not out.exists()
