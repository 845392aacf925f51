from __future__ import annotations

import json
import math

import numpy as np
import pytest

from roadsense.errors import ScenarioError
from roadsense.synth import (
    BumpSpec,
    RoughPatch,
    Scenario,
    SpeedPoint,
    _pulse,
    generate_trip,
    load_scenario,
)
from roadsense.trip_io import TripReader


def _fixes(csv_text: str) -> list:
    return [value for kind, value in TripReader(csv_text) if kind == "G"]


def _accel_rows(csv_text: str) -> np.ndarray:
    rows = [ln.split(",") for ln in csv_text.splitlines()[1:] if ln.startswith("A,")]
    return np.array([[float(f) for f in r[2:]] for r in rows])


def test_same_seed_is_byte_identical():
    scn = Scenario(name="s", duration_s=20.0, noise_sigma_g=0.02, rng_seed=7)
    assert generate_trip(scn) == generate_trip(scn)


def test_different_seed_differs():
    a = generate_trip(Scenario(name="s", duration_s=20.0, noise_sigma_g=0.02, rng_seed=1))
    b = generate_trip(Scenario(name="s", duration_s=20.0, noise_sigma_g=0.02, rng_seed=2))
    assert a[0] != b[0]


def test_quiet_scenario_is_flat():
    csv_text, labels_text = generate_trip(Scenario(name="q", duration_s=10.0))
    axes = _accel_rows(csv_text)
    assert axes.shape == (500, 3)
    assert np.all(axes[:, :2] == 0.0)
    assert np.all(axes[:, 2] == 9.8)
    labels = json.loads(labels_text)
    assert labels["rough"] == [] and labels["bumps"] == []


def test_labels_record_ground_truth():
    scn = Scenario(
        name="lbl",
        duration_s=60.0,
        rough=(RoughPatch(10.0, 20.0, 4.0),),
        bumps=(BumpSpec(30.08, 1.5, 6),),
    )
    labels = json.loads(generate_trip(scn)[1])
    assert labels["rough"] == [{"start_ms": 10_000, "end_ms": 20_000, "sigma_g": 4.0}]
    assert labels["bumps"] == [{"t_ms": 30_080, "height_g": 1.5, "width_samples": 6}]
    assert labels["duration_ms"] == 60_000


def test_gain_scales_readings_not_labels():
    base = Scenario(name="g", duration_s=30.0, noise_sigma_g=0.02,
                    bumps=(BumpSpec(10.08, 1.5, 6),), rng_seed=3)
    dim = Scenario(name="g", duration_s=30.0, noise_sigma_g=0.02,
                   bumps=(BumpSpec(10.08, 1.5, 6),), rng_seed=3, device_gain=0.6)
    csv1, lab1 = generate_trip(base)
    csv2, lab2 = generate_trip(dim)
    assert np.allclose(_accel_rows(csv2), 0.6 * _accel_rows(csv1), atol=2e-6)
    g_rows = lambda text: [ln for ln in text.splitlines() if ln.startswith("G,")]
    assert g_rows(csv1) == g_rows(csv2)
    l1, l2 = json.loads(lab1), json.loads(lab2)
    assert l1["rough"] == l2["rough"] and l1["bumps"] == l2["bumps"]
    assert l2["device_gain"] == 0.6


def test_bump_peak_amplitude():
    scn = Scenario(name="b", duration_s=20.0, bumps=(BumpSpec(10.08, 1.5, 6),))
    az = _accel_rows(generate_trip(scn)[0])[:, 2]
    assert az.max() == pytest.approx(9.8 * 2.5, abs=1e-5)
    assert np.flatnonzero(az > 9.8 + 1e-6).min() == 504


def test_patch_sigma_calibrated():
    scn = Scenario(name="p", duration_s=80.0, rough=(RoughPatch(10.0, 70.0, 0.5),), rng_seed=9)
    az = _accel_rows(generate_trip(scn)[0])[:, 2]
    patch = az[500:3500]
    assert np.std(patch - 9.8) / 9.8 == pytest.approx(0.5, rel=0.05)
    assert np.all(az[:500] == 9.8) and np.all(az[3500:] == 9.8)


def test_orientation_is_normalized_and_carries_bumps():
    scn = Scenario(name="o", duration_s=20.0, gravity_orientation=(2.0, 0.0, 0.0),
                   bumps=(BumpSpec(10.08, 1.5, 6),))
    assert scn.gravity_orientation == (1.0, 0.0, 0.0)
    axes = _accel_rows(generate_trip(scn)[0])
    assert axes[:, 0].max() == pytest.approx(9.8 * 2.5, abs=1e-5)
    assert np.all(axes[:, 1:] == 0.0)


def test_gps_track_integrates_speed():
    scn = Scenario(name="v", duration_s=30.0, speed_profile=(SpeedPoint(0.0, 5.0),))
    fixes = _fixes(generate_trip(scn)[0])
    m_per_deg = 6_371_000.0 * math.pi / 180.0
    t10 = next(f for f in fixes if f.t_ms == 10_000)
    assert t10.lat * m_per_deg == pytest.approx(50.0, abs=0.05)
    assert fixes[-1].lat * m_per_deg == pytest.approx(150.0, abs=0.05)


def test_piecewise_speed_profile():
    scn = Scenario(name="pw", duration_s=25.0,
                   speed_profile=(SpeedPoint(0.0, 0.0), SpeedPoint(10.0, 5.0)))
    fixes = _fixes(generate_trip(scn)[0])
    m_per_deg = 6_371_000.0 * math.pi / 180.0
    t10 = next(f for f in fixes if f.t_ms == 10_000)
    t20 = next(f for f in fixes if f.t_ms == 20_000)
    assert t10.lat == 0.0
    assert t20.lat * m_per_deg == pytest.approx(50.0, abs=0.05)


def test_accel_row_precedes_fix_at_equal_time():
    lines = generate_trip(Scenario(name="ord", duration_s=5.0))[0].splitlines()
    t0 = [ln.split(",")[0] for ln in lines[1:] if ln.split(",")[1] == "0"]
    assert t0 == ["A", "G"]


def test_fix_count_follows_gps_rate():
    csv_text = generate_trip(Scenario(name="n", duration_s=10.0, gps_rate_hz=2.0))[0]
    assert sum(ln.startswith("G,") for ln in csv_text.splitlines()) == 21


def test_output_parses_cleanly():
    scn = Scenario(name="clean", duration_s=15.0, noise_sigma_g=0.05,
                   bumps=(BumpSpec(5.0, 1.2, 6),), rng_seed=4)
    reader = TripReader(generate_trip(scn)[0])
    kinds = [kind for kind, _ in reader]
    assert reader.stats.malformed_rows == 0
    assert kinds.count("A") == 750 and kinds.count("G") == 16


def test_pulse_shape():
    p = _pulse(6)
    assert p.shape == (6,)
    assert p.max() == 1.0
    assert p.min() > 0.0
    assert np.allclose(p, p[::-1])


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        Scenario(name="x", duration_s=0.0)
    with pytest.raises(ScenarioError):
        Scenario(name="x", duration_s=10.0, device_gain=0.0)
    with pytest.raises(ScenarioError):
        Scenario(name="x", duration_s=10.0, gravity_orientation=(0.0, 0.0, 0.0))
    with pytest.raises(ScenarioError):
        Scenario(name="x", duration_s=10.0, rough=(RoughPatch(5.0, 4.0, 1.0),))
    with pytest.raises(ScenarioError):
        Scenario(name="x", duration_s=10.0, bumps=(BumpSpec(12.0, 1.5, 6),))
    with pytest.raises(ScenarioError):
        Scenario(name="x", duration_s=10.0, bumps=(BumpSpec(5.0, 1.5, 1),))
    with pytest.raises(ScenarioError):
        Scenario(name="x", duration_s=10.0, speed_profile=(SpeedPoint(5.0, 1.0),))
    with pytest.raises(ScenarioError):
        Scenario(name="x", duration_s=10.0,
                 speed_profile=(SpeedPoint(0.0, 1.0), SpeedPoint(0.0, 2.0)))


_YAML = """
name: demo
duration_s: 40
sample_rate_hz: 50
noise_sigma_g: 0.02
rough_segments:
  - [5, 10, 4.0]
bumps:
  - [20.08, 1.5, 6]
speed_profile:
  - [0, 5.0]
origin: [48.1, 11.5]
rng_seed: 12
"""


def test_load_scenario_from_yaml():
    scn = load_scenario(_YAML)
    assert scn.name == "demo"
    assert scn.rough == (RoughPatch(5.0, 10.0, 4.0),)
    assert scn.bumps == (BumpSpec(20.08, 1.5, 6),)
    assert scn.speed_profile == (SpeedPoint(0.0, 5.0),)
    assert (scn.origin_lat, scn.origin_lon) == (48.1, 11.5)
    assert scn.rng_seed == 12


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "demo.yaml"
    path.write_text(_YAML)
    assert load_scenario(path) == load_scenario(_YAML)


def test_load_scenario_rejects_unknown_key():
    with pytest.raises(ScenarioError):
        load_scenario("duration_s: 10\npothole_count: 3\n")


def test_load_scenario_rejects_malformed():
    with pytest.raises(ScenarioError):
        load_scenario("- just\n- a list\n")
    with pytest.raises(ScenarioError):
        load_scenario("name: x\n")  # duration missing
    with pytest.raises(ScenarioError):
        load_scenario("duration_s: 10\nbumps:\n  - [5.0]\n")
    # Values are checked, not coerced: a fractional seed or width, a number
    # given as a string, a bool seed and a two-axis gravity all fail.
    for bad in (
        "duration_s: 10\nrng_seed: 7.9\n",
        "duration_s: 10\nbumps:\n  - [5.0, 1.5, 6.7]\n",
        "duration_s: '12'\n",
        "duration_s: 10\nrng_seed: true\n",
        "duration_s: 10\ngravity_orientation: [0, 1]\n",
    ):
        with pytest.raises(ScenarioError):
            load_scenario(bad)
