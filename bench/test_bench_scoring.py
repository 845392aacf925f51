"""Label scoring on hand-made reports, labels and maps with known answers."""
import math

import pytest

import scoring

HOUR_LABELS = {
    "duration_ms": 3_600_000,
    "bumps": [{"t_ms": 10_000}, {"t_ms": 50_000}, {"t_ms": 30_000}],
    "rough": [{"start_ms": 600_000, "end_ms": 640_000}],
}


def bump(t0, t1=None):
    return {"kind": "bump", "t_start_ms": t0, "t_end_ms": t0 if t1 is None else t1}


def rough(t0, t1):
    return {"kind": "rough", "t_start_ms": t0, "t_end_ms": t1}


def test_bump_scores_recall_and_false_time():
    events = [
        bump(5_000, 9_000),  # recalls 10 s; 3 s of it lie before the 8 s band edge
        bump(48_000, 48_500),  # ends 1.5 s before the 50 s label: recalled, not false
        bump(100_000, 110_000),  # 10 s of false bump time
        bump(200_000),  # a zero-length false bump: counted, adds no time
        rough(29_000, 31_000),  # rough events never recall bumps
    ]
    s = scoring.bump_scores(events, HOUR_LABELS)
    assert s["bumps_recalled"] == 2 and s["bumps_labelled"] == 3
    assert s["bump_recall"] == pytest.approx(2 / 3)
    assert s["false_bump_s_per_h"] == pytest.approx(13.0)
    assert s["false_bumps_per_h"] == pytest.approx(2.0)


def test_bump_scores_tolerance_edge_and_overlapping_events():
    labels = {"duration_ms": 1_800_000, "bumps": [{"t_ms": 10_000}], "rough": []}
    assert scoring.bump_scores([bump(12_000)], labels)["bumps_recalled"] == 1
    assert scoring.bump_scores([bump(12_001)], labels)["bumps_recalled"] == 0
    # Overlapping spans count their false time once; half an hour scales by 2.
    s = scoring.bump_scores([bump(20_000, 30_000), bump(25_000, 35_000)], labels)
    assert s["false_bump_s_per_h"] == pytest.approx(30.0)
    assert s["false_bumps_per_h"] == pytest.approx(4.0)


def test_rough_onset_error():
    events = [rough(600_320, 640_620), rough(700_000, 710_000), bump(600_000)]
    assert scoring.rough_onset_err_s(events, HOUR_LABELS) == pytest.approx(0.32)
    # An event starting early but overlapping the patch still pairs with it.
    assert scoring.rough_onset_err_s([rough(598_000, 601_000)], HOUR_LABELS) == 2.0
    assert scoring.rough_onset_err_s([rough(700_000, 710_000)], HOUR_LABELS) is None
    assert scoring.rough_onset_err_s([], {"rough": []}) is None


def _north(lat, metres):
    return lat + math.degrees(metres / scoring.EARTH_RADIUS_M)


def test_map_scores_recall_kind_and_false_hazards():
    spots = [
        {"kind": "bump", "lat": 1.0, "lon": 103.0, "trips": 3},
        {"kind": "rough", "lat": 1.001, "lon": 103.0, "trips": 2},
        {"kind": "bump", "lat": 1.002, "lon": 103.0, "trips": 1},
        {"kind": "bump", "lat": 1.003, "lon": 103.0, "trips": 2},
    ]
    clusters = [
        {"kind": "bump", "lat": _north(1.0, 14.0), "lon": 103.0},  # recalls spot 0
        {"kind": "bump", "lat": 1.001, "lon": 103.0},  # wrong kind for spot 1: false
        {"kind": "bump", "lat": 1.002, "lon": 103.0},  # single-trip spot: not false
        {"kind": "bump", "lat": _north(1.003, 16.0), "lon": 103.0},  # 16 m off: false
    ]
    s = scoring.map_scores(clusters, spots, 15.0)
    assert s["hazards_planted"] == 3 and s["hazards_recalled"] == 1
    assert s["hazard_recall"] == pytest.approx(1 / 3)
    assert s["false_hazards"] == 2
    assert scoring.map_scores([], [], 15.0) == {
        "hazard_recall": None, "hazards_recalled": 0, "hazards_planted": 0, "false_hazards": 0,
    }


def test_haversine_matches_one_degree_of_latitude():
    one_degree = scoring.EARTH_RADIUS_M * math.pi / 180
    assert scoring.haversine_m(0.0, 10.0, 1.0, 10.0) == pytest.approx(one_degree)
