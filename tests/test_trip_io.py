from __future__ import annotations

import io
import json

import pytest

from roadsense.errors import CorruptTripError, OrderingError, TripFormatError
from roadsense.events import RoadEvent, TripReport, TripStats
from roadsense.geo import GpsFix
from roadsense.signal_core import AccelSample
from roadsense.trip_io import TRIP_HEADER, TripReader, parse_report, write_report


def _trip_text(rows: list[str]) -> str:
    return "\n".join([TRIP_HEADER, *rows]) + "\n"


def _kinds(rows, kind: str) -> list:
    return [value for k, value in rows if k == kind]


def test_header_required():
    with pytest.raises(TripFormatError):
        TripReader("nope,t_ms,a,b,c\nA,0,0,0,9.8\n")
    with pytest.raises(TripFormatError):
        TripReader("")


def test_parses_both_row_kinds():
    text = _trip_text(
        [
            "A,0,0.010000,-0.020000,9.810000",
            "G,0,48.1000000,11.5000000,5.0",
            "A,20,0.000000,0.000000,9.790000",
            "A,40,0.000000,0.000000,9.800000",
        ]
    )
    reader = TripReader(io.StringIO(text))
    rows = list(reader)
    assert [kind for kind, _ in rows] == ["A", "G", "A", "A"]
    assert [s.t_ms for s in _kinds(rows, "A")] == [0, 20, 40]
    assert rows[0] == ("A", AccelSample(0, 0.01, -0.02, 9.81))
    assert rows[1] == ("G", GpsFix(0, 48.1, 11.5, 5.0))
    assert reader.stats.total_rows == 4 and reader.stats.malformed_rows == 0


def test_missing_accuracy_becomes_none():
    [(_, fix)] = TripReader(io.StringIO(_trip_text(["G,0,1.0,2.0,"])))
    assert fix.accuracy_m is None


def test_blank_lines_ignored():
    text = _trip_text(["A,0,0,0,9.8", "", "A,20,0,0,9.8", "   "])
    reader = TripReader(io.StringIO(text))
    assert len(list(reader)) == 2
    assert reader.stats.total_rows == 2


def test_malformed_rows_counted_not_fatal():
    rows = ["A,%d,0,0,9.8" % (20 * i) for i in range(300)]
    rows[50] = "A,1000,zero,0,9.8"
    rows[51] = "A,1020,0,0"
    reader = TripReader(io.StringIO(_trip_text(rows)))
    assert len(list(reader)) == 298
    assert reader.stats.malformed_rows == 2


def test_unknown_row_type_is_malformed():
    rows = ["X,0,1,2,3"] + ["A,%d,0,0,9.8" % (20 * i) for i in range(150)]
    reader = TripReader(io.StringIO(_trip_text(rows)))
    assert len(list(reader)) == 150
    assert reader.stats.malformed_rows == 1


def test_out_of_range_fix_is_malformed():
    rows = ["G,0,95.0,11.5,5.0"] + ["A,%d,0,0,9.8" % (20 * i) for i in range(150)]
    reader = TripReader(io.StringIO(_trip_text(rows)))
    assert _kinds(reader, "G") == [] and reader.stats.malformed_rows == 1


def test_corrupt_budget_enforced_at_eof():
    rows = ["A,%d,0,0,9.8" % (20 * i) for i in range(100)]
    for i in range(2):
        rows[i] = "bad"
    with pytest.raises(CorruptTripError):
        list(TripReader(io.StringIO(_trip_text(rows))))


def test_corrupt_budget_boundary():
    # Exactly one percent malformed is still tolerated.
    rows = ["A,%d,0,0,9.8" % (20 * i) for i in range(99)] + ["bad"]
    reader = TripReader(io.StringIO(_trip_text(rows)))
    assert len(list(reader)) == 99
    assert reader.stats.malformed_rows == 1


def test_ordering_violation_raises_immediately():
    text = _trip_text(["A,100,0,0,9.8", "A,80,0,0,9.8"])
    rows = iter(TripReader(io.StringIO(text)))
    assert next(rows)[1].t_ms == 100
    with pytest.raises(OrderingError):
        next(rows)
    assert issubclass(OrderingError, CorruptTripError)


def test_streams_ordered_independently():
    # A GPS fix timestamped before a later accel row is fine; each sensor
    # only has to be monotone against itself.
    text = _trip_text(
        [
            "A,0,0,0,9.8",
            "A,20,0,0,9.8",
            "G,10,1.0,2.0,5.0",
            "A,40,0,0,9.8",
            "G,1010,1.0,2.0,5.0",
        ]
    )
    rows = list(TripReader(io.StringIO(text)))
    assert len(_kinds(rows, "A")) == 3 and len(_kinds(rows, "G")) == 2


def _report() -> TripReport:
    events = [
        RoadEvent("rough", 1000, 4000, 2, trip_id="t1", lat=48.123456, lon=11.5),
        RoadEvent("bump", 6000, 6000, -2.251, trip_id="t1", lat=None, lon=None),
    ]
    return TripReport(
        trip_id="t1",
        device_id="dev9",
        sample_rate_hz=50.0,
        events=events,
        stats=TripStats(segments=12, dropped_samples=3, malformed_rows=1, gps_gaps=0),
    )


def test_report_round_trip():
    text = write_report(_report())
    assert parse_report(text) == _report()


def test_report_is_byte_stable():
    assert write_report(_report()) == write_report(_report())


def test_report_rounding_and_shape():
    rep = _report()
    rep.events[0].lat = 48.12345678
    rep.events[1].intensity = -2.2514999
    text = write_report(rep)
    assert '"lat": 48.123457' in text
    assert '"intensity": -2.251' in text
    assert text.endswith("\n")
    # Rough intensity serializes as an integer level.
    assert '"intensity": 2,' in text or '"intensity": 2\n' in text


def test_report_keys_sorted():
    text = write_report(_report())
    top = [ln.split('"')[1] for ln in text.splitlines() if ln.startswith('  "')]
    assert top == sorted(top)


def test_empty_report():
    rep = TripReport(trip_id="t", device_id="d", sample_rate_hz=50.0)
    parsed = parse_report(write_report(rep))
    assert parsed.events == [] and parsed.stats == TripStats()


def test_parse_report_rejects_garbage():
    with pytest.raises(TripFormatError):
        parse_report("not json")
    with pytest.raises(TripFormatError):
        parse_report('{"schema_version": 1}')
    with pytest.raises(TripFormatError):
        parse_report("[]")


@pytest.mark.parametrize("version", [None, 0, 2, "1"], ids=["missing", "0", "2", "string-1"])
def test_parse_report_rejects_unknown_schema_version(version):
    payload = json.loads(write_report(_report()))
    if version is None:
        del payload["schema_version"]
    else:
        payload["schema_version"] = version
    with pytest.raises(TripFormatError, match="schema_version"):
        parse_report(json.dumps(payload))
