from __future__ import annotations

import math

import numpy as np
import pytest

from roadsense.errors import ConfigError, InvalidSampleError
from roadsense.gravity_filter import gravity_magnitude
from roadsense.signal_core import AccelSample, SegmentBuffer


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def test_resultant_single_axis():
    assert gravity_magnitude((0.0, 0.0, 9.8)) == 9.8


def test_resultant_pythagorean_triple():
    assert gravity_magnitude((3.0, 4.0, 12.0)) == 13.0


def test_resultant_non_negative():
    rng = np.random.default_rng(0)
    for v in rng.normal(0, 20, (100, 3)):
        assert gravity_magnitude(tuple(v)) >= 0.0


def test_resultant_rotation_invariant():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.normal(0, 10, 3)
        rotated = _random_rotation(rng) @ v
        a, b = gravity_magnitude(tuple(v)), gravity_magnitude(tuple(rotated))
        assert a == pytest.approx(b, rel=1e-9)


def test_resultant_rejects_non_finite():
    with pytest.raises(InvalidSampleError):
        gravity_magnitude((math.nan, 0.0, 0.0))
    with pytest.raises(InvalidSampleError):
        gravity_magnitude((0.0, math.inf, 0.0))


def test_accel_sample_rejects_non_finite():
    with pytest.raises(InvalidSampleError):
        AccelSample(0, 1.0, math.nan, 2.0)


def _pairs(n: int) -> list[tuple[int, float]]:
    return [(20 * i, float(i)) for i in range(n)]


def _segments(n: int) -> list:
    buf = SegmentBuffer(window=32)
    return [s for t, v in _pairs(n) if (s := buf.push(t, v)) is not None]


def test_segments_exact_multiple():
    segs = _segments(96)
    assert [s.index for s in segs] == [0, 1, 2]
    assert all(len(s.values) == 32 for s in segs)


def test_segments_trailing_remainder_dropped():
    buf = SegmentBuffer(window=32)
    segs = [s for t, v in _pairs(100) if (s := buf.push(t, v)) is not None]
    assert len(segs) == 3
    assert buf.dropped == 4


def test_segments_below_window_size():
    assert _segments(31) == []


def test_segments_tile_without_gap_or_overlap():
    segs = _segments(96)
    stitched = np.concatenate([s.values for s in segs])
    assert np.array_equal(stitched, np.arange(96, dtype=float))


def test_segment_time_span():
    segs = _segments(64)
    assert (segs[0].t_start_ms, segs[0].t_end_ms) == (0, 620)
    assert (segs[1].t_start_ms, segs[1].t_end_ms) == (640, 1260)
    assert all(s.t_start_ms < s.t_end_ms for s in segs)


def test_segment_buffer_validation():
    with pytest.raises(ConfigError):
        SegmentBuffer(window=1)
