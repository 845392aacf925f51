from __future__ import annotations

import math
import time

import numpy as np
import pytest

from roadsense.errors import ShapeError
from roadsense.oracles import oracle_dwt
from roadsense.wavelet import dwt, find_peaks


def _flat(coeffs) -> np.ndarray:
    return np.concatenate([[coeffs.approx], *coeffs.details])


@pytest.fixture(scope="module")
def analysis():
    """32 x 32 matrix of the shipped transform: column k is dwt of unit vector k."""
    return np.column_stack([_flat(dwt(e)) for e in np.eye(32)])


def _flat_max_diff(a, b) -> float:
    diffs = [abs(a.approx - b.approx)]
    diffs += [float(np.abs(da - db).max()) for da, db in zip(a.details, b.details)]
    return max(diffs)


def test_smallest_basis():
    inv = 2.0**-0.5
    coeffs = dwt(np.array([3.0, 1.0]))
    assert coeffs.levels == 1
    assert coeffs.approx == pytest.approx(4.0 * inv, abs=1e-15)
    assert coeffs.details[0] == pytest.approx([2.0 * inv], abs=1e-15)


def test_basis_size_validation():
    for size in (0, 1, 3, 12, 33):
        with pytest.raises(ShapeError):
            dwt(np.zeros(size))


def test_orthonormality(analysis):
    assert np.abs(analysis.T @ analysis - np.eye(32)).max() < 1e-9


def test_vanishing_moment(analysis):
    # Every detail row sums to zero; the approximation row sums to sqrt(L).
    sums = analysis.sum(axis=1)
    assert abs(sums[0] - math.sqrt(32)) < 1e-12
    assert np.abs(sums[1:]).max() < 1e-12


def test_constant_input_details_exactly_zero():
    coeffs = dwt(np.full(32, 9.8))
    for d in coeffs.details:
        assert np.all(d == 0.0)
    assert coeffs.approx == pytest.approx(9.8 * math.sqrt(32), abs=1e-12)


def test_single_opposed_pair():
    x = np.zeros(32)
    x[0], x[1] = 1.0, -1.0
    coeffs = dwt(x)
    assert coeffs.details[0][0] == math.sqrt(2.0)
    assert np.all(coeffs.details[0][1:] == 0.0)
    for d in coeffs.details[1:]:
        assert np.all(d == 0.0)
    assert coeffs.approx == 0.0
    assert _flat_max_diff(coeffs, oracle_dwt(x)) == 0.0


def test_coefficient_counts():
    coeffs = dwt(np.arange(32, dtype=float))
    assert [len(d) for d in coeffs.details] == [16, 8, 4, 2, 1]
    assert coeffs.levels == 5


def test_energy_conservation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.normal(9.8, 2.0, 32)
        coeffs = dwt(x)
        energy = coeffs.approx**2 + sum(float(d @ d) for d in coeffs.details)
        assert energy == pytest.approx(float(x @ x), rel=1e-9)


def test_linearity():
    rng = np.random.default_rng(4)
    x, y = rng.normal(0, 1, 32), rng.normal(0, 1, 32)
    combo = dwt(2.5 * x - 0.5 * y)
    cx, cy = dwt(x), dwt(y)
    assert combo.approx == pytest.approx(2.5 * cx.approx - 0.5 * cy.approx, abs=1e-12)
    for dc, dx, dy in zip(combo.details, cx.details, cy.details):
        assert np.abs(dc - (2.5 * dx - 0.5 * dy)).max() < 1e-12


def test_round_trip(analysis):
    # The coefficients determine the window: the transposed analysis rebuilds it.
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(9.8, 3.0, 32)
        assert np.abs(analysis.T @ _flat(dwt(x)) - x).max() < 1e-9


def test_matches_inner_product_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        x = rng.normal(9.8, 2.0, 32)
        worst = max(worst, _flat_max_diff(dwt(x), oracle_dwt(x)))
    assert worst < 1e-9


def test_oracle_recovers_single_atom():
    # The first finest-scale atom: +2^-1/2 on sample 0, -2^-1/2 on sample 1.
    atom = np.zeros(32)
    atom[0], atom[1] = 2.0**-0.5, -(2.0**-0.5)
    coeffs = oracle_dwt(atom)
    assert coeffs.details[0][0] == pytest.approx(1.0, abs=1e-12)
    assert abs(coeffs.approx) < 1e-12
    assert np.abs(coeffs.details[0][1:]).max() < 1e-12


def test_dwt_shape_mismatch():
    for shape in ((4, 8), (32, 1), ()):
        with pytest.raises(ShapeError):
            dwt(np.zeros(shape))


def test_find_peaks_single():
    pks, locs = find_peaks(np.array([0.0, 5.0, 0.0]))
    assert list(pks) == [5.0]
    assert list(locs) == [1]


def test_find_peaks_monotone_empty():
    assert find_peaks(np.arange(10.0))[0].size == 0
    assert find_peaks(np.arange(10.0)[::-1])[0].size == 0


def test_find_peaks_endpoints_excluded():
    pks, _ = find_peaks(np.array([9.0, 1.0, 8.0]))
    assert pks.size == 0


def test_find_peaks_plateau_policies():
    series = np.array([0.0, 5.0, 5.0, 0.0])
    assert find_peaks(series, "strict")[0].size == 0
    pks, locs = find_peaks(series, "left")
    assert list(pks) == [5.0]
    assert list(locs) == [1]
    # A plateau running into the boundary has no right shoulder.
    assert find_peaks(np.array([0.0, 5.0, 5.0]), "left")[0].size == 0


def test_find_peaks_short_series():
    assert find_peaks(np.array([1.0, 2.0]))[0].size == 0
    assert find_peaks(np.array([]))[0].size == 0


def test_transform_speed():
    x = np.random.default_rng(8).normal(9.8, 1.0, 32)
    start = time.perf_counter()
    for _ in range(1000):
        dwt(x)
    per_call = (time.perf_counter() - start) / 1000
    assert per_call < 1e-3
