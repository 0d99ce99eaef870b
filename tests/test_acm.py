"""Lattice map and the matrix period."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import mat_mul, matrix_period_linear
from oacm import AcmParams, ParameterError, map_matrix, matrix_period

# Classic-map (p = q = 1) periods for a spread of lattice sides.
KNOWN_PERIODS = {
    2: 3,
    256: 192,
    512: 384,
    1024: 768,
    1080: 180,
    2048: 1536,
    2992: 180,
    3000: 1500,
    4320: 360,
}


class TestParams:
    def test_reduced_mod_n(self):
        params = AcmParams(7, 12, 5)
        assert (params.p, params.q) == (2, 2)

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            AcmParams(1, 1, 0)
        with pytest.raises(ParameterError):
            AcmParams(-1, 1, 5)
        with pytest.raises(ParameterError):
            AcmParams(1, -2, 5)

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(1, 50))
    def test_map_matrix_determinant_is_one(self, p, q, n):
        a, b, c, d = map_matrix(AcmParams(p, q, n))
        assert all(0 <= entry < n for entry in (a, b, c, d))
        assert (a * d - b * c) % n == 1 % n


def _send(params, x, y):
    """The lattice point (x, y) after one map: map_matrix times the column (x, y), mod n.

    x and y may be ints or numpy arrays."""
    a, b, c, d = map_matrix(params)
    return (a * x + b * y) % params.n, (c * x + d * y) % params.n


class TestPointMaps:
    def test_origin_is_fixed(self):
        assert _send(AcmParams(1, 1, 2), 0, 0) == (0, 0)
        assert _send(AcmParams(3, 2, 7), 0, 0) == (0, 0)

    def test_classic_map_values(self):
        assert _send(AcmParams(1, 1, 2), 1, 0) == (1, 1)
        assert _send(AcmParams(1, 1, 3), 2, 2) == (1, 0)
        # p != q: swapped off-diagonal entries would send (1, 0) to (1, 1)
        assert _send(AcmParams(1, 2, 5), 1, 0) == (1, 2)

    def test_bijective_on_small_lattices(self):
        for n in range(1, 65):
            y, x = np.divmod(np.arange(n * n), n)
            for p in range(3):
                for q in range(3):
                    x2, y2 = _send(AcmParams(p, q, n), x, y)
                    assert np.unique(y2 * n + x2).size == n * n


class TestMatrixPeriod:
    def test_known_periods(self):
        for n, period in KNOWN_PERIODS.items():
            assert matrix_period(AcmParams(1, 1, n)) == period

    def test_identity_map_has_period_one(self):
        assert matrix_period(AcmParams(0, 0, 17)) == 1

    def test_period_is_minimal(self):
        # Walk the power sequence: no identity before the period, and the
        # identity at it.
        for n in range(1, 129):
            params = AcmParams(1, 1, n)
            period = matrix_period(params)
            m = map_matrix(params)
            ident = (1 % n, 0, 0, 1 % n)
            acc = ident
            for k in range(1, period):
                acc = mat_mul(acc, m, n)
                assert acc != ident, f"period({n}) not minimal at {k}"
            assert mat_mul(acc, m, n) == ident

    def test_period_within_three_n(self):
        for n in range(1, 257):
            assert matrix_period(AcmParams(1, 1, n)) <= 3 * n

    @given(st.integers(1, 600), st.integers(0, 5), st.integers(0, 5))
    def test_matches_linear_search(self, n, p, q):
        params = AcmParams(p, q, n)
        assert matrix_period(params) == matrix_period_linear(params)
