"""Lattice map, modular matrix arithmetic, and the matrix period."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import matrix_period_linear
from oacm import (
    AcmParams,
    Mat2,
    ParameterError,
    map_matrix,
    mat_power_mod,
    matrix_period,
)

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
        m = map_matrix(AcmParams(p, q, n))
        assert (m.a * m.d - m.b * m.c) % n == 1 % n


def _send(params, x, y):
    """The lattice point (x, y) after one map: map_matrix times the column (x, y), mod n.

    x and y may be ints or numpy arrays."""
    m = map_matrix(params)
    return (m.a * x + m.b * y) % m.n, (m.c * x + m.d * y) % m.n


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


class TestMatrices:
    def test_matmul_modulus_mismatch(self):
        with pytest.raises(ParameterError):
            Mat2.identity(3) @ Mat2.identity(4)

    def test_entries_reduced(self):
        m = Mat2(5, -1, 7, 3, 4)
        assert (m.a, m.b, m.c, m.d) == (1, 3, 3, 3)

    def test_power_zero_is_identity(self):
        m = map_matrix(AcmParams(1, 1, 9))
        assert mat_power_mod(m, 0) == Mat2.identity(9)

    def test_power_one_is_self(self):
        m = map_matrix(AcmParams(2, 3, 11))
        assert mat_power_mod(m, 1) == m

    def test_power_at_known_period_is_identity(self):
        m = map_matrix(AcmParams(1, 1, 256))
        assert mat_power_mod(m, 192) == Mat2.identity(256)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParameterError):
            mat_power_mod(Mat2.identity(3), -1)

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 40), st.integers(0, 200))
    def test_power_matches_repeated_multiplication(self, p, q, n, z):
        m = map_matrix(AcmParams(p, q, n))
        acc = Mat2.identity(n)
        for _ in range(z):
            acc = acc @ m
        assert mat_power_mod(m, z) == acc


class TestMatrixPeriod:
    def test_known_periods(self):
        for n, period in KNOWN_PERIODS.items():
            assert matrix_period(AcmParams(1, 1, n)) == period

    def test_identity_map_has_period_one(self):
        assert matrix_period(AcmParams(0, 0, 17)) == 1

    def test_period_is_minimal(self):
        # Walk the power sequence and confirm no earlier identity, then
        # cross-check the fast exponentiation at the period itself.
        for n in range(1, 129):
            params = AcmParams(1, 1, n)
            period = matrix_period(params)
            m = map_matrix(params)
            ident = Mat2.identity(n)
            acc = ident
            for k in range(1, period):
                acc = acc @ m
                assert acc != ident, f"period({n}) not minimal at {k}"
            assert mat_power_mod(m, period) == ident

    def test_period_within_three_n(self):
        for n in range(1, 257):
            assert matrix_period(AcmParams(1, 1, n)) <= 3 * n

    @given(st.integers(1, 600), st.integers(0, 5), st.integers(0, 5))
    def test_matches_linear_search(self, n, p, q):
        params = AcmParams(p, q, n)
        assert matrix_period(params) == matrix_period_linear(params)
