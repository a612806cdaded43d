import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_genlaguerre

from itofrft.ito_hermite import (
    ZeroSet,
    hermite_ito,
    null_index_set,
    psi_table,
    zero_radii,
)
from itofrft.specfun import DEGREE_CAP


def hermite_ito_sum(nu, m, n, z):
    """Explicit finite-sum oracle; cancels badly for large |z| so it lives
    in the tests only."""
    zc = np.conj(z)
    total = 0j
    for k in range(min(m, n) + 1):
        total += (
            (-1) ** k
            * math.factorial(m)
            * math.factorial(n)
            / (math.factorial(k) * math.factorial(m - k) * math.factorial(n - k))
            * nu ** (m + n - k)
            * z ** (m - k)
            * zc ** (n - k)
        )
    return total


complex_points = st.builds(
    complex,
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)


class TestHermiteIto:
    def test_base_cases(self):
        assert hermite_ito(1.0, 0, 0, 2.0 + 3.0j) == 1.0
        assert hermite_ito(2.0, 1, 0, 1.0 + 1.0j) == pytest.approx(2.0 + 2.0j)
        assert hermite_ito(2.0, 0, 1, 1.0 + 1.0j) == pytest.approx(2.0 - 2.0j)
        # H_{1,1} = nu^2 |z|^2 - nu vanishes at |z| = 1/sqrt(nu)
        assert hermite_ito(1.0, 1, 1, 1.0) == pytest.approx(0.0, abs=1e-14)

    @given(complex_points, st.sampled_from([0.5, 1.0, 1.3]))
    def test_matches_finite_sum(self, z, nu):
        for m in range(4):
            for n in range(4):
                assert hermite_ito(nu, m, n, z) == pytest.approx(
                    hermite_ito_sum(nu, m, n, z), abs=1e-10
                )

    def test_conjugate_symmetry(self):
        zs = np.linspace(-1, 1, 7)[:, None] + 1j * np.linspace(-1, 1, 7)[None, :]
        H = np.array([[hermite_ito(1.7, m, n, zs) for n in range(7)] for m in range(7)])
        np.testing.assert_allclose(H, np.conj(H.transpose(1, 0, 2, 3)), atol=1e-11)

    def test_laguerre_factorization(self):
        # H_{m,n} = (-1)^n n! nu^m z^{m-n} L_n^{(m-n)}(nu |z|^2) for m >= n
        nu = 1.4
        for z in (0.3 + 0.8j, -1.1 + 0.2j):
            for m, n in [(3, 1), (4, 4), (5, 2)]:
                expect = (
                    (-1) ** n
                    * math.factorial(n)
                    * nu**m
                    * z ** (m - n)
                    * eval_genlaguerre(n, m - n, nu * abs(z) ** 2)
                )
                assert hermite_ito(nu, m, n, z) == pytest.approx(expect, rel=1e-11)

    def test_vectorized_matches_scalar(self):
        zs = np.array([0.1 + 0.2j, -1.0, 2.0j])
        vals = hermite_ito(1.0, 2, 3, zs)
        for z, v in zip(zs, vals):
            assert v == pytest.approx(hermite_ito(1.0, 2, 3, complex(z)))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hermite_ito(0.0, 1, 1, 0.0)
        with pytest.raises(ValueError):
            hermite_ito(1.0, -1, 0, 0.0)
        with pytest.raises(ValueError):
            hermite_ito(1.0, DEGREE_CAP + 1, 0, 0.0)

    def test_overflow_raises(self):
        # H_{200,200}(0.5) = 200! L_200(0.25) is near 1e374; the pytest
        # configuration also fails the test if a RuntimeWarning escapes
        with pytest.raises(OverflowError):
            hermite_ito(1.0, 200, 200, 0.5)

    def test_large_value_below_overflow(self):
        # H_{n,n}(0) = (-1)^n n! nu^n, still finite at n = 170
        assert hermite_ito(1.0, 170, 170, 0.0) == pytest.approx(math.factorial(170), rel=1e-11)
        # off the diagonal H_{m,n}(0) = 0, even where the scale exceeds 1e308
        assert hermite_ito(1.0, 200, 199, 0.0) == 0.0


class TestPsi:
    def test_ground_state(self):
        assert psi_table(1.0, 5.0 + 5.0j, 0, 0)[0, 0] == pytest.approx(1.0 / math.sqrt(math.pi))
        assert psi_table(math.pi, 1.0j, 0, 0)[0, 0] == pytest.approx(1.0)

    def test_normalization_constant(self):
        # psi = (nu / (pi nu^{m+n} m! n!))^{1/2} H
        nu, m, n, z = 1.6, 3, 2, 0.7 - 0.4j
        c = math.sqrt(nu / (math.pi * nu ** (m + n) * math.factorial(m) * math.factorial(n)))
        assert psi_table(nu, z, m, n)[m, n] == pytest.approx(c * hermite_ito(nu, m, n, z), rel=1e-12)

    def test_no_overflow_at_cap(self):
        vals = psi_table(1.0, 1.5 + 0.5j, DEGREE_CAP, 0)
        assert np.all(np.isfinite(vals))

    def test_overflow_raises(self):
        # far from the origin the high-degree entries exceed double precision
        with pytest.raises(OverflowError):
            psi_table(1.0, 60.0, 200, 200)

    def test_table_shape(self):
        P = psi_table(1.0, np.zeros((2, 5), dtype=complex), 3, 4)
        assert P.shape == (4, 5, 2, 5)

    @pytest.mark.parametrize(
        "z",
        [0.6 + 0.5j, np.array([[0.3 - 0.2j, -1.1j, 1.4], [-0.5 + 0.9j, 0.0, 0.8 + 0.8j]])],
        ids=["point", "array"],
    )
    def test_box_independence(self, z):
        # an entry does not depend on the box around it, to the last bit
        big = psi_table(1.3, z, 200, 200)
        for c in (10, 20, 40, 57):
            np.testing.assert_array_equal(big[: c + 1, : c + 1], psi_table(1.3, z, c, c))


class TestZeroRadii:
    def test_simple_cases(self):
        zs = zero_radii(1.0, 1, 1)
        assert isinstance(zs, ZeroSet)
        assert zs.radii == pytest.approx((1.0,))
        assert not zs.includes_origin

        zs = zero_radii(4.0, 1, 0)
        assert zs.radii == ()
        assert zs.includes_origin

        # H_{2,1} has the circle nu |z|^2 = 2 plus the origin
        zs = zero_radii(1.0, 2, 1)
        assert zs.radii == pytest.approx((math.sqrt(2.0),))
        assert zs.includes_origin

    def test_radii_are_zeros(self):
        nu = 0.9
        for m, n in [(2, 2), (4, 1), (3, 5)]:
            zs = zero_radii(nu, m, n)
            assert len(zs.radii) == min(m, n)
            assert all(a < b for a, b in zip(zs.radii, zs.radii[1:]))
            for r in zs.radii:
                scale = max(abs(hermite_ito(nu, m, n, r * 1.1)), 1.0)
                assert abs(hermite_ito(nu, m, n, r)) / scale < 1e-9

    def test_scaling_in_nu(self):
        a = zero_radii(1.0, 3, 2).radii
        b = zero_radii(4.0, 3, 2).radii
        np.testing.assert_allclose(np.asarray(a) / np.asarray(b), 2.0)


class TestNullIndexSet:
    def test_generic_point_only_diagonal_zeros(self):
        idx = null_index_set(1.0, 2.0 + 0.5j, 4, 4, 1e-10)
        assert idx == set()

    def test_zero_circle_membership(self):
        # w = 1 sits on the zero circle of H_{1,1} at nu = 1
        idx = null_index_set(1.0, 1.0, 2, 2, 1e-10)
        assert (1, 1) in idx

    def test_origin(self):
        idx = null_index_set(1.0, 0.0, 3, 3, 1e-12)
        assert idx == {(m, n) for m in range(4) for n in range(4) if m != n}

    def test_overflow_raises(self):
        # a non-finite entry is never below tol, so it would drop out unseen
        with pytest.raises(OverflowError):
            null_index_set(1.0, 60.0, 200, 200, 1e-10)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            null_index_set(1.0, 0.0, 2, 2, 0.0)
