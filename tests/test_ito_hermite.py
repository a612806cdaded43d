import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre

from itofrft import ito_hermite
from itofrft.ito_hermite import (
    ZeroSet,
    _psi_entries,
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


def psi_mpmath(nu, z, m, n):
    """psi_{m,n}(z) from the Laguerre factorization in 30-digit mpmath:
    sqrt(nu/pi) (-1)^q sqrt(q!/(q+k)!) x^{k/2} L_q^{(k)}(x) e^{+-ik arg z},
    with x = nu |z|^2, q = min(m, n), k = |m - n| and the sign of m - n."""
    with mpmath.workdps(30):
        q, k = min(m, n), abs(m - n)
        x = mpmath.mpf(nu) * abs(mpmath.mpc(z)) ** 2
        phase = mpmath.expj(k * cmath.phase(z) * (1 if m >= n else -1)) if z != 0 else 1
        val = (mpmath.sqrt(mpmath.mpf(nu) / mpmath.pi) * (-1) ** q
               * mpmath.sqrt(mpmath.factorial(q) / mpmath.factorial(q + k))
               * x ** (mpmath.mpf(k) / 2) * mpmath.laguerre(q, k, x) * phase)
        return complex(val)


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

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.3])
    @pytest.mark.parametrize("r", [0.0, 1e-5, 0.6, 1.2, 2.0, 3.0])
    def test_matches_mpmath_over_the_cap_box(self, nu, r):
        # the diagonal recurrence does not drift: sampled entries of the 200^2
        # box up to sqrt(nu)|w| = 3 (where |psi| reaches 17 at nu = 1) within
        # 1e-13; near the origin, where its two solutions merge, psi_(200,200)
        # is off by up to 7e-13 (at nu = 2.3, r = 1e-5), hence 1e-12 there
        tol = 1e-12 if r < 0.5 else 1e-13
        z = r / math.sqrt(nu) * cmath.exp(0.7j)
        P = psi_table(nu, z, DEGREE_CAP, DEGREE_CAP)
        for m in [*range(0, DEGREE_CAP + 1, 23), DEGREE_CAP]:
            for n in [*range(0, DEGREE_CAP + 1, 23), DEGREE_CAP]:
                want = psi_mpmath(nu, z, m, n)
                assert abs(P[m, n] - want) <= tol * max(1.0, abs(want)), (m, n)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(DEGREE_CAP - 12, DEGREE_CAP),
        st.integers(0, DEGREE_CAP),
        st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e-3)),
        st.floats(-math.pi, math.pi),
        st.sampled_from([0.5, 1.0, 1.7]),
        st.booleans(),
    )
    def test_matches_mpmath_near_the_cap(self, m, n, r, theta, nu, swap):
        # near x = 0 the recurrence's two solutions merge and rounding grows
        # along the diagonal: 5.6e-13 at psi_(200,200)(1e-5), hence 1e-12
        m, n = (n, m) if swap else (m, n)
        z = r / math.sqrt(nu) * cmath.exp(1j * theta)
        want = psi_mpmath(nu, z, m, n)
        tol = 1e-12 * max(1.0, abs(want))
        (entry,) = _psi_entries(nu, z, [(m, n)])
        assert abs(psi_table(nu, z, m, n)[m, n] - want) <= tol
        assert abs(entry - want) <= tol

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.3])
    @pytest.mark.parametrize("x_root", [0.0, 0.5, 1.3, 2.1, 3.0])
    def test_real_point_steps_the_real_part(self, nu, x_root):
        # a real point steps a float table, equal to the last bit to the real
        # part of the table at the same point as a complex number
        r = x_root / math.sqrt(nu)
        want = psi_table(nu, complex(r), DEGREE_CAP, DEGREE_CAP)
        for box in (8, 40, DEGREE_CAP):
            got = psi_table(nu, r, box, box)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want[: box + 1, : box + 1].real)
        assert not np.any(want.imag)

    def test_real_points_keep_real_kinds(self):
        # an int, a real array and a real entry walk stay real; a complex
        # dtype stays complex even with zero imaginary parts
        assert psi_table(1.0, 1, 3, 3).dtype == np.float64
        np.testing.assert_array_equal(psi_table(1.0, 1, 3, 3), psi_table(1.0, 1.0, 3, 3))
        z = np.array([[0.0, -1.1], [0.4, 2.0]])
        P = psi_table(1.3, z, 6, 5)
        assert P.dtype == np.float64
        np.testing.assert_array_equal(P, psi_table(1.3, z.astype(complex), 6, 5).real)
        (e,) = _psi_entries(1.3, -1.1, [(4, 2)])
        assert isinstance(e, float) and e == P[4, 2, 0, 1]
        assert psi_table(1.3, np.array([0.5 + 0j]), 2, 2).dtype == np.complex128

    def test_table_and_walk_share_the_step_coefficients(self):
        # the table cuts one cached box of (s, b, d), the walk steps with the
        # same function on ints: equal to the last bit over the whole cap box
        box = ito_hermite._step_box()
        assert all(c.shape == (DEGREE_CAP, DEGREE_CAP) for c in box)
        for m in range(DEGREE_CAP):
            for n in range(0, DEGREE_CAP, 7):
                assert tuple(float(c[m, n]) for c in box) == ito_hermite._int_step(m, n), (m, n)

    @pytest.mark.parametrize(
        "z",
        [0.6 + 0.5j, -1.1, 2.9j, np.array([[0.3 - 0.2j, -1.1j, 1.4], [-0.5 + 0.9j, 0.0, 2.8 + 0.8j]])],
        ids=["point", "real_point", "far_point", "array"],
    )
    def test_entries_equal_the_table(self, z):
        # each entry steps its own diagonal with the table's coefficients
        P = psi_table(1.3, z, 120, 90)
        for m in range(0, 121, 7):
            for n in range(0, 91, 6):
                (e,) = _psi_entries(1.3, z, [(m, n)])
                assert np.all(np.abs(e - P[m, n]) <= 1e-15 * np.maximum(1.0, np.abs(P[m, n]))), (m, n)

    @pytest.mark.parametrize("z", [0.6 + 0.5j, np.array([[0.3 - 0.2j, -1.1j], [0.0, 2.8 + 0.8j]])],
                             ids=["point", "array"])
    def test_many_steps_read_the_table(self, z):
        # a sparse index walks its diagonals; past 2 (m + n + 1) steps, as in
        # a dense box, the entries are the table's own
        sparse, dense = [(0, 9), (9, 2), (3, 4)], [(m, n) for m in range(10) for n in range(9)]
        assert isinstance(_psi_entries(1.3, z, sparse), list) == (np.ndim(z) == 0)
        np.testing.assert_array_equal(_psi_entries(1.3, z, dense), psi_table(1.3, z, 9, 8).reshape((90,) + np.shape(z)))

    def test_entries_keep_the_shape_of_z(self):
        z = np.array([[0.1, 0.2j], [0.3, -0.4]])
        got = _psi_entries(1.0, z, [(0, 0), (2, 1)])
        assert got.shape == (2, 2, 2)
        np.testing.assert_array_equal(got[0], np.full((2, 2), 1 / math.sqrt(math.pi)))

    @pytest.mark.parametrize("box", [(1, 150), (150, 1), (40, 120), (200, 200)])
    def test_overflow_reaches_the_last_row(self, box, monkeypatch):
        # entries overflow only where nu |z|^2 exceeds every index, and there
        # |psi_(m,n)| grows with m: the last row, which the table checks,
        # overflows with any other entry, from the threshold on
        with pytest.raises(OverflowError, match=r"psi table up to index \(%d, %d\)" % box):
            psi_table(1.0, 1000.0, *box)
        monkeypatch.setattr(ito_hermite, "_require_finite", lambda values, what: values)
        overflowed = 0
        for x in np.geomspace(1000.0, 1e6, 40):
            P = psi_table(1.0, math.sqrt(x) * cmath.exp(0.3j), *box)
            overflowed += not np.isfinite(P).all()
            assert np.isfinite(P).all() or not np.isfinite(P[-1]).all(), x
        assert 0 < overflowed < 40  # the scan crosses the threshold

    def test_entry_overflow_raises(self):
        # an entry past double precision raises, at one point and on an array
        with pytest.raises(OverflowError, match=r"psi of index up to 150 at nu=1 overflows"):
            _psi_entries(1.0, 1000.0, [(0, 1), (0, 150)])
        with pytest.raises(OverflowError):
            _psi_entries(1.0, np.array([0.5, 1000.0]), [(150, 2)])


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

    def test_equal_modulus_points_give_identical_sets(self):
        # |psi_(m,n)(w)| depends on |w| alone: the set is read at |w|
        for w in (0.5 * cmath.exp(0.7j), 1.2 * cmath.exp(-2.1j), -1.0):
            assert null_index_set(1.0, w, 200, 200, 1e-3) == null_index_set(1.0, abs(w), 200, 200, 1e-3)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            null_index_set(1.0, 0.0, 2, 2, 0.0)
