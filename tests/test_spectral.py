import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad

from itofrft.ito_hermite import psi_table
from itofrft.quadrature import bidisk_rule, integrate
from itofrft.specfun import scipy_special
from itofrft.spectral import (
    KwBracket,
    _log_ratio,
    finite_rank_tail,
    gamma_norm,
    kw_constant,
    schatten_partial,
    spectrum,
)


class TestGammaNorm:
    def test_known_values(self):
        assert gamma_norm(0.0, 0.0, 0, 0) == pytest.approx(math.pi**2)
        assert gamma_norm(0.0, 0.0, 1, 0) == pytest.approx(math.pi**2 / 2.0)
        assert gamma_norm(1.0, 1.0, 0, 0) == pytest.approx(math.pi**2 / 4.0)

    def test_against_quadrature(self):
        alpha, beta, m, n = 1.5, 0.5, 2, 3
        rule = bidisk_rule(alpha, beta, 24, 8)
        got = integrate(rule, lambda u, v: np.abs(u) ** (2 * m) * np.abs(v) ** (2 * n))
        assert gamma_norm(alpha, beta, m, n) == pytest.approx(got, rel=1e-11)

    def test_no_overflow_at_large_index(self):
        # the naive Gamma-ratio product overflows near index 170
        assert math.isfinite(gamma_norm(1.0, 1.0, 190, 190))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            gamma_norm(-1.0, 0.0, 0, 0)
        with pytest.raises(ValueError, match="alpha"):
            gamma_norm(0.0, -1.0, 0, 0)

    @pytest.mark.parametrize("a", [1e15, 1e100, 1e300])
    @pytest.mark.parametrize("k", [0, 2, 150])
    def test_log_ratio_at_large_weights(self, a, k):
        # log Gamma(a+1) k! / Gamma(a+k+2) against 400-digit mpmath: a
        # difference of gammaln values loses 1e-3 to all of it here
        with mpmath.workdps(400):
            a_mp = mpmath.mpf(a)
            want = (mpmath.loggamma(a_mp + 1) + mpmath.loggamma(k + 1)
                    - mpmath.loggamma(a_mp + k + 2))
            got = _log_ratio(scipy_special().betaln, a, k)
            assert abs(got - want) <= 1e-15 * abs(want)

    def test_singular_value_at_a_large_weight(self):
        # s_00 = |psi_00(0.5)| (pi^2 / ((1e300 + 1) 2))^{1/2}
        want = math.exp(-0.125) / math.sqrt(math.pi) * math.pi / math.sqrt(2e300)
        assert spectrum(1.0, 1e300, 1.0, 0.5, 2, 2)[0, 0] == pytest.approx(want, rel=1e-13)
        assert want == pytest.approx(1.25e-150, rel=3e-3)

    def test_broadcasts_over_indices(self):
        ms, ns = np.arange(5)[:, None], np.arange(3)
        grid = gamma_norm(1.5, 0.5, ms, ns)
        assert grid.shape == (5, 3)
        for m in range(5):
            for n in range(3):
                assert grid[m, n] == gamma_norm(1.5, 0.5, m, n)


class TestSingularValue:
    """Single entries s_{m,n}(w) of `spectrum`."""

    def test_base_value(self):
        assert spectrum(1.0, 1.0, 1.0, 0.0, 0, 0)[0, 0] == pytest.approx(math.sqrt(math.pi) / 2.0)

    def test_vanishes_on_zero_circle(self):
        assert spectrum(1.0, 1.0, 1.0, 1.0, 1, 1)[1, 1] == pytest.approx(0.0, abs=1e-14)

    def test_requires_bounded_regime(self):
        with pytest.raises(ValueError):
            spectrum(1.0, 0.0, 1.0, 0.0, 0, 0)


class TestSpectrum:
    def test_matches_scalar_route(self):
        spec = spectrum(1.0, 1.0, 0.5, 0.7 + 0.2j, 4, 3)
        assert spec.values.shape == (5, 4)
        for m in range(5):
            for n in range(4):
                want = abs(psi_table(1.0, 0.7 + 0.2j, m, n)[m, n]) * math.sqrt(gamma_norm(1.0, 0.5, m, n))
                assert spec[m, n] == pytest.approx(want, rel=1e-12)

    def test_box_independence(self):
        # the CLI's Schatten cuts are spectra of their own boxes
        big = spectrum(1.3, 1.0, 0.5, 0.6 + 0.5j, 200, 200).values
        for c in (10, 20, 40, 57):
            small = spectrum(1.3, 1.0, 0.5, 0.6 + 0.5j, c, c).values
            np.testing.assert_array_equal(big[: c + 1, : c + 1], small)

    def test_sorted_values_decreasing(self):
        spec = spectrum(1.0, 1.0, 1.0, 0.5, 6, 6)
        vals = [s for _, s in spec.sorted_values()]
        assert vals == sorted(vals, reverse=True)

    def test_values_immutable(self):
        spec = spectrum(1.0, 1.0, 1.0, 0.5, 2, 2)
        with pytest.raises(ValueError):
            spec.values[0, 0] = 1.0

    def test_requires_bounded_regime(self):
        with pytest.raises(ValueError, match="alpha"):
            spectrum(1.0, 0.0, 1.0, 0.0, 2, 2)

    def test_decay_along_diagonal(self):
        spec = spectrum(1.0, 1.0, 1.0, 0.8, 40, 40)
        diag = [spec[k, k] for k in (0, 5, 10, 20, 40)]
        assert all(a > b for a, b in zip(diag, diag[1:]))
        assert diag[-1] < 1e-3 * diag[0]


class TestSchatten:
    def test_hilbert_schmidt_sum(self):
        spec = spectrum(1.0, 1.0, 1.0, 0.6, 8, 8)
        assert schatten_partial(spec, 2.0) == pytest.approx(float(np.sum(spec.values**2)))

    def test_monotone_in_cutoff(self):
        a = schatten_partial(spectrum(1.0, 1.0, 1.0, 0.6, 10, 10), 1.0)
        b = schatten_partial(spectrum(1.0, 1.0, 1.0, 0.6, 20, 20), 1.0)
        assert a <= b
        # the Hilbert-Schmidt sum converges algebraically; by cutoff 40 the
        # remaining relative tail is below 1e-4
        h40 = schatten_partial(spectrum(1.0, 1.0, 1.0, 0.6, 40, 40), 2.0)
        h80 = schatten_partial(spectrum(1.0, 1.0, 1.0, 0.6, 80, 80), 2.0)
        assert h40 == pytest.approx(h80, rel=1e-4)

    def test_rejects_bad_exponent(self):
        spec = spectrum(1.0, 1.0, 1.0, 0.6, 2, 2)
        with pytest.raises(ValueError):
            schatten_partial(spec, 0.0)

    def test_overflow_raises_without_warning(self):
        # s_(0,0) = 10.6 at w = 3, so s^2000 overflows; the sum is never inf
        spec = spectrum(1.0, 1.0, 1.0, 3.0, 3, 3)
        assert schatten_partial(spec, 200.0) < math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="overflows"):
                schatten_partial(spec, 2000.0)


class TestKwConstant:
    def test_against_dblquad(self):
        nu, alpha, beta = 1.0, 1.0, 1.0
        for w in (0.0, 1.0):
            w2 = abs(w) ** 2

            def integrand(t, s):
                return (
                    math.exp(nu * (s + t - 2 * s * t) * w2 / (1.0 - s * t))
                    * (1.0 - s) ** alpha
                    * (1.0 - t) ** beta
                    / (1.0 - s * t)
                )

            want, err = dblquad(integrand, 0.0, 1.0, 0.0, 1.0, epsabs=1e-12)
            got = kw_constant(nu, alpha, beta, w)
            assert isinstance(got, KwBracket)
            assert got.value == pytest.approx(nu * math.pi * want, rel=1e-8)

    def test_bracket_contains_value(self):
        for nu, alpha, beta, w in [(1.0, 1.0, 1.0, 0.0), (2.0, 0.5, 1.5, 0.8j)]:
            kw = kw_constant(nu, alpha, beta, w)
            assert kw.lower <= kw.value <= kw.upper
            assert kw.lower == pytest.approx(nu * math.pi / ((alpha + 1) * (beta + 1)))

    def test_requires_bounded_regime(self):
        with pytest.raises(ValueError):
            kw_constant(1.0, 0.0, 1.0, 0.0)

    def test_underflowing_weights_overflow_by_name(self):
        # alpha beta underflows to 0; the upper bound overflows to inf instead
        with pytest.raises(OverflowError, match="kw_constant"):
            kw_constant(1.0, 1e-200, 1e-200, 1.0)


class TestOperatorNormBound:
    def test_dominates_singular_values(self):
        # k_w^{1/2} bounds the operator norm of the dual transform
        nu, alpha, beta, w = 1.0, 1.0, 1.0, 0.9 + 0.4j
        bound = math.sqrt(kw_constant(nu, alpha, beta, w).value)
        spec = spectrum(nu, alpha, beta, w, 12, 12)
        assert float(np.max(spec.values)) <= bound

    def test_schatten_envelope(self):
        # s_{m,n} <= (nu/pi)^{1/2} e^{nu|w|^2/2} gamma^{1/2}, the envelope of
        # `schatten_bound`, which s_{0,0} meets at w = 0; without (nu/pi)^{1/2}
        # it fails for nu > pi
        ms = np.arange(41)
        root_gamma = np.sqrt(gamma_norm(1.0, 1.0, ms[:, None], ms))
        for nu in (0.5, 2.0, 4.0):
            for w in (0.0, 0.3, 1.0 + 0.5j):
                spec = spectrum(nu, 1.0, 1.0, w, 40, 40).values
                old = math.exp(nu * abs(w) ** 2 / 2.0) * root_gamma
                assert np.all(spec <= (1.0 + 1e-12) * math.sqrt(nu / math.pi) * old)
                if nu == 4.0 and w == 0.0:
                    assert spec[0, 0] > old[0, 0]


class TestFiniteRankTail:
    def test_telescoping_value(self):
        # at alpha = beta = 1 the per-axis tail telescopes:
        # sum_{m>p} m! / Gamma(m+3) = sum_{m>p} 1/(m+1) - 1/(m+2) = 1/(p+2)
        p, q = 5, 9
        want = math.exp(1.0) * math.pi**2 / ((p + 2) * (q + 2))
        assert finite_rank_tail(1.0, 1.0, 1.0, 1.0, p, q) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha,beta,p,q", [(0.5, 2.5, 0, 3), (1.7, 1.2, 150, 20)])
    def test_matches_full_series(self, alpha, beta, p, q):
        # the whole double series, summed by mpmath with no degree cap; the
        # terms decay only like m^(-alpha-1), so Euler-Maclaurin summation
        def axis(a, cut):
            return mpmath.nsum(
                lambda m: mpmath.gamma(m + 1) / mpmath.gamma(m + a + 2),
                [cut + 1, mpmath.inf],
                method="euler-maclaurin",
            )

        nu, w = 0.8, 0.6 - 0.9j
        want = (
            mpmath.exp(nu * abs(w) ** 2)
            * mpmath.pi**2
            * mpmath.gamma(alpha + 1)
            * mpmath.gamma(beta + 1)
            * axis(alpha, p)
            * axis(beta, q)
        )
        got = finite_rank_tail(nu, alpha, beta, w, p, q)
        assert got == pytest.approx(float(want), rel=1e-10)

    def test_monotone_decreasing(self):
        vals = [finite_rank_tail(1.0, 1.0, 1.0, 0.5, p, p) for p in (2, 5, 10, 50)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            finite_rank_tail(1.0, 0.0, 1.0, 0.0, 2, 2)
        with pytest.raises(ValueError):
            finite_rank_tail(1.0, 1.0, 1.0, 0.0, -1, 2)

    def test_underflowing_weights_overflow_by_name(self):
        with pytest.raises(OverflowError, match="finite_rank_tail"):
            finite_rank_tail(1.0, 1e-200, 1e-200, 1.0, 2, 2)
