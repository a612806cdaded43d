import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad

from itofrft.quadrature import bidisk_rule, integrate
from itofrft.spectral import (
    BergmanParams,
    KwBracket,
    finite_rank_tail,
    gamma_norm,
    kw_constant,
    operator_norm_bound,
    schatten_partial,
    singular_value,
    spectrum,
)


class TestBergmanParams:
    def test_regimes(self):
        assert BergmanParams(1.0, 0.5).bounded_regime
        assert not BergmanParams(0.0, 1.0).bounded_regime
        with pytest.raises(ValueError):
            BergmanParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            BergmanParams(0.0, 1.0).require_bounded()


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

    def test_broadcasts_over_indices(self):
        ms, ns = np.arange(5)[:, None], np.arange(3)
        grid = gamma_norm(1.5, 0.5, ms, ns)
        assert grid.shape == (5, 3)
        for m in range(5):
            for n in range(3):
                assert grid[m, n] == gamma_norm(1.5, 0.5, m, n)


class TestSingularValue:
    def test_base_value(self):
        assert singular_value(1.0, 1.0, 1.0, 0, 0, 0.0) == pytest.approx(
            math.sqrt(math.pi) / 2.0
        )

    def test_vanishes_on_zero_circle(self):
        assert singular_value(1.0, 1.0, 1.0, 1, 1, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_requires_bounded_regime(self):
        with pytest.raises(ValueError):
            singular_value(1.0, 0.0, 1.0, 0, 0, 0.0)


class TestSpectrum:
    def test_matches_scalar_route(self):
        spec = spectrum(1.0, 1.0, 0.5, 0.7 + 0.2j, 4, 3)
        assert spec.values.shape == (5, 4)
        for m in range(5):
            for n in range(4):
                assert spec[m, n] == pytest.approx(
                    singular_value(1.0, 1.0, 0.5, m, n, 0.7 + 0.2j), rel=1e-12
                )

    def test_sorted_values_decreasing(self):
        spec = spectrum(1.0, 1.0, 1.0, 0.5, 6, 6)
        vals = [s for _, s in spec.sorted_values()]
        assert vals == sorted(vals, reverse=True)

    def test_values_immutable(self):
        spec = spectrum(1.0, 1.0, 1.0, 0.5, 2, 2)
        with pytest.raises(ValueError):
            spec.values[0, 0] = 1.0

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


class TestOperatorNormBound:
    def test_dominates_singular_values(self):
        nu, alpha, beta, w = 1.0, 1.0, 1.0, 0.9 + 0.4j
        bound = operator_norm_bound(nu, alpha, beta, w)
        spec = spectrum(nu, alpha, beta, w, 12, 12)
        assert float(np.max(spec.values)) <= bound


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
