import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gamma as gamma_fn

from itofrft.ito_hermite import psi
from itofrft.kernels import TransformParams, frft_kernel, frft_kernel_raw
from itofrft.quadrature import bidisk_rule, plane_rule, quadrant_rule
from itofrft.spectral import gamma_norm
from itofrft.transforms import (
    CoeffFunction,
    RadialFunction,
    adjoint_apply,
    angular_coefficients,
    bargmann2_apply,
    bergman_norm,
    dual_apply_coeff,
    frft_apply,
    hankel_apply,
    rotational_frft,
)


@pytest.fixture(scope="module")
def rule():
    return plane_rule(1.0, 48, 32)


class TestCoeffFunction:
    def test_evaluation(self):
        f = CoeffFunction(nu=1.0, coeffs={(0, 0): 2.0, (1, 0): 1.0j})
        z = 0.4 - 0.3j
        assert f(z) == pytest.approx(2.0 * psi(1.0, 0, 0, z) + 1.0j * psi(1.0, 1, 0, z))

    def test_zero_coefficients_dropped(self):
        f = CoeffFunction(nu=1.0, coeffs={(0, 0): 0.0, (2, 1): 1.0})
        assert set(f.coeffs) == {(2, 1)}

    def test_empty(self):
        f = CoeffFunction(nu=1.0, coeffs={})
        assert f(1.0 + 1.0j) == 0.0
        assert f.norm == 0.0

    def test_parseval_norm(self):
        f = CoeffFunction(nu=1.0, coeffs={(0, 0): 3.0, (1, 2): 4.0j})
        assert f.norm == pytest.approx(5.0)

    def test_immutable(self):
        f = CoeffFunction(nu=1.0, coeffs={(0, 0): 1.0})
        with pytest.raises(TypeError):
            f.coeffs[(1, 1)] = 2.0

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            CoeffFunction(nu=1.0, coeffs={(-1, 0): 1.0})
        with pytest.raises(ValueError):
            CoeffFunction(nu=0.0, coeffs={})


class TestFrft:
    def test_eigenrelation(self, rule):
        p = TransformParams(1.0, 0.45, -0.3j)
        for m, n in [(0, 0), (1, 0), (2, 3)]:
            f = CoeffFunction(nu=1.0, coeffs={(m, n): 1.0})
            for xi in (0.0, 0.7 - 0.2j):
                want = p.u**m * p.v**n * psi(1.0, m, n, xi)
                assert frft_apply(p, f, xi, rule) == pytest.approx(want, abs=1e-11)

    def test_linearity(self, rule):
        p = TransformParams(1.0, 0.3, 0.2)
        f = CoeffFunction(nu=1.0, coeffs={(1, 0): 2.0, (0, 2): -1.0j})
        xi = 0.5 + 0.1j
        want = 2.0 * p.u * psi(1.0, 1, 0, xi) - 1.0j * p.v**2 * psi(1.0, 0, 2, xi)
        assert frft_apply(p, f, xi, rule) == pytest.approx(want, abs=1e-11)

    def test_rule_mismatch_rejected(self, rule):
        p = TransformParams(2.0, 0.3, 0.2)
        f = CoeffFunction(nu=2.0, coeffs={(0, 0): 1.0})
        with pytest.raises(ValueError):
            frft_apply(p, f, 0.0, rule)  # rule was built for nu = 1
        with pytest.raises(ValueError):
            frft_apply(p, f, 0.0, bidisk_rule(1.0, 1.0, 8, 8))

    def test_matrix_matches_kernel(self, rule):
        us = np.array([0.3, 0.5j])
        vs = np.array([0.2, -0.4])
        # broadcast over plane nodes x parameter pairs, as the verify checks do
        K = frft_kernel_raw(1.0, us, vs, rule.nodes[:, None], 0.6 - 0.1j)
        assert K.shape == (len(rule.nodes), 2)
        p = TransformParams(1.0, 0.5j, -0.4)
        np.testing.assert_allclose(
            K[:, 1], frft_kernel(p, rule.nodes, 0.6 - 0.1j), rtol=1e-14
        )


class TestDual:
    def test_matches_frft(self, rule):
        f = CoeffFunction(nu=1.0, coeffs={(1, 1): 1.0, (0, 2): 0.5})
        w, uv = 0.8 + 0.3j, (0.4, -0.25j)
        quad = frft_apply(TransformParams(1.0, *uv), f, w, rule)
        assert dual_apply_coeff(1.0, w, f, uv) == pytest.approx(quad, abs=1e-11)

    def test_coeff_route(self):
        f = CoeffFunction(nu=1.0, coeffs={(2, 1): 3.0})
        w, u, v = 1.0 - 0.5j, 0.3, 0.6j
        want = 3.0 * psi(1.0, 2, 1, w) * u**2 * v
        assert dual_apply_coeff(1.0, w, f, (u, v)) == pytest.approx(want, rel=1e-13)

    def test_coeff_route_broadcasts(self):
        f = CoeffFunction(nu=1.0, coeffs={(1, 0): 1.0})
        us = np.linspace(-0.5, 0.5, 5)
        out = dual_apply_coeff(1.0, 2.0, f, (us, 0.0))
        np.testing.assert_allclose(out, psi(1.0, 1, 0, 2.0) * us, rtol=1e-13)

    def test_empty_function(self):
        f = CoeffFunction(nu=1.0, coeffs={})
        assert dual_apply_coeff(1.0, 1.0, f, (0.5, 0.5)) == 0.0

    def test_rejects_other_nu(self):
        # f's coefficients refer to the nu = 1 basis; reading them in the
        # nu = 2 basis would silently transform a different function
        f = CoeffFunction(nu=1.0, coeffs={(1, 0): 1.0})
        with pytest.raises(ValueError):
            dual_apply_coeff(2.0, 0.5, f, (0.3, 0.2))

    def test_vanishes_on_zero_circle(self, rule):
        # w = 1 lies on the zero circle of psi_{1,1} at nu = 1
        f = CoeffFunction(nu=1.0, coeffs={(1, 1): 1.0})
        assert abs(frft_apply(TransformParams(1.0, 0.5, 0.5), f, 1.0, rule)) < 1e-12


class TestAdjoint:
    def test_zero_input(self):
        brule = bidisk_rule(1.0, 1.0, 8, 8)
        assert adjoint_apply(1.0, 0.5, 1.0, 1.0, lambda u, v: 0.0, 0.3, brule) == 0.0

    def test_rule_validation(self, rule):
        with pytest.raises(ValueError):
            adjoint_apply(1.0, 0.5, 1.0, 1.0, lambda u, v: 1.0, 0.3, rule)
        brule = bidisk_rule(2.0, 1.0, 8, 8)
        with pytest.raises(ValueError):
            adjoint_apply(1.0, 0.5, 1.0, 1.0, lambda u, v: 1.0, 0.3, brule)

    def test_recovers_gram_coefficient(self, rule):
        # adjoint(dual(psi_{m,n})) = gamma_{m,n} |psi_{m,n}(w)|^2 psi_{m,n},
        # the Gram operator's diagonal action; compare at one planar point
        # the kernel decays like exp(-c/(1-st)) toward the bi-disk corner, so
        # the quadrature converges slowly there; 1e-4 is what a 16x32 rule buys
        nu, alpha, beta, m, n, w = 1.0, 1.0, 1.0, 1, 0, 0.5 + 0.2j
        brule = bidisk_rule(alpha, beta, 16, 32)
        g = lambda u, v: psi(nu, m, n, w) * u**m * v**n
        z = 0.3 - 0.2j
        want = (
            gamma_norm(alpha, beta, m, n)
            * abs(psi(nu, m, n, w)) ** 2
            * psi(nu, m, n, z)
        )
        got = adjoint_apply(nu, w, alpha, beta, g, z, brule)
        assert got == pytest.approx(want, rel=1e-4)


class TestBergmanNorm:
    def test_constant(self):
        assert bergman_norm({(0, 0): 1.0}, 0.0, 0.0) == pytest.approx(math.pi)

    def test_empty(self):
        assert bergman_norm({}, 1.0, 1.0) == 0.0

    def test_pythagoras(self):
        coeffs = {(1, 0): 1.0, (0, 1): 2.0j}
        want = math.sqrt(
            gamma_norm(1.0, 0.5, 1, 0) + 4.0 * gamma_norm(1.0, 0.5, 0, 1)
        )
        assert bergman_norm(coeffs, 1.0, 0.5) == pytest.approx(want, rel=1e-13)


class TestHankel:
    def test_fixed_point(self):
        # the constant profile at order 0 is fixed for every admissible (u, v)
        for u, v in [(0.3, 0.3), (0.7, 0.2)]:
            for y in (0.0, 1.0, 2.5):
                got = hankel_apply(1.0, 0.0, u, v, lambda x: np.ones_like(x), y)
                assert got == pytest.approx(1.0, rel=1e-12)

    def test_zero_profile(self):
        got = hankel_apply(1.0, 2.0, 0.4, 0.3, lambda x: np.zeros_like(x), 1.0)
        assert got == 0.0

    def test_matches_full_plane_transform(self, rule):
        # f(zeta) = psi-expansion of zeta carries the single mode k = 1
        nu, u, v = 1.0, 0.4, 0.3
        # psi_{1,0}(z) = sqrt(nu/pi) z, so this f(zeta) = zeta exactly
        f = CoeffFunction(nu=nu, coeffs={(1, 0): math.sqrt(math.pi / nu)})
        assert f(0.7 + 0.2j) == pytest.approx(0.7 + 0.2j, rel=1e-13)
        xi = 1.3
        full = frft_apply(TransformParams(nu, u, v), f, xi, rule)
        reduced = rotational_frft(nu, u, v, 1, lambda r: r + 0j, xi)
        assert reduced == pytest.approx(full, rel=1e-9)
        assert reduced == pytest.approx(u * xi, rel=1e-9)

    @pytest.mark.parametrize("order,y", [(1, 2.0), (3, 4.0)])
    def test_matches_bessel_integral(self, order, y):
        # the defining integral with mpmath's I_order, for the mode-k profile
        # x^k, against the Laguerre rule with scipy's exponentially scaled ive
        nu, u, v = 1.2, 0.5, 0.3
        ell = nu / (1.0 - u * v)
        b = 2.0 * ell * mpmath.sqrt(u * v) * y
        integral = mpmath.quad(
            lambda x: x ** (order + 1) * mpmath.besseli(order, b * x)
            * mpmath.exp(-ell * (x * x + u * v * y * y)),
            [0, 2, 5, mpmath.inf],
        )
        want = 2.0 * ell * (u / v) ** (order / 2.0) * integral
        got = hankel_apply(nu, order, u, v, lambda x: x**order, y)
        assert got == pytest.approx(complex(want), rel=1e-12)

    def test_parameter_validation(self):
        prof = lambda x: np.ones_like(x)
        with pytest.raises(ValueError):
            hankel_apply(1.0, -1.0, 0.3, 0.3, prof, 1.0)
        with pytest.raises(ValueError):
            hankel_apply(1.0, 0.0, 1.2, 0.3, prof, 1.0)
        with pytest.raises(ValueError):
            hankel_apply(1.0, 0.0, 0.3, 0.3, prof, -1.0)

    def test_nonfinite_profile_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="non-finite"):
            hankel_apply(1.0, 0.0, 0.3, 0.3, lambda x: 1.0 / (x - x[0]), 1.0)


class TestRotationalFrft:
    def test_zero_point_with_phase(self):
        assert rotational_frft(1.0, 0.4, 0.3, 2, lambda r: r**2, 0.0) == 0.0

    def test_mode_zero_matches_hankel(self):
        prof = lambda r: np.exp(-(r**2))
        a = rotational_frft(1.0, 0.4, 0.3, 0, prof, 1.5)
        b = hankel_apply(1.0, 0.0, 0.4, 0.3, prof, 1.5)
        assert a == pytest.approx(b)

    def test_rejects_negative_mode(self):
        with pytest.raises(ValueError):
            rotational_frft(1.0, 0.4, 0.3, -1, lambda r: r, 1.0)


class TestAngularCoefficients:
    def test_single_mode(self):
        out = angular_coefficients(lambda z: z, [0, 1, 2], r=1.7, n_angular=16)
        assert out[1] == pytest.approx(1.7, rel=1e-13)
        assert abs(out[0]) < 1e-14
        assert abs(out[2]) < 1e-14

    def test_constant(self):
        out = angular_coefficients(lambda z: 3.0 - 1.0j, [0], r=0.5, n_angular=8)
        assert out[0] == pytest.approx(3.0 - 1.0j)

    def test_aliasing_guard(self):
        with pytest.raises(ValueError):
            angular_coefficients(lambda z: z, [5], r=1.0, n_angular=10)


class TestBargmann2:
    def test_laguerre_basis_image(self):
        alpha, beta = 1.0, 0.5
        qrule = quadrant_rule(alpha, beta, 48)
        z, w = 0.3, -0.2 + 0.1j
        for m, n in [(0, 0), (1, 0), (2, 1)]:
            phi = lambda s, t: eval_genlaguerre(m, alpha, s) * eval_genlaguerre(n, beta, t)
            want = (
                gamma_fn(alpha + m + 1.0) / math.factorial(m)
                * gamma_fn(beta + n + 1.0) / math.factorial(n)
                * z**m * w**n
            )
            got = bargmann2_apply(alpha, beta, phi, (z, w), qrule)
            assert got == pytest.approx(want, rel=1e-8), (m, n)

    def test_zero_input(self):
        qrule = quadrant_rule(0.0, 0.0, 16)
        assert bargmann2_apply(0.0, 0.0, lambda s, t: 0.0, (0.1, 0.1), qrule) == 0.0

    def test_rejects_outside_disk(self):
        qrule = quadrant_rule(0.0, 0.0, 8)
        with pytest.raises(ValueError):
            bargmann2_apply(0.0, 0.0, lambda s, t: 1.0, (1.0, 0.0), qrule)

    def test_rule_kind_checked(self):
        with pytest.raises(ValueError):
            bargmann2_apply(0.0, 0.0, lambda s, t: 1.0, (0.1, 0.1), plane_rule(1.0, 8, 8))


class TestRadialFunction:
    def test_wraps_callable(self):
        f = RadialFunction(profile=lambda r: r**2)
        assert f(3.0) == 9.0

    def test_from_coeff(self):
        g = CoeffFunction(nu=1.0, coeffs={(0, 0): 1.0})
        f = RadialFunction.from_coeff(g)
        assert f(np.array([0.0, 1.0]))[0] == pytest.approx(1.0 / math.sqrt(math.pi))
