import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gamma as gamma_fn

from itofrft import kernels, quadrature, transforms
from itofrft.ito_hermite import psi_table
from itofrft.kernels import TransformParams, frft_kernel, frft_kernel_raw
from itofrft.quadrature import bidisk_rule, integrate, plane_rule, quadrant_rule
from itofrft.specfun import scipy_special
from itofrft.spectral import gamma_norm
from itofrft.transforms import (
    HANKEL_NODES,
    CoeffFunction,
    RadialFunction,
    adjoint_apply,
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
        assert f(z) == pytest.approx(2.0 * psi_table(1.0, z, 0, 0)[0, 0] + 1.0j * psi_table(1.0, z, 1, 0)[1, 0])

    @pytest.mark.parametrize("a", [math.nan, math.inf, complex(0.0, -math.inf), complex(1.0, math.nan)])
    def test_nonfinite_coefficient_rejected(self, a):
        with pytest.raises(ValueError, match="not finite"):
            CoeffFunction(nu=1.0, coeffs={(0, 0): 1.0, (2, 1): a})

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
                want = p.u**m * p.v**n * psi_table(1.0, xi, m, n)[m, n]
                assert frft_apply(p, f, xi, rule) == pytest.approx(want, abs=1e-11)

    def test_linearity(self, rule):
        p = TransformParams(1.0, 0.3, 0.2)
        f = CoeffFunction(nu=1.0, coeffs={(1, 0): 2.0, (0, 2): -1.0j})
        xi = 0.5 + 0.1j
        want = 2.0 * p.u * psi_table(1.0, xi, 1, 0)[1, 0] - 1.0j * p.v**2 * psi_table(1.0, xi, 0, 2)[0, 2]
        assert frft_apply(p, f, xi, rule) == pytest.approx(want, abs=1e-11)

    def test_rule_mismatch_rejected(self, rule):
        p = TransformParams(2.0, 0.3, 0.2)
        f = CoeffFunction(nu=2.0, coeffs={(0, 0): 1.0})
        with pytest.raises(ValueError):
            frft_apply(p, f, 0.0, rule)  # rule was built for nu = 1
        with pytest.raises(ValueError):
            frft_apply(p, f, 0.0, bidisk_rule(1.0, 1.0, 8, 8))

    @pytest.mark.parametrize("xi,u", [(5.0, 0.9), (10.0, 0.9), (20.0, 0.5)])
    def test_far_field_eigenrelation(self, xi, u):
        # plane quadrature missed these by 2e-4, 0.18 and 1.2e-3 relative
        f = CoeffFunction(nu=1.0, coeffs={(2, 1): 1.0})
        want = u**3 * psi_table(1.0, xi, 2, 1)[2, 1]  # u^2 v with v = u
        got = frft_apply(TransformParams(1.0, u, u), f, xi)
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_other_nu(self, rule):
        # the psi of the nu = 1 basis are not eigenfunctions at nu = 2
        f = CoeffFunction(nu=1.0, coeffs={(1, 0): 1.0})
        with pytest.raises(ValueError, match="nu"):
            frft_apply(TransformParams(2.0, 0.3, 0.2), f, 0.5)

    def test_callable_needs_rule(self):
        with pytest.raises(ValueError, match="rule"):
            frft_apply(TransformParams(1.0, 0.3, 0.2), lambda z: z, 0.5)

    def test_quadrature_route_matches_exact_route(self, rule):
        p = TransformParams(1.0, 0.35 + 0.2j, -0.5)
        f = CoeffFunction(nu=1.0, coeffs={(0, 0): 0.5, (2, 1): 1.0 - 0.5j, (1, 3): 0.25j})
        for xi in (0.0, 0.6 - 0.4j, -1.1 + 0.3j):
            quad = frft_apply(p, lambda z: f(z), xi, rule)
            assert frft_apply(p, f, xi, rule) == pytest.approx(quad, abs=1e-11)

    @pytest.mark.parametrize("count", [3, 100])
    def test_array_uv_broadcast_on_both_routes(self, rule, count):
        # a column of three (u, v) against a row of targets: the quadrature
        # route took the diagonal at 3 targets and raised at 100
        rng = np.random.default_rng(11)
        p = TransformParams(1.0, np.array([[0.3], [0.5j], [-0.4 + 0.1j]]), np.array([[0.5], [0.2], [0.4j]]))
        f = CoeffFunction(nu=1.0, coeffs={(0, 0): 0.5, (2, 1): 1.0 - 0.5j, (1, 3): 0.25j})
        xi = 0.8 * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
        exact = frft_apply(p, f, xi)
        quad = frft_apply(p, lambda z: f(z), xi, rule)
        assert exact.shape == quad.shape == (3, count)
        np.testing.assert_allclose(quad, exact, rtol=0, atol=1e-11)

    def test_table_samples_give_leading_axes(self, rule):
        # a psi table's images, leading axes first: psi_{m,n} -> u^m v^n psi_{m,n}
        p = TransformParams(1.0, np.array([0.3, -0.2j]), 0.45)
        xi = np.array([[0.2 - 0.1j], [-0.6 + 0.5j]])
        got = frft_apply(p, lambda z: psi_table(1.0, z, 3, 2), xi, rule)
        assert got.shape == (4, 3, 2, 2)
        k = np.arange(4)[:, None, None, None], np.arange(3)[None, :, None, None]
        want = p.u ** k[0] * p.v ** k[1] * psi_table(1.0, np.broadcast_to(xi, (2, 2)), 3, 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert frft_apply(p, lambda z: psi_table(1.0, z, 3, 2), 0.5, rule).shape == (4, 3, 2)

    def test_exact_route_runs_no_quadrature(self, monkeypatch):
        import itofrft.transforms as transforms

        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature called on the exact route")

        monkeypatch.setattr(transforms, "integrate", forbidden)
        monkeypatch.setattr(transforms, "frft_kernel_raw", forbidden)
        f = CoeffFunction(nu=1.0, coeffs={(1, 2): 1.0, (0, 0): -0.5})
        p = TransformParams(1.0, 0.4, 0.3j)
        xi = 0.7 + 0.1j
        want = 0.4 * (0.3j) ** 2 * psi_table(1.0, xi, 1, 2)[1, 2] - 0.5 * psi_table(1.0, xi, 0, 0)[0, 0]
        assert frft_apply(p, f, xi) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("route,rtol", [("exact", 1e-15), ("quadrature", 1e-14)])
    def test_array_xi_matches_pointwise(self, rule, route, rtol):
        p = TransformParams(1.0, 0.35 + 0.2j, -0.5)
        f = CoeffFunction(nu=1.0, coeffs={(0, 0): 0.5, (2, 1): 1.0 - 0.5j, (1, 3): 0.25j})
        g = f if route == "exact" else (lambda z: f(z))
        axis = np.linspace(-1.5, 1.5, 12)
        xis = axis[:, None] + 1j * np.linspace(-1.2, 1.4, 10)
        # on the quadrature route, more than one kernel block of points
        assert xis.size > kernels.BLOCK_ENTRIES // len(rule.nodes)
        got = frft_apply(p, g, xis, rule)
        assert got.shape == xis.shape
        want = np.array([frft_apply(p, g, xi, rule) for xi in xis.ravel()]).reshape(xis.shape)
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)

    @pytest.mark.parametrize("route", ["exact", "quadrature"])
    def test_scalar_xi_returns_complex(self, rule, route):
        f = CoeffFunction(nu=1.0, coeffs={(1, 0): 1.0})
        g = f if route == "exact" else (lambda z: f(z))
        assert type(frft_apply(TransformParams(1.0, 0.3, 0.2), g, 0.5 - 0.1j, rule)) is complex

    @pytest.mark.parametrize("route", ["exact", "quadrature"])
    def test_nan_in_array_xi_rejected(self, rule, route):
        f = CoeffFunction(nu=1.0, coeffs={(1, 0): 1.0})
        g = f if route == "exact" else (lambda z: f(z))
        xis = np.array([[0.1, 0.2j], [math.nan, 0.3]])
        with pytest.raises(ValueError, match="finite"):
            frft_apply(TransformParams(1.0, 0.3, 0.2), g, xis, rule)

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
        # a plain callable, so that frft_apply integrates on the rule
        quad = frft_apply(TransformParams(1.0, *uv), lambda z: f(z), w, rule)
        assert dual_apply_coeff(1.0, w, f, uv) == pytest.approx(quad, abs=1e-11)

    def test_coeff_route(self):
        f = CoeffFunction(nu=1.0, coeffs={(2, 1): 3.0})
        w, u, v = 1.0 - 0.5j, 0.3, 0.6j
        want = 3.0 * psi_table(1.0, w, 2, 1)[2, 1] * u**2 * v
        assert dual_apply_coeff(1.0, w, f, (u, v)) == pytest.approx(want, rel=1e-13)

    def test_coeff_route_broadcasts(self):
        f = CoeffFunction(nu=1.0, coeffs={(1, 0): 1.0})
        us = np.linspace(-0.5, 0.5, 5)
        out = dual_apply_coeff(1.0, 2.0, f, (us, 0.0))
        np.testing.assert_allclose(out, psi_table(1.0, 2.0, 1, 0)[1, 0] * us, rtol=1e-13)

    AGREE_RTOL = 1e-14  # relative to the largest entry of the reference

    @staticmethod
    def per_term(nu, w, f, u, v):
        """sum a_{m,n} psi_{m,n}(w) u^m v^n, one term at a time."""
        shape = np.broadcast_shapes(np.shape(u), np.shape(v))
        out = np.zeros(shape, dtype=complex)
        for (m, n), a in f.coeffs.items():
            out += a * psi_table(nu, w, m, n)[m, n] * np.asarray(u) ** m * np.asarray(v) ** n
        return out

    @pytest.mark.parametrize(
        "u_shape, v_shape",
        [
            ((6, 1), (1, 5)),
            ((1, 5), (6, 1)),
            ((6,), ()),
            ((), (6,)),
            ((6, 1, 1), (1, 4, 3)),
            ((6, 1, 3), (1, 4, 1)),
            ((6,), (6,)),
            ((6, 5), (1, 5)),
            ((), ()),
        ],
        ids=["column_row", "row_column", "array_scalar", "scalar_array", "column_block",
             "interleaved", "elementwise", "overlapping", "scalars"],
    )
    def test_agrees_with_per_term_sum(self, u_shape, v_shape):
        nu, w = 1.3, 0.7 - 0.4j
        f = CoeffFunction(nu=nu, coeffs={(0, 0): 0.5, (3, 5): 1.0 - 2.0j, (8, 2): -0.75j})
        rng = np.random.default_rng(5)
        u, v = (
            0.65 * (rng.uniform(-1, 1, s) + 1j * rng.uniform(-1, 1, s)) for s in (u_shape, v_shape)
        )
        got = dual_apply_coeff(nu, w, f, (u, v))
        want = self.per_term(nu, w, f, u, v)
        assert np.shape(got) == want.shape
        if want.shape == ():
            assert type(got) is complex
        assert np.max(np.abs(got - want)) <= self.AGREE_RTOL * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "u, v",
        [(np.full((3, 1), 0.5), np.full((1, 4), 0.2j)), (np.full(3, 0.5), np.full(3, 0.2j))],
        ids=["grid", "elementwise"],
    )
    def test_empty_function_gives_zeros_of_broadcast_shape(self, u, v):
        out = dual_apply_coeff(1.0, 1.0, CoeffFunction(nu=1.0, coeffs={}), (u, v))
        assert out.shape == np.broadcast_shapes(u.shape, v.shape)
        assert not np.any(out)

    def test_empty_grid(self):
        f = CoeffFunction(nu=1.0, coeffs={(1, 2): 1.0})
        out = dual_apply_coeff(1.0, 0.5, f, (np.zeros((0, 1)), np.full((1, 5), 0.3)))
        assert out.shape == (0, 5)

    def test_array_w_rejected(self):
        # an array w would broadcast against the (u, v) arrays
        f = CoeffFunction(nu=1.0, coeffs={(1, 0): 1.0})
        us = np.linspace(-0.5, 0.5, 3)
        with pytest.raises(TypeError):
            dual_apply_coeff(1.0, np.array([0.5, 1.0, 1.5]), f, (us, 0.0))

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
        quad = frft_apply(TransformParams(1.0, 0.5, 0.5), lambda z: f(z), 1.0, rule)
        assert abs(quad) < 1e-12


class TestAdjoint:
    def test_zero_input(self):
        brule = bidisk_rule(1.0, 1.0, 8, 8)
        assert adjoint_apply(1.0, 0.5, lambda u, v: 0.0, 0.3, brule) == 0.0

    def test_rule_validation(self, rule):
        with pytest.raises(ValueError):
            adjoint_apply(1.0, 0.5, lambda u, v: 1.0, 0.3, rule)

    def test_array_z_matches_pointwise(self):
        nu, w, alpha, beta = 1.0, 0.7 - 0.2j, 1.0, 0.5
        brule = bidisk_rule(alpha, beta, 8, 8)
        g = lambda u, v: 1.0 + u * np.conj(v) - 0.5j * v**2
        rng = np.random.default_rng(3)
        zs = (rng.standard_normal(300) + 1j * rng.standard_normal(300)).reshape(20, 15)
        # more than one kernel block of points
        assert zs.size > kernels.BLOCK_ENTRIES // len(brule.weights)
        got = adjoint_apply(nu, w, g, zs, brule)
        assert got.shape == zs.shape
        want = np.array(
            [adjoint_apply(nu, w, g, z, brule) for z in zs.ravel()]
        ).reshape(zs.shape)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_table_valued_g_gives_leading_axes(self):
        brule = bidisk_rule(1.0, 0.5, 6, 6)
        zs = np.array([0.3 - 0.1j, -0.5j, 1.2])
        parts = (lambda u, v: u + v, lambda u, v: u * np.conj(v))
        got = adjoint_apply(1.0, 0.4, lambda u, v: np.stack([g(u, v) for g in parts]), zs, brule)
        assert got.shape == (2, 3)
        for row, g in zip(got, parts):
            np.testing.assert_allclose(row, adjoint_apply(1.0, 0.4, g, zs, brule), rtol=1e-14)

    def test_weights_come_from_the_rule(self):
        # at g = 1 the adjoint integrates conj(K) against the rule's own measure
        z, w = 0.3 - 0.2j, 0.5
        for alpha, beta in ((1.0, 1.0), (2.0, 0.5)):
            brule = bidisk_rule(alpha, beta, 8, 8)
            want = integrate(brule, lambda u, v: np.conj(frft_kernel_raw(1.0, u, v, z, w)))
            assert adjoint_apply(1.0, w, lambda u, v: 1.0, z, brule) == pytest.approx(want, rel=1e-14)

    def test_scalar_z_returns_complex(self):
        brule = bidisk_rule(1.0, 1.0, 8, 8)
        out = adjoint_apply(1.0, 0.5, lambda u, v: u + v, 0.3 - 0.1j, brule)
        assert type(out) is complex

    def test_nonfinite_sample_rejected(self):
        brule = bidisk_rule(1.0, 1.0, 8, 8)
        with pytest.raises(ValueError, match="non-finite"):
            adjoint_apply(
                1.0, 0.5, lambda u, v: np.where(u == u.flat[3], np.nan, 1.0),
                np.zeros(4), brule,
            )

    def test_recovers_gram_coefficient(self, rule):
        # adjoint(dual(psi_{m,n})) = gamma_{m,n} |psi_{m,n}(w)|^2 psi_{m,n},
        # the Gram operator's diagonal action; compare at one planar point
        # the kernel decays like exp(-c/(1-st)) toward the bi-disk corner, so
        # the quadrature converges slowly there; 1e-4 is what a 16x32 rule buys
        nu, alpha, beta, m, n, w = 1.0, 1.0, 1.0, 1, 0, 0.5 + 0.2j
        brule = bidisk_rule(alpha, beta, 16, 32)
        g = lambda u, v: psi_table(nu, w, m, n)[m, n] * u**m * v**n
        z = 0.3 - 0.2j
        want = (
            gamma_norm(alpha, beta, m, n)
            * abs(psi_table(nu, w, m, n)[m, n]) ** 2
            * psi_table(nu, z, m, n)[m, n]
        )
        got = adjoint_apply(nu, w, g, z, brule)
        assert got == pytest.approx(want, rel=1e-4)


class TestBergmanNorm:
    def test_constant(self):
        assert bergman_norm({(0, 0): 1.0}, 0.0, 0.0) == pytest.approx(math.pi)

    def test_empty(self):
        assert bergman_norm({}, 1.0, 1.0) == 0.0

    def test_numpy_indices(self):
        coeffs = {(np.int64(2), np.int32(1)): 0.5j, (0, 3): 1.0}
        assert bergman_norm(coeffs, 1.0, 0.5) == bergman_norm({(2, 1): 0.5j, (0, 3): 1.0}, 1.0, 0.5)

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
        full = frft_apply(TransformParams(nu, u, v), lambda z: f(z), xi, rule)
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

    def test_array_y_matches_pointwise(self):
        nu, u, v = 1.0, 0.4, 0.3
        f = CoeffFunction(nu=nu, coeffs={(2, 1): 1.0, (3, 2): 0.5j})  # one mode, k = 1
        prof = RadialFunction.from_coeff(f)  # the quadrature route, not the exact one
        ys = np.linspace(0.0, 3.0, 21).reshape(3, 7)
        got = hankel_apply(nu, 1, u, v, prof, ys)
        assert got.shape == ys.shape
        want = np.array([hankel_apply(nu, 1, u, v, prof, y) for y in ys.ravel()]).reshape(ys.shape)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.max(np.abs(want)))

    def test_coeff_function_is_exact(self):
        # a finite expansion goes by the eigenrelation, as the 2D transform
        # at xi = y, where the Laguerre rule lost the value (2449.3 against
        # 93471.4 at y = 40, 7e-306 against 9.16e6 at y = 100)
        nu, u, v = 1.0, 0.5, 0.3
        f = CoeffFunction(nu=nu, coeffs={(1, 0): 1.0, (3, 2): 0.5})  # one mode, k = 1
        ys = np.array([0.5, 40.0, 100.0])
        got = hankel_apply(nu, 1, u, v, f, ys)
        np.testing.assert_array_equal(got, frft_apply(TransformParams(nu, u, v), f, ys + 0j))
        assert got[1] == pytest.approx(93471.39213959182, rel=1e-14)
        # near the origin the quadrature route agrees
        assert got[0] == pytest.approx(hankel_apply(nu, 1, u, v, RadialFunction.from_coeff(f), 0.5),
                                       rel=1e-12)
        assert type(hankel_apply(nu, 1, u, v, f, 0.5)) is complex

    @pytest.mark.parametrize("order", [0, 2])
    def test_coeff_function_needs_the_order_mode(self, order):
        f = CoeffFunction(nu=1.0, coeffs={(1, 0): 1.0, (3, 2): 0.5})  # mode k = 1
        with pytest.raises(ValueError, match="m - n = order"):
            hankel_apply(1.0, order, 0.3, 0.3, f, 1.0)

    def test_scalar_y_returns_complex(self):
        assert type(hankel_apply(1.0, 0, 0.3, 0.3, lambda x: np.ones_like(x), 0.5)) is complex
        assert type(hankel_apply(1.0, 0, 0.3, 0.3, lambda x: np.ones_like(x), np.float64(0.5))) is complex

    @pytest.mark.parametrize(
        "bad,error,match",
        [(math.nan, ValueError, "finite"), (-0.5, ValueError, ">= 0, got -0.5"),
         (1e200, OverflowError, "y=1e\\+200 overflows")],
        ids=["nan", "negative", "overflow"],
    )
    def test_bad_entry_in_array_y(self, bad, error, match):
        ys = np.array([0.0, 0.5, bad, 1.0])
        with np.errstate(all="raise"), pytest.raises(error, match=match):
            hankel_apply(1.0, 0, 0.3, 0.3, lambda x: np.ones_like(x), ys)

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

    @pytest.mark.parametrize("order", [0.5, math.nan, math.inf], ids=["half", "nan", "inf"])
    def test_order_is_a_nonnegative_integer(self, order):
        # the Laguerre rule is accurate at the integer orders of the angular
        # modes (an integral float such as 2.0 is one, see test_zero_profile);
        # at order 0.5 it was off by 1.8e-4 with no error
        with pytest.raises(ValueError, match="order"):
            hankel_apply(1.0, order, 0.3, 0.3, lambda x: x**0.5, 1.0)

    def test_rule_built_once(self, monkeypatch):
        # plane rules and Hankel transforms share one Gauss-Laguerre rule per
        # node count, built on first use; sharing it leaves the values as
        # they were with a rule of the transform's own
        prof = lambda x: np.exp(-x)
        ys = (0.0, 0.5, 1.0, 2.0)
        quadrature._laguerre.cache_clear()
        alone = [hankel_apply(1.0, 1, 0.3, 0.4, prof, y) for y in ys]
        sp = scipy_special()
        build, built = sp.roots_genlaguerre, []
        monkeypatch.setattr(sp, "roots_genlaguerre", lambda *args: built.append(args) or build(*args))
        quadrature._laguerre.cache_clear()
        try:
            plane_rule(0.5)
            plane_rule(2.0)
            shared = [hankel_apply(1.0, 1, 0.3, 0.4, prof, y) for y in ys]
            t, wt = quadrature._laguerre(HANKEL_NODES)
        finally:
            quadrature._laguerre.cache_clear()
        assert built == [(HANKEL_NODES, 0.0)]
        assert shared == alone
        with pytest.raises(ValueError):
            t[0] = 0.0
        with pytest.raises(ValueError):
            wt[0] = 0.0

    def test_large_radius_overflows(self):
        # y^2 overflows double precision: an error, not nan+nanj with warnings
        with np.errstate(all="raise"), pytest.raises(OverflowError):
            hankel_apply(1.0, 0, 0.3, 0.3, lambda r: r * 0 + 1, 1e308)


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

    def test_rejects_non_integer_mode(self):
        with pytest.raises(ValueError, match="order"):
            rotational_frft(1.0, 0.4, 0.3, 1.5, lambda r: r**1.5, 1.0)


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
            got = bargmann2_apply(phi, (z, w), qrule)
            assert got == pytest.approx(want, rel=1e-8), (m, n)

    def test_zero_input(self):
        qrule = quadrant_rule(0.0, 0.0, 16)
        assert bargmann2_apply(lambda s, t: 0.0, (0.1, 0.1), qrule) == 0.0

    def test_rejects_outside_disk(self):
        qrule = quadrant_rule(0.0, 0.0, 8)
        with pytest.raises(ValueError):
            bargmann2_apply(lambda s, t: 1.0, (1.0, 0.0), qrule)

    def test_rule_kind_checked(self):
        with pytest.raises(ValueError):
            bargmann2_apply(lambda s, t: 1.0, (0.1, 0.1), plane_rule(1.0, 8, 8))

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.5, 0.5)])
    def test_weights_come_from_the_rule(self, alpha, beta):
        # phi = 1 maps to Gamma(alpha+1) Gamma(beta+1) at the rule's alpha, beta:
        # the prefactor cancels the integral's (1-z)^{alpha+1} (1-w)^{beta+1}
        z, w = 0.3, -0.2 + 0.1j
        want = gamma_fn(alpha + 1.0) * gamma_fn(beta + 1.0)
        got = bargmann2_apply(lambda s, t: 1.0, (z, w), quadrant_rule(alpha, beta, 48))
        assert got == pytest.approx(want, rel=1e-10)


class TestRadialFunction:
    def test_wraps_callable(self):
        f = RadialFunction(profile=lambda r: r**2)
        assert f(3.0) == 9.0

    def test_from_coeff(self):
        g = CoeffFunction(nu=1.0, coeffs={(0, 0): 1.0})
        f = RadialFunction.from_coeff(g)
        assert f(np.array([0.0, 1.0]))[0] == pytest.approx(1.0 / math.sqrt(math.pi))
