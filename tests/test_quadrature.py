import math
import re

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from itofrft.ito_hermite import psi_table
from itofrft.quadrature import (
    QuadratureRule,
    bidisk_rule,
    integrate,
    plane_rule,
    quadrant_rule,
)


class TestPlaneRule:
    def test_total_mass(self):
        for nu in (0.5, 1.0, 3.0):
            rule = plane_rule(nu, 32, 16)
            assert integrate(rule, lambda z: 1.0) == pytest.approx(math.pi / nu, rel=1e-13)

    def test_monomial_moments(self):
        # int z^a conj(z)^b e^{-nu |z|^2} dA = delta_{ab} pi a! / nu^{a+1}
        nu = 1.3
        rule = plane_rule(nu, 16, 32)
        for a in range(6):
            for b in range(6):
                got = integrate(rule, lambda z: z**a * np.conj(z) ** b)
                want = math.pi * math.factorial(a) / nu ** (a + 1) if a == b else 0.0
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (a, b)

    def test_psi_orthonormality_sample(self):
        nu = 2.0
        rule = plane_rule(nu, 48, 32)
        P = psi_table(nu, rule.nodes, 3, 3)
        assert integrate(rule, lambda z: np.abs(P[2, 3]) ** 2) == pytest.approx(1.0, rel=1e-12)
        assert abs(integrate(rule, lambda z: P[2, 3] * np.conj(P[1, 0]))) < 1e-12

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            plane_rule(-1.0)
        with pytest.raises(ValueError):
            plane_rule(1.0, 0, 8)


class TestBidiskRule:
    def test_total_mass(self):
        # per disk: int (1-|u|^2)^alpha dA = pi / (alpha + 1)
        for alpha, beta in [(0.0, 0.0), (1.0, 0.5)]:
            rule = bidisk_rule(alpha, beta, 16, 8)
            got = integrate(rule, lambda u, v: 1.0)
            assert got == pytest.approx(math.pi**2 / ((alpha + 1) * (beta + 1)), rel=1e-12)

    def test_monomial_moments(self):
        alpha, beta = 1.5, 0.5
        rule = bidisk_rule(alpha, beta, 24, 8)
        for m in range(4):
            for n in range(4):
                got = integrate(
                    rule, lambda u, v: np.abs(u) ** (2 * m) * np.abs(v) ** (2 * n)
                )
                want = (
                    math.pi**2
                    * gamma_fn(m + 1) * gamma_fn(alpha + 1) / gamma_fn(m + alpha + 2)
                    * gamma_fn(n + 1) * gamma_fn(beta + 1) / gamma_fn(n + beta + 2)
                )
                assert got == pytest.approx(want, rel=1e-11), (m, n)

    def test_rotational_moments_vanish(self):
        rule = bidisk_rule(0.0, 0.0, 8, 8)
        assert abs(integrate(rule, lambda u, v: u * np.conj(v))) < 1e-14
        assert abs(integrate(rule, lambda u, v: u**2)) < 1e-14


class TestQuadrantRule:
    def test_total_mass(self):
        alpha, beta = 0.7, 2.0
        rule = quadrant_rule(alpha, beta, 24)
        got = integrate(rule, lambda s, t: 1.0)
        assert got == pytest.approx(gamma_fn(alpha + 1) * gamma_fn(beta + 1), rel=1e-12)

    def test_polynomial_exactness(self):
        rule = quadrant_rule(1.0, 0.0, 16)
        # int s^{1+2} e^{-s} ds * int t e^{-t} dt = 3! * 1!
        got = integrate(rule, lambda s, t: s**2 * t)
        assert got == pytest.approx(6.0, rel=1e-13)


class TestRuleObjects:
    def test_immutable_arrays(self):
        rule = plane_rule(1.0, 8, 8)
        with pytest.raises(ValueError):
            rule.weights[0] = 2.0
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule("plane", np.zeros(3, complex), np.ones(2))

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule("plane", np.zeros(2, complex), np.array([1.0, 0.0]))

    def test_integrate_rejects_nonfinite(self):
        rule = plane_rule(1.0, 8, 8)
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="non-finite"):
            integrate(rule, lambda z: 1.0 / (np.abs(z) - np.abs(rule.nodes[0])))

    def test_scalar_integrand_broadcast(self):
        rule = bidisk_rule(0.0, 0.0, 8, 8)
        assert integrate(rule, lambda u, v: 2.0) == pytest.approx(2 * math.pi**2)

    def test_table_valued_integrand_gives_leading_axes(self):
        # axes ahead of those that broadcast to the rule's grid lead the result
        got = integrate(plane_rule(1.0), lambda z: np.stack([z, z]))
        assert got.shape == (2,) and np.all(np.abs(got) < 1e-14)
        got = integrate(plane_rule(1.0, 8, 8), lambda z: np.stack([np.ones_like(z), np.abs(z) ** 2]))
        np.testing.assert_allclose(got, [math.pi, math.pi], rtol=1e-13)
        rule = bidisk_rule(0.0, 0.0, 8, 8)
        got = integrate(rule, lambda u, v: np.array([1.0, 2.0])[:, None, None] * np.abs(v) ** 2)
        np.testing.assert_allclose(got, [math.pi**2 / 2, math.pi**2], rtol=1e-13)
        # a non-finite sample of a later table entry still names its node
        with pytest.raises(ValueError, match="non-finite integrand sample at node"):
            integrate(rule, lambda u, v: np.stack(np.broadcast_arrays(u * v, np.where(v == v.flat[2], np.nan, u))))


class TestTensorGrid:
    """Tensor rules call f once on the broadcast (x[:, None], y[None, :]) grid
    of their axes; the result must equal the sum over the flat node columns,
    built from the axes in weight order."""

    RULES = {
        "bidisk": lambda: bidisk_rule(1.0, 0.5, 6, 5),
        "quadrant": lambda: quadrant_rule(0.5, 1.5, 12),
    }
    INTEGRANDS = {
        "first_only": lambda x, y: np.exp(-0.5 * x) + x**2,
        "second_only": lambda x, y: np.conj(y) ** 3 - 0.25j * y,
        "scalar": lambda x, y: 2.0 - 1.0j,
        "full_grid": lambda x, y: np.exp(0.3 * x * np.conj(y)) / (2.0 + x + y),
    }

    @pytest.mark.parametrize("kind", sorted(RULES))
    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    def test_matches_flat_columns(self, kind, name):
        rule, f = self.RULES[kind](), self.INTEGRANDS[name]
        x, y = rule.axes
        assert len(x) * len(y) == len(rule.weights)
        flat = np.broadcast_to(f(np.repeat(x, len(y)), np.tile(y, len(x))), rule.weights.shape)
        want = complex(np.dot(rule.weights, flat))
        assert integrate(rule, f) == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_axes_match_nodes(self):
        # the grid is stored once, as its read-only axes, and weight
        # i * len(y) + j belongs to the node (x_i, y_j)
        rule = bidisk_rule(0.0, 1.0, 4, 3)
        x, y = rule.axes
        assert rule.nodes is None
        assert len(rule.weights) == len(x) * len(y) == 144
        k = 5 * len(y) + 7
        picked = integrate(rule, lambda u, v: (u == x[5]) & (v == y[7]))
        assert picked == rule.weights[k]
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_nonfinite_names_the_node(self):
        rule = bidisk_rule(1.0, 1.0, 4, 4)
        x, y = rule.axes
        target = (x[5], y[7])

        def f(u, v):
            return np.where((u == target[0]) & (v == target[1]), np.inf, 1.0)

        with pytest.raises(ValueError, match=re.escape("at node %r" % (target,))):
            integrate(rule, f)
