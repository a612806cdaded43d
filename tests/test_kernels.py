import math

import numpy as np
import pytest

from itofrft import kernels
from itofrft.kernels import (
    TransformParams,
    _contract,
    bergman_kernel,
    frft_kernel,
    frft_kernel_raw,
    mehler_closed,
    mehler_series,
)
from itofrft.quadrature import bidisk_rule, plane_rule
from itofrft.spectral import gamma_norm
from itofrft.ito_hermite import psi_table
from itofrft.transforms import adjoint_apply, frft_apply


class TestTransformParams:
    def test_accepts_open_disk(self):
        TransformParams(1.0, 0.5j, -0.99)

    @pytest.mark.parametrize("nu,u,v", [(0.0, 0.1, 0.1), (1.0, 1.0, 0.1), (1.0, 0.1, 1.0j)])
    def test_rejects_boundary(self, nu, u, v):
        with pytest.raises(ValueError):
            TransformParams(nu, u, v)

    def test_array_params_compare_and_hash(self):
        # by identity: comparing array fields raised numpy's "truth value is ambiguous"
        p = TransformParams(1.0, np.array([0.1, 0.2]), 0.3)
        q = TransformParams(1.0, np.array([0.1, 0.2]), 0.3)
        assert p == p and p != q
        assert hash(p) == hash(p)
        assert len({p, q}) == 2


class TestMehler:
    def test_degenerate_parameters(self):
        p = TransformParams(1.0, 0.0, 0.0)
        assert mehler_closed(p, 1.0 + 2.0j, -3.0) == pytest.approx(1.0)
        assert mehler_series(p, 1.0 + 2.0j, -3.0, trunc=5) == pytest.approx(1.0 / math.pi)

    def test_symmetric_in_z_w(self):
        p = TransformParams(1.3, 0.4, 0.2 + 0.3j)
        z, w = 0.7 - 0.2j, -0.5 + 0.9j
        assert mehler_closed(p, z, w) == pytest.approx(mehler_closed(p, w, z), rel=1e-14)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
    def test_series_converges_to_closed(self, nu):
        p = TransformParams(nu, 0.45, -0.3j)
        zs = np.array([0.2 + 0.1j, -0.8, 1.1j])
        closed = mehler_closed(p, zs, np.conj(zs))
        series = mehler_series(p, zs, np.conj(zs), trunc=70)
        np.testing.assert_allclose(series, nu / math.pi * closed, rtol=1e-10)

    def test_series_rejects_negative_trunc(self):
        with pytest.raises(ValueError):
            mehler_series(TransformParams(1.0, 0.1, 0.1), 0.0, 0.0, trunc=-1)


class TestFrftKernel:
    def test_degenerate_parameters(self):
        p = TransformParams(2.0, 0.0, 0.0)
        assert frft_kernel(p, 1.0j, 5.0) == pytest.approx(2.0 / math.pi)

    def test_relation_to_mehler(self):
        p = TransformParams(1.5, 0.3 + 0.1j, -0.4)
        zeta, xi = 0.6 - 1.1j, 0.9 + 0.4j
        assert frft_kernel(p, zeta, xi) == pytest.approx(
            p.nu / math.pi * mehler_closed(p, np.conj(zeta), xi), rel=1e-14
        )

    def test_hermitian_under_parameter_swap(self):
        # swapping u <-> v conjugates the kernel for real nu, real parameters
        zeta, xi = 0.5 + 0.7j, -0.3 + 0.2j
        a = frft_kernel(TransformParams(1.0, 0.4, 0.25), zeta, xi)
        b = frft_kernel(TransformParams(1.0, 0.25, 0.4), zeta, xi)
        assert a == pytest.approx(np.conj(b), rel=1e-14)

    def test_overflow_guard(self):
        p = TransformParams(1.0, 0.9, 0.0)
        # the limit is on the bare exponent, before any quadrature weight
        with pytest.raises(OverflowError, match="before quadrature weights"):
            frft_kernel(p, 30.0, 30.0)


def reference_kernel(nu, u, v, zeta, xi):
    """The kernel written directly: the exponent assembled term by term at
    full size, guarded on its real part, exponentiated and scaled."""
    zeta, xi, u, v = (np.asarray(a, dtype=complex) for a in (zeta, xi, u, v))
    uv = u * v
    num = (
        -uv * (np.abs(zeta) ** 2 + np.abs(xi) ** 2)
        + u * np.conj(zeta) * xi
        + v * zeta * np.conj(xi)
    )
    exponent = nu * num / (1.0 - uv)
    if np.max(np.real(exponent)) > 700.0:
        raise OverflowError("reference exponent real part exceeds 700")
    return nu / (math.pi * (1.0 - uv)) * np.exp(exponent)


class TestFrftKernelRaw:
    """The hoisted evaluation against the direct expression, to relative
    1e-13: the two sum the same exponent terms in another order."""

    def assert_matches(self, nu, u, v, zeta, xi):
        got = frft_kernel_raw(nu, u, v, zeta, xi)
        want = reference_kernel(nu, u, v, zeta, xi)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_scalar(self):
        self.assert_matches(1.3, 0.4 - 0.2j, 0.35j, 0.7 - 0.4j, -0.2 + 0.9j)

    def test_broadcast_column_by_row(self):
        zeta = np.array([0.0, 0.3 + 0.2j, -1.0 + 1.1j, 1.5, -0.7 - 1.2j])[:, None]
        xi = np.array([0.9j, -0.4 + 0.6j, 2.0, 0.1 - 0.1j])
        self.assert_matches(0.8, 0.5, -0.3 + 0.1j, zeta, xi)

    def test_complex_parameters_near_the_circle(self):
        # elementwise (u, v) up to modulus 0.99, as the bi-disk rules give
        rng = np.random.default_rng(5)
        radius = np.array([0.0, 0.3, 0.6, 0.9, 0.97, 0.99])
        u = radius * np.exp(2j * math.pi * rng.random(radius.size))
        v = radius[::-1] * np.exp(2j * math.pi * rng.random(radius.size))
        zeta = (rng.standard_normal(7) + 1j * rng.standard_normal(7))[:, None]
        self.assert_matches(1.0, u, v, zeta, 0.8 - 0.3j)
        self.assert_matches(2.0, u[:, None], v[None, :], 0.4 + 0.5j, -0.6j)

    def test_both_mehler_argument_orders(self):
        # mehler_closed(p, z, w) evaluates the kernel at (conj z, w)
        z = np.array([0.3 + 0.2j, -1.0 + 1.1j, 1.5])[:, None]
        w = np.array([-0.7 - 1.2j, 0.9j])[None, :]
        for a, b in ((z, w), (w, z)):
            self.assert_matches(1.0, 0.45 + 0.1j, -0.3j, np.conj(a), b)

    def test_guard_threshold(self):
        # v = 0: the exponent is nu u conj(zeta) xi, real 0.5 zeta here
        edge = 1400.0
        below, above = edge * (1 - 1e-12), edge * (1 + 1e-12)
        val = frft_kernel_raw(1.0, 0.5, 0.0, below, 1.0)
        assert np.isfinite(val)
        assert val == pytest.approx(reference_kernel(1.0, 0.5, 0.0, below, 1.0), rel=1e-13)
        for fn in (frft_kernel_raw, reference_kernel):
            with pytest.raises(OverflowError):
                fn(1.0, 0.5, 0.0, np.array([0.0, above]), 1.0)


class TestBergmanKernel:
    def test_diagonal_at_origin(self):
        assert bergman_kernel(0.0, 0.0, (0, 0), (0, 0)) == pytest.approx(1.0 / math.pi**2)
        assert bergman_kernel(1.0, 2.0, (0, 0), (0, 0)) == pytest.approx(6.0 / math.pi**2)

    def test_closed_form(self):
        val = bergman_kernel(0.0, 0.0, (0.5, 0.0), (0.5, 0.0))
        assert val == pytest.approx(1.0 / (math.pi**2 * 0.75**2 * 1.0))

    def test_hermitian(self):
        a = (0.2 + 0.1j, -0.3j)
        b = (0.4, 0.1 - 0.2j)
        k1 = bergman_kernel(1.2, 0.7, a, b)
        k2 = bergman_kernel(1.2, 0.7, b, a)
        assert k1 == pytest.approx(np.conj(k2), rel=1e-14)

    def test_matches_monomial_expansion(self):
        alpha, beta = 1.0, 0.5
        a = (0.3, 0.2 - 0.1j)
        b = (0.25 + 0.15j, -0.3)
        total = sum(
            (a[0] * np.conj(b[0])) ** m * (a[1] * np.conj(b[1])) ** n
            / gamma_norm(alpha, beta, m, n)
            for m in range(60)
            for n in range(60)
        )
        assert bergman_kernel(alpha, beta, a, b) == pytest.approx(total, rel=1e-12)

    def test_rejects_boundary_points(self):
        with pytest.raises(ValueError):
            bergman_kernel(0.0, 0.0, (1.0, 0.0), (0.0, 0.0))

    @staticmethod
    def closed(alpha, beta, u, v, z, w):
        # the whole formula at the broadcast shape, one division
        return (alpha + 1) * (beta + 1) / (
            math.pi**2 * (1 - u * np.conj(z)) ** (alpha + 2) * (1 - v * np.conj(w)) ** (beta + 2)
        )

    def test_per_disk_factors_on_a_grid(self):
        # a column x row grid: the per-axis nodes of a 32 x 32 bi-disk rule
        x, y = bidisk_rule(1.0, 0.5, 32, 32).axes
        u, v = x[:, None], y[None, :]
        for b in ((0.4 + 0.2j, -0.3 + 0.35j), (0.25, 0.5j)):
            got = bergman_kernel(1.0, 0.5, (u, v), b)
            assert got.shape == (1024, 1024)
            want = self.closed(1.0, 0.5, u, v, *b)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    def test_per_disk_factors_elementwise_and_scalar(self):
        rng = np.random.default_rng(5)
        pts = [np.sqrt(rng.uniform(0, 0.95, 200)) * np.exp(2j * np.pi * rng.uniform(size=200))
               for _ in range(4)]
        got = bergman_kernel(2.0, 0.5, pts[:2], pts[2:])
        want = self.closed(2.0, 0.5, *pts)
        assert got.shape == (200,)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14
        for k in range(0, 200, 40):
            a, b = (pts[0][k], pts[1][k]), (pts[2][k], pts[3][k])
            val = bergman_kernel(2.0, 0.5, a, b)
            assert type(val) is complex
            assert abs(val - want[k]) <= 1e-14 * abs(want[k])


def block_slices(count, nodes):
    """The slices of range(count) over which `kernels._contract` forms the
    kernel rows of count points, each row `nodes` entries long."""
    step = max(1, kernels.BLOCK_ENTRIES // nodes)
    return [slice(r[0], r[-1] + 1) for r in np.array_split(np.arange(count), -(-count // step))]


class TestBlockwise:
    """The one block loop, `_contract`, behind `frft_apply` and
    `adjoint_apply`: the blocks run in order on the calling thread, and the
    results of many blocks match those of one."""

    def test_slices_in_order(self, monkeypatch):
        seen = []

        def rows(x):
            seen.append(x.tolist())
            return np.ones((len(x), 4))

        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 3 * 4)  # at most three points per block
        out = _contract(rows, np.arange(4.0), np.arange(7.0))
        assert seen == [[0, 1, 2], [3, 4], [5, 6]]  # no lone last point
        assert out.shape == (7,) and np.all(out == 6)
        assert seen == [list(range(7)[s]) for s in block_slices(7, 4)]  # as the tests below assume
        seen.clear()
        _contract(rows, np.arange(4.0), np.arange(8.0).reshape(2, 4))
        assert seen == [[0, 1, 2], [3, 4, 5], [6, 7]]
        seen.clear()
        assert _contract(rows, np.arange(4.0), np.empty(0)).shape == (0,) and seen == []
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 3)  # a row wider than a block is one alone
        _contract(rows, np.arange(4.0), np.arange(3.0))
        assert seen == [[0], [1], [2]]

    def test_result_shape(self):
        rows = lambda x: np.ones((len(x), 4)) * x[:, None]
        weighted = np.arange(8.0).reshape(2, 4)  # a leading axis of 2, then 4 nodes
        assert type(_contract(rows, weighted[0], np.array(2.0))) is complex
        np.testing.assert_array_equal(_contract(rows, weighted, np.array(2.0)), [12, 44])
        points = np.arange(6.0).reshape(2, 3)
        got = _contract(rows, weighted, points)
        assert got.shape == (2, 2, 3)  # leading axes first
        np.testing.assert_array_equal(got, np.multiply.outer([6, 22], points))

    @pytest.mark.parametrize("nu", [1, 2])
    def test_adjoint_apply_bit_identical(self, nu, monkeypatch):
        w, alpha, beta = 0.7 - 0.2j, 1.0, 0.5
        brule = bidisk_rule(alpha, beta, 8, 8)
        g = lambda u, v: 1.0 + u * np.conj(v) - 0.5j * v**2
        zs = np.linspace(-1.5, 1.5, 300) + 0.4j
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", zs.size * len(brule.weights))
        assert len(block_slices(zs.size, len(brule.weights))) == 1
        whole = adjoint_apply(nu, w, g, zs, brule)
        # blocks of 7 points, the last one partial: each point is a row of
        # one matrix-vector product, whose rounding the blocks do not change
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 7 * len(brule.weights))
        assert len(block_slices(zs.size, len(brule.weights))) == 43
        np.testing.assert_array_equal(adjoint_apply(nu, w, g, zs, brule), whole)

    @staticmethod
    def table_images(nu, rule, u, v, xi):
        # plane-quadrature images of the psi table up to (3, 2), leading axes first
        return frft_apply(TransformParams(nu, u, v), lambda z: psi_table(nu, z, 3, 2), xi, rule)

    @staticmethod
    def draw(rng, count):
        # (u, v) inside the unit disk, |u|, |v| <= 0.6 sqrt(2), and targets xi
        u, v = rng.uniform(-0.6, 0.6, (2, count)) + 0.6j * rng.uniform(-1.0, 1.0, (2, count))
        return u, v, rng.standard_normal(count) + 1j * rng.standard_normal(count)

    def test_frft_apply_table_blocks_match_one_block(self, monkeypatch):
        nu = 1.0
        rule = plane_rule(nu, 16, 16)
        u, v, xi = self.draw(np.random.default_rng(5), 1100)
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", xi.size * len(rule.nodes))
        whole = self.table_images(nu, rule, u, v, xi)
        assert whole.shape == (4, 3, 1100)
        # 158 blocks of 6 or 7 points: each point is a row of one matrix
        # product, whose rounding the blocks do not change
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 7 * len(rule.nodes))
        assert len(block_slices(xi.size, len(rule.nodes))) == 158
        np.testing.assert_array_equal(self.table_images(nu, rule, u, v, xi), whole)

    @pytest.mark.parametrize("nu", [1, 2])
    def test_frft_apply_table_bit_identical(self, nu, monkeypatch):
        rule = plane_rule(nu, 16, 16)
        u, v, xi = self.draw(np.random.default_rng(7), 300)
        # blocks of 7 columns, the last one partial: each block's images are
        # those of its own columns alone, in place and bit for bit
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 7 * len(rule.nodes))
        blocks = block_slices(xi.size, len(rule.nodes))
        assert len(blocks) == 43 and blocks[-1].stop - blocks[-1].start == 6
        got = self.table_images(nu, rule, u, v, xi)
        for j in blocks:
            np.testing.assert_array_equal(got[..., j], self.table_images(nu, rule, u[j], v[j], xi[j]))

    def test_overflow_in_a_later_block_propagates(self):
        brule = bidisk_rule(1.0, 1.0, 8, 8)
        zs = np.full(100, 0.3 + 0.1j)
        zs[-1] = 200.0  # exponent ~ 0.4 |z|^2 in the last block
        assert zs.size > kernels.BLOCK_ENTRIES // len(brule.weights)
        with pytest.raises(OverflowError):
            adjoint_apply(1.0, 0.5, lambda u, v: u, zs, brule)
