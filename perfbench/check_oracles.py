"""Tests of the benchmark's oracles against high-precision mpmath.

    python3 perfbench/check_oracles.py        (or: python3 -m pytest perfbench/check_oracles.py)

Each test reaches the same quantity by a second route: an independent
series, a numerical integral, or an mpmath special function.  The ranges
match those the workloads draw from.
"""

import math
import sys
import time

import mpmath
import numpy as np

import oracles

RNG = np.random.default_rng(20200518)
mp = mpmath.mp


def test_laguerre_sum_matches_mpmath_laguerre():
    for q, k, x in ((0, 0, 1.3), (3, 2, 0.7), (12, 5, 4.2), (40, 0, 9.5)):
        got, _ = oracles.laguerre_mp(q, k, x)
        assert abs(got - mpmath.laguerre(q, k, x)) <= 1e-20 * max(1, abs(got))


def test_hermite_ito_matches_alternating_sum():
    # H_{m,n} = sum_k (-1)^k k! C(m,k) C(n,k) nu^{m+n-k} z^{m-k} conj(z)^{n-k}
    for _ in range(20):
        nu, m, n = RNG.uniform(0.5, 2.0), int(RNG.integers(0, 11)), int(RNG.integers(0, 11))
        z = mpmath.mpc(*RNG.uniform(-1.5, 1.5, size=2))
        ref = mpmath.fsum(
            (-1) ** k * mpmath.factorial(k) * mpmath.binomial(m, k) * mpmath.binomial(n, k)
            * mpmath.mpf(nu) ** (m + n - k) * z ** (m - k) * mpmath.conj(z) ** (n - k)
            for k in range(min(m, n) + 1)
        )
        got, scale = oracles.hermite_ito_mp(nu, m, n, z)
        assert abs(got - ref) <= 1e-25 * scale


def test_psi_table_matches_mpmath():
    """The float oracle agrees with mpmath to 1e-12 of the largest |psi| in
    the box, across boxes up to 200 and sqrt(nu)|z| up to 2.5."""
    for box, r in ((8, 2.5), (40, 1.2), (100, 2.0), (200, 0.6), (200, 2.5)):
        nu = RNG.uniform(0.5, 2.0)
        z = r / math.sqrt(nu) * np.exp(1j * RNG.uniform(0, 2 * math.pi))
        table = oracles.psi_table(nu, z, box, box)
        peak = np.max(np.abs(table))
        idx = [(box, box), (box, 0), (0, box), (box // 2, box // 3)]
        idx += [tuple(int(i) for i in RNG.integers(0, box + 1, size=2)) for _ in range(12)]
        for m, n in idx:
            assert abs(table[m, n] - complex(oracles.psi_mp(nu, m, n, z))) <= 1e-12 * peak, (box, r, m, n)


def test_psi_orthonormal_under_mpmath_integral():
    nu = 1.3
    mp.dps = 15
    try:
        for (m, n), (p, q) in (((2, 1), (2, 1)), ((2, 1), (1, 2))):
            def integrand(r, t):
                z = r * mpmath.expj(t)
                return oracles.psi_mp(nu, m, n, z) * mpmath.conj(oracles.psi_mp(nu, p, q, z)) * mpmath.exp(-nu * r * r) * r

            val = mpmath.quad(integrand, [0, 3, mpmath.inf], [0, 2 * mpmath.pi])
            assert abs(val - (1 if (m, n) == (p, q) else 0)) < 1e-11
    finally:
        mp.dps = 30


def test_mehler_closed_matches_bilinear_series():
    """(nu/pi) Mehler(z, w) = sum u^m v^n psi_mn(z) psi_mn(w)."""
    for _ in range(3):
        nu = RNG.uniform(0.5, 2.0)
        u, v = (complex(0.3 * np.exp(1j * RNG.uniform(0, 6.3))) for _ in range(2))
        z, w = (complex(*RNG.uniform(-1.0, 1.0, size=2)) for _ in range(2))
        series = mpmath.fsum(
            mpmath.mpc(u) ** m * mpmath.mpc(v) ** n * oracles.psi_mp(nu, m, n, z) * oracles.psi_mp(nu, m, n, w)
            for m in range(45) for n in range(45)
        )
        closed = mpmath.mpf(nu) / mpmath.pi * oracles.mehler_mp(nu, u, v, z, w)
        assert abs(series - closed) < 1e-18 * abs(closed)
        assert abs(oracles.frft_kernel_mp(nu, u, v, z, w) - mpmath.mpf(nu) / mpmath.pi * oracles.mehler_mp(nu, u, v, mpmath.conj(z), w)) == 0


def test_frft_eigenrelation_by_mpmath_integral():
    """integral psi_mn(zeta) K(zeta; xi) e^{-nu|zeta|^2} dA = u^m v^n psi_mn(xi)."""
    mp.dps = 15
    try:
        for nu, (m, n), u, v, xi in ((0.7, (0, 3), -0.4 + 0.1j, 0.45, 0.8 - 0.4j),):
            def integrand(r, t):
                zeta = r * mpmath.expj(t)
                return oracles.psi_mp(nu, m, n, zeta) * oracles.frft_kernel_mp(nu, u, v, zeta, xi) * mpmath.exp(-nu * r * r) * r

            val = mpmath.quad(integrand, [0, 3, mpmath.inf], [0, 2 * mpmath.pi])
            want, _ = oracles.eigen_value(nu, {(m, n): 1.0}, xi, u, v)
            assert abs(complex(val) - want) < 1e-10 * max(1.0, abs(want))
    finally:
        mp.dps = 30


def test_hankel_eigenrelation_by_mpmath_integral():
    """Order k = m - n Hankel transform of the radial profile of psi_mn."""
    for nu, (m, n), u, v, y in ((1.0, (3, 1), 0.4, 0.3, 1.1), (1.7, (2, 2), 0.55, 0.2, 0.6), (0.6, (4, 0), 0.3, 0.5, 2.0)):
        k = m - n
        ell = mpmath.mpf(nu) / (1 - u * v)

        def integrand(x):
            return x * oracles.psi_mp(nu, m, n, x) * mpmath.besseli(k, 2 * ell * mpmath.sqrt(u * v) * x * y) * mpmath.exp(-ell * (x * x + u * v * y * y))

        val = 2 * ell * mpmath.mpf(u / v) ** (mpmath.mpf(k) / 2) * mpmath.quad(integrand, [0, 2, 5, mpmath.inf])
        want, _ = oracles.eigen_value(nu, {(m, n): 1.0}, y, u, v)
        assert abs(complex(val) - want) < 1e-12 * max(1.0, abs(want))


def test_telescoped_tail_matches_beta_integral():
    """sum_{m>p} B(m+1, a+1) / G(a+1) = int_0^1 t^{p+1} (1-t)^{a-1} dt / G(a+1)."""
    for p, alpha in ((0, 1.0), (2, 0.5), (20, 2.0), (150, 1.0), (7, 2.7)):
        ref = mpmath.quad(lambda t: t ** (p + 1) * (1 - t) ** (alpha - 1), [0, 1]) / mpmath.gamma(alpha + 1)
        assert abs(oracles.tail_mp(p, alpha) - ref) < 1e-14 * ref


def test_partial_tail_matches_mpmath_sum():
    nu, alpha, beta, w, p, q = 1.2, 0.7, 2.2, 0.4 + 0.9j, 5, 60
    terms_a = mpmath.fsum(mpmath.gamma(m + 1) / mpmath.gamma(m + alpha + 2) for m in range(p + 1, 201))
    terms_b = mpmath.fsum(mpmath.gamma(n + 1) / mpmath.gamma(n + beta + 2) for n in range(q + 1, 201))
    ref = mpmath.exp(nu * abs(w) ** 2) * mpmath.pi**2 * mpmath.gamma(alpha + 1) * mpmath.gamma(beta + 1) * terms_a * terms_b
    assert abs(oracles.finite_rank_tail_partial(nu, alpha, beta, w, p, q, 200) - ref) < 1e-12 * ref
    full = oracles.finite_rank_tail_closed(nu, alpha, beta, w, p, q)
    assert ref < full


def test_singular_values_match_mpmath():
    nu, alpha, beta, w = 0.8, 1.5, 0.5, 0.3 - 0.5j
    table = oracles.singular_values(nu, alpha, beta, w, 30, 30)
    for m, n in ((0, 0), (3, 7), (30, 30), (12, 0)):
        gamma = (mpmath.pi**2 * mpmath.gamma(alpha + 1) * mpmath.gamma(beta + 1) * mpmath.factorial(m) * mpmath.factorial(n)
                 / (mpmath.gamma(alpha + m + 2) * mpmath.gamma(beta + n + 2)))
        ref = abs(oracles.psi_mp(nu, m, n, w)) * mpmath.sqrt(gamma)
        assert abs(table[m, n] - ref) < 1e-13 * table.max()


def main():
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        start = time.perf_counter()
        try:
            fn()
            print("PASS %s (%.1f s)" % (name, time.perf_counter() - start))
        except AssertionError as exc:
            failed += 1
            print("FAIL", name, exc)
    print("%d of %d oracle tests passed" % (len(tests) - failed, len(tests)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
