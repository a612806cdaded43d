"""Self-verification suite: every acceptance criterion and the module-level
invariants, as named checks producing {name, status, observed, tolerance}
records.  Shared by the CLI `verify` subcommand and the acceptance tests.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln, ive

from .specfun import hermite_real
from .ito_hermite import hermite_ito, psi_table, null_index_set, zero_radii
from .kernels import TransformParams, frft_kernel_raw, mehler_closed, bergman_kernel
from .quadrature import bidisk_rule, integrate, plane_rule, quadrant_rule
from .spectral import finite_rank_tail, gamma_norm, kw_constant, spectrum
from .transforms import (
    CoeffFunction,
    adjoint_apply,
    bargmann2_apply,
    bergman_norm,
    dual_apply_coeff,
    frft_apply,
    hankel_apply,
)

__all__ = ["CheckResult", "ACCEPTANCE_CHECKS", "INVARIANT_CHECKS", "run_checks"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float
    detail: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "observed": self.observed,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


def _result(name, observed, tolerance, detail="", passed=None):
    if passed is None:
        passed = observed <= tolerance
    return CheckResult(name, bool(passed), float(observed), float(tolerance), detail)


def _rel(a, b):
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


_Z_POINTS = np.array([0.3 + 0.2j, -1.0 + 1.1j, 1.5, -0.7 - 1.2j, 0.9j])
_UV_PAIRS = [(0.5, 0.5), (0.4j, 0.3), (-0.25, 0.5)]


def check_orthonormality(sizes):
    """Gram matrix of the normalized basis under plane quadrature is the
    identity for all indices <= 8 and nu in {0.5, 1, 2}."""
    worst = 0.0
    for nu in (0.5, 1.0, 2.0):
        rule = plane_rule(nu, sizes["n_radial"], sizes["n_angular"])
        P = psi_table(nu, rule.nodes, 8, 8).reshape(81, -1)
        G = (P * rule.weights) @ P.conj().T
        worst = max(worst, float(np.max(np.abs(G - np.eye(81)))))
    return _result("orthonormality", worst, 1e-10)


def check_mehler_consistency(sizes):
    """Bilinear psi-series at trunc=80 against (nu/pi) times the closed Mehler
    function, on a 5x5 (z, w) grid with |z|, |w| <= 1.5."""
    worst = 0.0
    for nu in (0.5, 1.0, 2.0):
        pz = psi_table(nu, _Z_POINTS, 80, 80)
        for u, v in _UV_PAIRS:
            p = TransformParams(nu, u, v)
            U = np.asarray(u, complex) ** np.arange(81)
            V = np.asarray(v, complex) ** np.arange(81)
            series = np.einsum("m,n,mni,mnj->ij", U, V, pz, pz)
            closed = mehler_closed(p, _Z_POINTS[:, None], _Z_POINTS[None, :])
            worst = max(worst, float(np.max(_rel(series, nu / math.pi * closed))))
    return _result("mehler_series_vs_closed", worst, 1e-9)


def check_mehler_classical(sizes):
    """Classical one-variable Mehler identity, series truncated at N=100.

    Evaluated in extended precision: near x = -y = 3 the closed form is
    ~1e-8 while the series terms are O(1), so the 1e-9 relative tolerance
    sits below double-precision cancellation noise; truncation at 60 terms
    leaves a ~2e-8 relative tail at t=0.5 and is likewise insufficient.
    """
    depth = 100
    xs = np.linspace(-3.0, 3.0, 21).astype(np.longdouble)
    H = np.array([hermite_real(n, xs) for n in range(depth + 1)])
    worst = 0.0
    for t in (0.1, 0.3, 0.5):
        t = np.longdouble(t)
        coef = np.empty(depth + 1, dtype=np.longdouble)
        coef[0] = 1.0
        for n in range(depth):
            coef[n + 1] = coef[n] * t / (2.0 * (n + 1))
        series = H.T @ (coef[:, None] * H)
        x2 = xs[:, None] ** 2 + xs[None, :] ** 2
        closed = np.exp((-t * t * x2 + 2.0 * t * np.outer(xs, xs)) / (1.0 - t * t))
        closed /= np.sqrt(1.0 - t * t)
        worst = max(worst, float(np.max(np.abs(series - closed) / np.abs(closed))))
    return _result("mehler_classical", worst, 1e-9)


def check_eigenrelation(sizes):
    """frft_apply(psi_{m,n}) = u^m v^n psi_{m,n} for m, n <= 6 on a 4x4 target
    grid, three parameter points including complex values."""
    nu = 1.0
    rule = plane_rule(nu, sizes["n_radial"], sizes["n_angular"])
    P = psi_table(nu, rule.nodes, 6, 6).reshape(49, -1) * rule.weights
    axis = np.linspace(-1.2, 1.2, 4)
    xis = (axis[:, None] + 1j * axis[None, :]).ravel()
    worst = 0.0
    for u, v in ((0.3, 0.5), (0.5j, 0.2), (-0.4, 0.4)):
        eig = np.outer(
            np.asarray(u, complex) ** np.arange(7), np.asarray(v, complex) ** np.arange(7)
        ).ravel()
        for xi in xis:
            kvec = frft_kernel_raw(nu, u, v, rule.nodes, xi)
            got = P @ kvec
            want = eig * psi_table(nu, xi, 6, 6).ravel()
            worst = max(worst, float(np.max(np.abs(got - want))))
    return _result("frft_eigenrelation", worst, 1e-8)


def check_kernel_autocorrelation(sizes):
    """Plane quadrature of |K_{u,v}(z; w)|^2 equals K_{|u|^2,|v|^2}(w; w)."""
    nu = 1.0
    rule = plane_rule(nu, sizes["n_radial"], sizes["n_angular"])
    worst = 0.0
    for u, v in ((0.6, 0.6), (0.5j, 0.4), (-0.3 + 0.3j, 0.25), (0.2, -0.55j)):
        for w in (0.7, -0.4 + 1.1j):
            lhs = integrate(
                rule, lambda z: np.abs(frft_kernel_raw(nu, u, v, z, w)) ** 2
            )
            rhs = frft_kernel_raw(nu, abs(u) ** 2, abs(v) ** 2, w, w)
            worst = max(worst, float(_rel(lhs, rhs)))
    return _result("kernel_autocorrelation", worst, 1e-9)


def _singular_values_quadrature(nu, alpha, beta, w, max_m, max_n, sizes):
    rule = plane_rule(nu, sizes["n_radial"], sizes["n_angular"])
    brule = bidisk_rule(alpha, beta, 8, 10)
    # plane nodes x bidisk nodes
    K = frft_kernel_raw(nu, brule.nodes[:, 0], brule.nodes[:, 1], rule.nodes[:, None], w)
    P = psi_table(nu, rule.nodes, max_m, max_n).reshape((max_m + 1) * (max_n + 1), -1)
    images = (P * rule.weights) @ K  # modes x bidisk nodes
    s2 = (np.abs(images) ** 2) @ brule.weights
    return np.sqrt(np.maximum(s2.real, 0.0)).reshape(max_m + 1, max_n + 1)


def check_singular_values(sizes):
    """Closed singular-value formula against the double-quadrature norm of the
    dual image, at a generic point and on the (1,1) zero circle."""
    nu, alpha, beta = 1.0, 1.0, 1.0
    worst = 0.0
    s11_circle = math.inf
    for w in (1.0 + 0.0j, np.exp(0.7j)):
        closed = spectrum(nu, alpha, beta, w, 4, 4).values
        quad = _singular_values_quadrature(nu, alpha, beta, complex(w), 4, 4, sizes)
        worst = max(worst, float(np.max(np.abs(closed - quad))))
        if abs(abs(w) - 1.0) < 1e-12:
            s11_circle = min(s11_circle, float(closed[1, 1]))
    ok = worst <= 1e-7 and s11_circle < 1e-12
    return _result(
        "singular_values",
        worst,
        1e-7,
        detail="s_(1,1) on zero circle = %.3e (must be < 1e-12)" % s11_circle,
        passed=ok,
    )


def check_schatten_bound(sizes):
    """Every tabulated singular value obeys the Gamma-ratio envelope
    pi e^{nu|w|^2/2} (m! n! G(a+1) G(b+1) / (G(m+a+2) G(n+b+2)))^{1/2}."""
    nu, alpha, beta = 1.0, 1.0, 1.0
    w = 1.0 + 0.5j
    spec = spectrum(nu, alpha, beta, w, 40, 40)
    ms = np.arange(41)
    bound = math.exp(nu * abs(w) ** 2 / 2.0) * np.sqrt(gamma_norm(alpha, beta, ms[:, None], ms))
    return _result("schatten_bound", float(np.max(spec.values - bound)), 0.0)


def check_boundedness_bracket(sizes):
    """k_w bracket containment plus empirical Rayleigh quotients below
    k_w^{1/2}, over the full parameter battery."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for nu in (0.5, 1.0, 2.0):
        for alpha, beta in ((1.0, 1.0), (2.0, 0.5)):
            brule = bidisk_rule(alpha, beta, 16, 16)
            for w in (0.0, 1.0, 1.0 + 1.0j):
                kw = kw_constant(nu, alpha, beta, w)
                worst = max(worst, kw.lower - kw.value, kw.value - kw.upper)
                for _ in range(5):
                    idx = rng.integers(0, 7, size=(4, 2))
                    amp = rng.standard_normal((4, 2))
                    modes = {
                        (int(m), int(n)): complex(a, b)
                        for (m, n), (a, b) in zip(idx, amp)
                    }
                    f = CoeffFunction(nu=nu, coeffs=modes)
                    img2 = integrate(
                        brule,
                        lambda u, v: np.abs(dual_apply_coeff(nu, w, f, (u, v))) ** 2,
                    )
                    quotient = math.sqrt(img2.real) / f.norm
                    worst = max(worst, quotient - math.sqrt(kw.value))
    return _result("boundedness_bracket", worst, 1e-10)


def check_hankel_reduction(sizes):
    """Angular Fourier coefficients of the 2D transform equal the order-k
    Hankel transforms of the input's radial profiles, k in {0, 1, 2}."""
    nu, u, v = 1.0, 0.4, 0.3
    rule = plane_rule(nu, sizes["n_radial"], sizes["n_angular"])
    profiles = {0: lambda r: 1.0 - r**2, 1: lambda r: r, 2: lambda r: r**2}

    def f(z):
        r = np.abs(z)
        # angular modes k = 0, 1, 2 with the profiles above
        return (1.0 - r**2) + z + z**2

    n_ang = 32
    theta = 2.0 * math.pi * np.arange(n_ang) / n_ang
    fvals = f(rule.nodes) * rule.weights
    worst = 0.0
    for rho in (0.5, 1.0, 2.0):
        xis = rho * np.exp(1j * theta)
        K = frft_kernel_raw(nu, u, v, rule.nodes[:, None], xis[None, :])
        F = fvals @ K
        for k, prof in profiles.items():
            gk = complex(np.mean(F * np.exp(-1j * k * theta)))
            hk = hankel_apply(nu, k, u, v, prof, rho)
            worst = max(worst, abs(gk - hk))
    return _result("hankel_reduction", worst, 1e-7)


def check_hankel_fixed_point(sizes):
    """Order-0 Hankel transform of the constant profile is identically 1."""
    worst = 0.0
    for u, v in ((0.4, 0.3), (0.7, 0.2)):
        for y in (0.0, 0.5, 1.0, 2.0, 3.0):
            got = hankel_apply(1.0, 0.0, u, v, lambda r: np.ones_like(r), y)
            worst = max(worst, abs(got - 1.0))
    return _result("hankel_fixed_point", worst, 1e-10)


def check_bergman_reproducing(sizes):
    """Kernel quadrature reproduces the monomial z^2 w^3 at interior points;
    the closed kernel matches its 40x40 basis partial sum at |coords| <= 0.5."""
    worst = 0.0
    bs = [(0.4 + 0.2j, -0.3 + 0.35j), (0.25, 0.5j)]
    for alpha, beta in ((0.0, 0.0), (1.0, 0.5)):
        rule = bidisk_rule(alpha, beta, 32, 32)
        for b in bs:
            got = integrate(
                rule,
                lambda u, v: u**2 * v**3
                * np.conj(bergman_kernel(alpha, beta, (u, v), b)),
            )
            want = b[0] ** 2 * b[1] ** 3
            worst = max(worst, float(_rel(got, want)))
        # partial-sum cross-check of the closed kernel
        ms = np.arange(41)
        inv_gamma = 1.0 / gamma_norm(alpha, beta, ms[:, None], ms)
        for a, b in [((0.3 + 0.3j, -0.5), (0.5j, 0.2 - 0.4j))]:
            powers_u = (a[0] * np.conj(b[0])) ** ms
            powers_v = (a[1] * np.conj(b[1])) ** ms
            partial = np.einsum("m,n,mn->", powers_u, powers_v, inv_gamma)
            closed = bergman_kernel(alpha, beta, a, b)
            worst = max(worst, float(_rel(partial, closed)))
    return _result("bergman_reproducing", worst, 1e-8)


def check_null_space(sizes):
    """At w = 1, nu = 1 the numerically detected null indices over a 6x6 box
    match the zero-circle prediction, and the dual transform annihilates
    exactly those modes."""
    nu, w = 1.0, 1.0
    predicted = set()
    for m in range(6):
        for n in range(6):
            zs = zero_radii(nu, m, n)
            if any(abs(r - 1.0) < 1e-8 for r in zs.radii):
                predicted.add((m, n))
    detected = null_index_set(nu, w, 5, 5, 1e-10)
    mismatches = len(predicted ^ detected)

    rule = plane_rule(nu, sizes["n_radial"], sizes["n_angular"])
    grid = np.array([0.2, 0.45, 0.7])
    us = np.repeat(grid, 3)
    vs = np.tile(grid, 3)
    K = frft_kernel_raw(nu, us, vs, rule.nodes[:, None], w)
    P = psi_table(nu, rule.nodes, 5, 5).reshape(36, -1)
    images = np.max(np.abs((P * rule.weights) @ K), axis=1).reshape(6, 6)
    for m in range(6):
        for n in range(6):
            is_null = images[m, n] < 1e-10
            if is_null != ((m, n) in predicted):
                mismatches += 1
    return _result(
        "null_space",
        float(mismatches),
        0.0,
        detail="predicted null indices: %s" % sorted(predicted),
    )


def check_compactness_tail(sizes):
    """Finite-rank tail decreases monotonically and falls below 1e-3 of its
    (2, 2) value by cutoff (20, 20), for alpha = beta = 1."""
    nu, alpha, beta, w = 1.0, 1.0, 1.0, 1.0
    tails = [finite_rank_tail(nu, alpha, beta, w, p, p) for p in range(2, 21)]
    monotone = all(b < a for a, b in zip(tails, tails[1:]))
    ratio = tails[-1] / tails[0]
    return _result(
        "compactness_tail",
        ratio,
        1e-3,
        detail="monotone decrease: %s" % monotone,
        passed=monotone and ratio <= 1e-3,
    )


def check_rodrigues_cross(sizes):
    """Recurrence evaluation against the explicit alternating finite sum."""
    nu = 1.3
    zs = [0.4 + 0.9j, -1.2 + 0.3j, 2.0 - 1.0j]
    worst = 0.0
    for z in zs:
        for m in range(6):
            for n in range(6):
                ref = 0j
                for k in range(min(m, n) + 1):
                    ref += (
                        (-1) ** k
                        * math.factorial(k)
                        * math.comb(m, k)
                        * math.comb(n, k)
                        * nu ** (m + n - k)
                        * z ** (m - k)
                        * np.conj(z) ** (n - k)
                    )
                got = hermite_ito(nu, m, n, z)
                worst = max(worst, abs(got - ref) / max(abs(ref), 1.0))
    return _result("rodrigues_cross_check", worst, 1e-12)


def check_conjugate_symmetry(sizes):
    """hermite_ito(m, n, z) is the conjugate of hermite_ito(n, m, z)."""
    nu = 0.8
    axis = np.linspace(-1.0, 1.0, 5)
    zs = (axis[:, None] + 1j * axis[None, :]).ravel()
    H = np.array([[hermite_ito(nu, m, n, zs) for n in range(11)] for m in range(11)])
    diff = np.abs(H - np.conj(np.transpose(H, (1, 0, 2))))
    scale = np.maximum(np.abs(H), 1.0)
    return _result("conjugate_symmetry", float(np.max(diff / scale)), 1e-12)


def check_laguerre_factorization(sizes):
    """For m >= n, H_{m,n} = (-1)^n n! nu^m z^{m-n} L_n^{(m-n)}(nu |z|^2)."""
    nu = 1.0
    zs = np.array([0.5 + 0.5j, -1.1 + 0.2j, 1.7j, 2.0])
    worst = 0.0
    for m in range(9):
        for n in range(m + 1):
            got = hermite_ito(nu, m, n, zs)
            fact = (
                (-1) ** n
                * math.factorial(n)
                * nu**m
                * zs ** (m - n)
                * eval_genlaguerre(n, m - n, nu * np.abs(zs) ** 2)
            )
            worst = max(
                worst,
                float(np.max(np.abs(got - fact) / np.maximum(np.abs(fact), 1.0))),
            )
    return _result("laguerre_factorization", worst, 1e-11)


def check_zero_radii_consistency(sizes):
    """The polynomial vanishes on every reported zero circle."""
    worst = 0.0
    for nu in (0.5, 2.0):
        for m, n in ((1, 1), (3, 2), (4, 4), (2, 5)):
            zs = zero_radii(nu, m, n)
            theta = 2.0 * math.pi * np.arange(8) / 8
            # leading scale: max of |H| on the largest zero circle radius + 1
            rmax = (zs.radii[-1] if zs.radii else 1.0) + 1.0
            scale = float(np.max(np.abs(hermite_ito(nu, m, n, rmax * np.exp(1j * theta)))))
            for r in zs.radii:
                vals = hermite_ito(nu, m, n, r * np.exp(1j * theta))
                worst = max(worst, float(np.max(np.abs(vals))) / scale)
    return _result("zero_radii_consistency", worst, 1e-9)


def check_bessel_monotone(sizes):
    """I_a(x) > 0 and increasing in x for each fixed order a >= 0, with I_a
    assembled as ive(a, x) e^x the way `hankel_apply` uses it."""
    xs = np.linspace(0.1, 40.0, 60)
    ok = True
    for a in (0.0, 0.5, 1.0, 3.0):
        vals = ive(a, xs) * np.exp(xs)
        ok = ok and bool(np.all(vals > 0) and np.all(np.diff(vals) > 0))
    return _result("bessel_monotone", 0.0 if ok else 1.0, 0.0)


def check_dual_coeff_vs_quadrature(sizes):
    """Coefficient-path dual transform against the quadrature path of
    `frft_apply` on the plane rule."""
    nu, w = 1.0, 0.6 + 0.4j
    rule = plane_rule(nu, sizes["n_radial"], sizes["n_angular"])
    f = CoeffFunction(
        nu=nu,
        coeffs={(0, 0): 0.5, (2, 1): 1.0 - 0.5j, (1, 3): 0.25j, (4, 0): -0.75},
    )
    worst = 0.0
    for uv in ((0.3, 0.2), (0.5j, -0.4), (-0.35, 0.55j)):
        a = frft_apply(TransformParams(nu, *uv), f, w, rule)
        b = dual_apply_coeff(nu, w, f, uv)
        worst = max(worst, abs(a - b))
    return _result("dual_coeff_vs_quadrature", worst, 1e-9)


def check_pointwise_estimate(sizes):
    """|R_w f(u,v)| <= K_{|u|^2,|v|^2}(w; w)^{1/2} ||f|| for unit-norm f."""
    rng = np.random.default_rng(7)
    nu, w = 1.0, 0.9 - 0.3j
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    modes = [(0, 0), (1, 2), (3, 1), (2, 2), (0, 4)]
    f = CoeffFunction(nu=nu, coeffs=dict(zip(modes, coeffs)))
    norm = f.norm
    worst = -math.inf
    for u in (0.2, 0.5, 0.7):
        for v in (0.1, 0.45, 0.65):
            val = abs(dual_apply_coeff(nu, w, f, (u, v)))
            bound = math.sqrt(
                frft_kernel_raw(nu, u * u, v * v, w, w).real
            ) * norm
            worst = max(worst, val - bound)
    return _result("pointwise_estimate", worst, 0.0)


def check_adjoint_identity(sizes):
    """<R f, g>_{alpha,beta} = <f, R* g>_{L2} on low-degree pairs."""
    nu, w, alpha, beta = 1.0, 0.8, 1.0, 1.0
    prule = plane_rule(nu, 48, 24)
    brule = bidisk_rule(alpha, beta, 12, 12)
    f = CoeffFunction(nu=nu, coeffs={(0, 0): 1.0, (1, 2): 0.5 - 0.25j, (3, 0): 0.3j})

    def g(u, v):
        return u * np.conj(u) + 0.5 * v**2 - 0.25j * u

    lhs = integrate(
        brule,
        lambda u, v: dual_apply_coeff(nu, w, f, (u, v)) * np.conj(g(u, v)),
    )
    rstar = np.array(
        [adjoint_apply(nu, w, alpha, beta, g, z, brule) for z in prule.nodes]
    )
    rhs = complex(np.dot(prule.weights, f(prule.nodes) * np.conj(rstar)))
    return _result("adjoint_identity", abs(lhs - rhs), 1e-8)


def check_parseval_dual_norm(sizes):
    """Bi-disk quadrature norm of the dual image equals the weighted
    coefficient sum sum |a|^2 |psi(w)|^2 gamma, which is `bergman_norm` of
    the image's monomial coefficients a_{m,n} psi_{m,n}(w)."""
    nu, w, alpha, beta = 1.0, 1.2 + 0.1j, 1.0, 0.5
    brule = bidisk_rule(alpha, beta, 16, 16)
    f = CoeffFunction(
        nu=nu, coeffs={(0, 1): 1.0, (2, 2): -0.5j, (1, 0): 0.75, (3, 3): 0.2}
    )
    quad = integrate(
        brule, lambda u, v: np.abs(dual_apply_coeff(nu, w, f, (u, v))) ** 2
    ).real
    P = psi_table(nu, complex(w), 3, 3)
    img = {(m, n): a * P[m, n] for (m, n), a in f.coeffs.items()}
    norm2 = bergman_norm(img, alpha, beta) ** 2
    return _result("parseval_dual_norm", abs(quad - norm2), 1e-8)


def check_bargmann_laguerre(sizes):
    """Second Bargmann transform maps the Laguerre product basis to
    [G(a+m+1)/m!][G(b+n+1)/n!] z^m w^n."""
    alpha, beta = 0.5, 1.0
    rule = quadrant_rule(alpha, beta, 64)
    worst = 0.0
    for m, n in ((0, 0), (1, 0), (2, 3)):
        const = math.exp(
            gammaln(alpha + m + 1.0)
            - gammaln(m + 1.0)
            + gammaln(beta + n + 1.0)
            - gammaln(n + 1.0)
        )
        for zw in ((0.3, 0.2), (0.1 - 0.2j, 0.25j)):
            got = bargmann2_apply(
                alpha,
                beta,
                lambda s, t: eval_genlaguerre(m, alpha, s) * eval_genlaguerre(n, beta, t),
                zw,
                rule,
            )
            want = const * zw[0] ** m * zw[1] ** n
            worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    return _result("bargmann_laguerre_basis", worst, 1e-8)


def check_quadrature_selfconvergence(sizes):
    """Doubling the radial size changes a smooth integrand by < 1e-10."""
    nu = 1.0
    f = lambda z: np.exp(-0.3 * np.abs(z) ** 2 + 0.2 * z)
    a = integrate(plane_rule(nu, sizes["n_radial"], sizes["n_angular"]), f)
    b = integrate(plane_rule(nu, 2 * sizes["n_radial"], sizes["n_angular"]), f)
    return _result("quadrature_selfconvergence", float(_rel(a, b)), 1e-10)


ACCEPTANCE_CHECKS = [
    check_orthonormality,
    check_mehler_consistency,
    check_mehler_classical,
    check_eigenrelation,
    check_kernel_autocorrelation,
    check_singular_values,
    check_schatten_bound,
    check_boundedness_bracket,
    check_hankel_reduction,
    check_hankel_fixed_point,
    check_bergman_reproducing,
    check_null_space,
    check_compactness_tail,
]

INVARIANT_CHECKS = [
    check_rodrigues_cross,
    check_conjugate_symmetry,
    check_laguerre_factorization,
    check_zero_radii_consistency,
    check_bessel_monotone,
    check_dual_coeff_vs_quadrature,
    check_pointwise_estimate,
    check_adjoint_identity,
    check_parseval_dual_norm,
    check_bargmann_laguerre,
    check_quadrature_selfconvergence,
]

DEFAULT_SIZES = {"n_radial": 64, "n_angular": 64, "quadrant_n": 64}


def run_checks(checks=None, sizes=None, tolerances=None, names=None):
    """Run the given checks (default: acceptance + invariants) and return the
    list of CheckResult.  `tolerances` maps check name to an override;
    `names` restricts the run to the listed check names."""
    sizes = dict(DEFAULT_SIZES, **(sizes or {}))
    selected = checks or (ACCEPTANCE_CHECKS + INVARIANT_CHECKS)
    if names is not None:
        wanted = set(names)
        selected = [fn for fn in selected if fn.__name__.removeprefix("check_") in wanted]
        missing = wanted - {fn.__name__.removeprefix("check_") for fn in selected}
        if missing:
            raise ValueError("unknown check names: %s" % sorted(missing))
    results = []
    for fn in selected:
        res = fn(sizes)
        if tolerances and res.name in tolerances:
            res.tolerance = float(tolerances[res.name])
            res.passed = res.observed <= res.tolerance
        results.append(res)
    return results
