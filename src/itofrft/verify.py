"""Self-verification suite: every acceptance criterion and the module-level
invariants, as named checks producing {name, status, observed, tolerance}
records.  Shared by the CLI `verify` subcommand and the acceptance tests.
"""

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .specfun import hermite_real, scipy_special
from .ito_hermite import hermite_ito, psi_table, null_index_set, zero_radii
from .kernels import (
    TransformParams, _blocks, bergman_kernel, frft_kernel_raw, mehler_closed, mehler_series,
)
from .quadrature import _samples, bidisk_rule, integrate, plane_rule, quadrant_rule
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
    """A check passes when `observed <= tolerance` and its other conditions
    hold; a tolerance override changes only `tolerance`."""

    name: str
    observed: float
    tolerance: float
    detail: str = ""
    side_conditions: bool = True  # the check's conditions besides the tolerance
    wall_s: float = 0.0  # wall time of the check, set by `run_checks`

    @property
    def passed(self):
        return self.side_conditions and self.observed <= self.tolerance

    def to_dict(self):
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "observed": self.observed,
            "tolerance": self.tolerance,
            "detail": self.detail,
            "wall_s": self.wall_s,
        }


ACCEPTANCE_CHECKS = []  # the paper's claims, in declaration order
INVARIANT_CHECKS = []  # module-level invariants, in declaration order


def _name(check):
    return check.__name__.removeprefix("check_")


def _check(group, default):
    """Declare the check defined below: it reports under its function name
    without `check_`, is judged at tolerance `default` unless called with
    another, and joins `group`.  Its body takes no argument and returns the
    observed value, or (observed, detail, side conditions)."""

    def declare(body):
        name = _name(body)

        @functools.wraps(body)
        def check(tolerance=None):
            out = body()
            observed, detail, side_conditions = out if isinstance(out, tuple) else (out, "", True)
            tol = default if tolerance is None else tolerance
            return CheckResult(name, float(observed), float(tol), detail, bool(side_conditions))

        group.append(check)
        return check

    return declare


def _rel(a, b, floor=1e-300):
    # |a - b| relative to |b|, or to `floor` where |b| is smaller
    return np.abs(a - b) / np.maximum(np.abs(b), floor)


def _psi_images(nu, rule, max_m, max_n, u, v, xi):
    """Plane-quadrature transforms of the basis: entry [m, n, j] is the sum
    over the nodes z of w(z) psi_{m,n}(z) K_{u_j, v_j}(z; xi_j), with u, v
    and xi broadcast together and flattened to the index j.  The kernel
    matrix is formed and contracted one block of columns at a time
    (`kernels._blocks`), with at most `BLOCK_ENTRIES` entries per block."""
    u, v, xi = (a.ravel() for a in np.broadcast_arrays(u, v, xi))
    PW = psi_table(nu, rule.nodes, max_m, max_n).reshape(-1, len(rule.nodes)) * rule.weights
    images = np.empty((len(PW), len(xi)), dtype=complex)
    for j in _blocks(len(xi), len(rule.nodes)):
        images[:, j] = PW @ frft_kernel_raw(nu, u[j], v[j], rule.nodes[:, None], xi[j])
    return images.reshape(max_m + 1, max_n + 1, -1)


_Z_POINTS = np.array([0.3 + 0.2j, -1.0 + 1.1j, 1.5, -0.7 - 1.2j, 0.9j])
_UV_PAIRS = [(0.5, 0.5), (0.4j, 0.3), (-0.25, 0.5)]


@_check(ACCEPTANCE_CHECKS, 1e-10)
def check_orthonormality():
    """Gram matrix of the normalized basis under plane quadrature is the
    identity for all indices <= 8 and nu in {0.5, 1, 2}."""
    worst = 0.0
    for nu in (0.5, 1.0, 2.0):
        rule = plane_rule(nu)
        P = psi_table(nu, rule.nodes, 8, 8).reshape(81, -1)
        G = (P * rule.weights) @ P.conj().T
        worst = max(worst, float(np.max(np.abs(G - np.eye(81)))))
    return worst


@_check(ACCEPTANCE_CHECKS, 1e-9)
def check_mehler_series_vs_closed():
    """Bilinear psi-series at trunc=80 against (nu/pi) times the closed Mehler
    function, on a 5x5 (z, w) grid with |z|, |w| <= 1.5."""
    z, w = _Z_POINTS[:, None], _Z_POINTS[None, :]
    worst = 0.0
    for nu in (0.5, 1.0, 2.0):
        for u, v in _UV_PAIRS:
            p = TransformParams(nu, u, v)
            closed = nu / math.pi * mehler_closed(p, z, w)
            worst = max(worst, float(np.max(_rel(mehler_series(p, z, w, 80), closed))))
    return worst


@_check(ACCEPTANCE_CHECKS, 1e-9)
def check_mehler_classical():
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
    return worst


@_check(ACCEPTANCE_CHECKS, 1e-8)
def check_frft_eigenrelation():
    """frft_apply(psi_{m,n}) = u^m v^n psi_{m,n} for m, n <= 6 on a 4x4 target
    grid, three parameter points including complex values."""
    nu = 1.0
    rule = plane_rule(nu)
    axis = np.linspace(-1.2, 1.2, 4)
    xis = (axis[:, None] + 1j * axis[None, :]).ravel()
    uv = np.array([(0.3, 0.5), (0.5j, 0.2), (-0.4, 0.4)])
    # one column per (parameter point, target): a (3, 1) grid against 16 targets
    got = _psi_images(nu, rule, 6, 6, uv[:, :1], uv[:, 1:], xis).reshape(7, 7, 3, -1)
    k = np.arange(7)[:, None]
    eig = (uv[:, 0] ** k)[:, None] * (uv[:, 1] ** k)[None, :]  # u^m v^n, (7, 7, 3)
    return np.max(np.abs(got - eig[..., None] * psi_table(nu, xis, 6, 6)[:, :, None]))


@_check(ACCEPTANCE_CHECKS, 1e-9)
def check_kernel_autocorrelation():
    """Plane quadrature of |K_{u,v}(z; w)|^2 equals K_{|u|^2,|v|^2}(w; w)."""
    nu = 1.0
    rule = plane_rule(nu)
    worst = 0.0
    for u, v in ((0.6, 0.6), (0.5j, 0.4), (-0.3 + 0.3j, 0.25), (0.2, -0.55j)):
        for w in (0.7, -0.4 + 1.1j):
            lhs = integrate(
                rule, lambda z: np.abs(frft_kernel_raw(nu, u, v, z, w)) ** 2
            )
            rhs = frft_kernel_raw(nu, abs(u) ** 2, abs(v) ** 2, w, w)
            worst = max(worst, float(_rel(lhs, rhs)))
    return worst


_ORBIT = 16  # angular nodes per disk of the bi-disk rule of `singular_values`


def _singular_values_quadrature(nu, alpha, beta, w, max_m, max_n, rule):
    """Norm of each basis image R_w psi_{m,n} over the bi-disk, by the plane
    quadrature `rule` in z and `bidisk_rule(alpha, beta, 8, 16)` in (u, v).

    The sum runs over one node per rotation orbit.  By the kernel's rotation
    covariance (`kernels.frft_kernel_raw`), rotating (u, v) to
    (u e^{i phi}, v e^{-i phi}) with phi = 2 pi k / 16 permutes the plane
    nodes, so each image only gains the phase e^{i(m-n) phi} and its modulus
    is constant on the orbit (phi_u + phi, phi_v - phi) of the bi-disk grid.
    The u-nodes at angle 0, paired with every v-node, meet each orbit once,
    and 16 times their tensor weight makes the orbit sum equal the full sum
    to rounding.  This is algebra on the kernel, not the closed formula, so
    the check stays an independent quadrature.  It needs 16 to divide the
    angular count of `rule`, as it does for the default 64.
    """
    brule = bidisk_rule(alpha, beta, 8, _ORBIT)
    u, v = brule.axes  # radius-major: u[::16] is the angle-0 node of each radius
    weights = _ORBIT * brule.weights.reshape(len(u), len(v))[::_ORBIT]
    images = _psi_images(nu, rule, max_m, max_n, u[::_ORBIT, None], v[None, :], w)
    return np.sqrt((images.real**2 + images.imag**2) @ weights.ravel())


@_check(ACCEPTANCE_CHECKS, 1e-7)
def check_singular_values():
    """Closed singular-value formula against the double-quadrature norm of the
    dual image, at w = 1 on the (1,1) zero circle |w| = 1, where s_(1,1) must
    vanish, and at the generic point w = 0.6+0.5i off it.  The bi-disk sum
    runs over rotation orbits (`_singular_values_quadrature`)."""
    nu, alpha, beta = 1.0, 1.0, 1.0
    rule = plane_rule(nu)
    worst = 0.0
    for w in (1.0 + 0.0j, 0.6 + 0.5j):
        closed = spectrum(nu, alpha, beta, w, 4, 4).values
        quad = _singular_values_quadrature(nu, alpha, beta, w, 4, 4, rule)
        worst = max(worst, float(np.max(np.abs(closed - quad))))
        if w == 1.0:
            s11_circle = float(closed[1, 1])
    detail = "s_(1,1) on zero circle = %.3e (must be < 1e-12)" % s11_circle
    return worst, detail, s11_circle < 1e-12


@_check(ACCEPTANCE_CHECKS, 0.0)
def check_schatten_bound():
    """Every tabulated singular value obeys the Gamma-ratio envelope
    pi e^{nu|w|^2/2} (m! n! G(a+1) G(b+1) / (G(m+a+2) G(n+b+2)))^{1/2}."""
    nu, alpha, beta = 1.0, 1.0, 1.0
    w = 1.0 + 0.5j
    spec = spectrum(nu, alpha, beta, w, 40, 40)
    ms = np.arange(41)
    bound = math.exp(nu * abs(w) ** 2 / 2.0) * np.sqrt(gamma_norm(alpha, beta, ms[:, None], ms))
    return float(np.max(spec.values - bound))


@_check(ACCEPTANCE_CHECKS, 1e-10)
def check_boundedness_bracket():
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
    return worst


@_check(ACCEPTANCE_CHECKS, 1e-7)
def check_hankel_reduction():
    """Angular Fourier coefficients of the 2D transform equal the order-k
    Hankel transforms of the input's radial profiles, k in {0, 1, 2}."""
    nu, u, v = 1.0, 0.4, 0.3
    profiles = {0: lambda r: 1.0 - r**2, 1: lambda r: r, 2: lambda r: r**2}
    theta = 2.0 * math.pi * np.arange(32) / 32
    rhos = np.array([0.5, 1.0, 2.0])
    # f = sum_k profile_k(r) e^{ik theta} = (1 - r^2) + z + z^2 at 32 xi per radius; a
    # plain callable, so that `frft_apply` integrates it instead of taking an exact route
    G = frft_apply(
        TransformParams(nu, u, v), lambda z: (1.0 - np.abs(z) ** 2) + z + z**2,
        rhos[:, None] * np.exp(1j * theta), plane_rule(nu),
    )
    worst = 0.0
    for k, prof in profiles.items():
        gk = np.mean(G * np.exp(-1j * k * theta), axis=1)
        worst = max(worst, float(np.max(np.abs(gk - hankel_apply(nu, k, u, v, prof, rhos)))))
    return worst


@_check(ACCEPTANCE_CHECKS, 1e-10)
def check_hankel_fixed_point():
    """Order-0 Hankel transform of the constant profile is identically 1."""
    worst = 0.0
    for u, v in ((0.4, 0.3), (0.7, 0.2)):
        for y in (0.0, 0.5, 1.0, 2.0, 3.0):
            got = hankel_apply(1.0, 0.0, u, v, lambda r: np.ones_like(r), y)
            worst = max(worst, abs(got - 1.0))
    return worst


@_check(ACCEPTANCE_CHECKS, 1e-8)
def check_bergman_reproducing():
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
        a, b = (0.3 + 0.3j, -0.5), (0.5j, 0.2 - 0.4j)
        powers_u = (a[0] * np.conj(b[0])) ** ms
        powers_v = (a[1] * np.conj(b[1])) ** ms
        partial = np.einsum("m,n,mn->", powers_u, powers_v, inv_gamma)
        worst = max(worst, float(_rel(partial, bergman_kernel(alpha, beta, a, b))))
    return worst


@_check(ACCEPTANCE_CHECKS, 0.0)
def check_null_space():
    """At w = 1, nu = 1 the numerically detected null indices over a 6x6 box
    match the zero-circle prediction, and the dual transform annihilates
    exactly those modes."""
    nu, w = 1.0, 1.0
    predicted = {
        (m, n)
        for m in range(6)
        for n in range(6)
        if any(abs(r - 1.0) < 1e-8 for r in zero_radii(nu, m, n).radii)
    }
    detected = null_index_set(nu, w, 5, 5, 1e-10)
    # the modes whose images vanish on a 3x3 (u, v) grid
    rule = plane_rule(nu)
    grid = np.array([0.2, 0.45, 0.7])
    images = _psi_images(nu, rule, 5, 5, grid[:, None], grid, w)
    vanish = np.max(np.abs(images), axis=-1) < 1e-10
    annihilated = {(int(m), int(n)) for m, n in np.argwhere(vanish)}
    mismatches = len(predicted ^ detected) + len(predicted ^ annihilated)
    return mismatches, "predicted null indices: %s" % sorted(predicted), True


@_check(ACCEPTANCE_CHECKS, 1e-3)
def check_compactness_tail():
    """Finite-rank tail decreases monotonically and falls below 1e-3 of its
    (2, 2) value by cutoff (20, 20), for alpha = beta = 1."""
    nu, alpha, beta, w = 1.0, 1.0, 1.0, 1.0
    tails = [finite_rank_tail(nu, alpha, beta, w, p, p) for p in range(2, 21)]
    monotone = all(b < a for a, b in zip(tails, tails[1:]))
    return tails[-1] / tails[0], "monotone decrease: %s" % monotone, monotone


@_check(INVARIANT_CHECKS, 1e-12)
def check_rodrigues_cross_check():
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
    return worst


@_check(INVARIANT_CHECKS, 1e-12)
def check_conjugate_symmetry():
    """hermite_ito(m, n, z) is the conjugate of hermite_ito(n, m, z)."""
    nu = 0.8
    axis = np.linspace(-1.0, 1.0, 5)
    zs = (axis[:, None] + 1j * axis[None, :]).ravel()
    H = np.array([[hermite_ito(nu, m, n, zs) for n in range(11)] for m in range(11)])
    diff = np.abs(H - np.conj(np.transpose(H, (1, 0, 2))))
    scale = np.maximum(np.abs(H), 1.0)
    return float(np.max(diff / scale))


@_check(INVARIANT_CHECKS, 1e-11)
def check_laguerre_factorization():
    """For m >= n, H_{m,n} = (-1)^n n! nu^m z^{m-n} L_n^{(m-n)}(nu |z|^2)."""
    nu = 1.0
    zs = np.array([0.5 + 0.5j, -1.1 + 0.2j, 1.7j, 2.0])
    eval_genlaguerre = scipy_special().eval_genlaguerre
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
            worst = max(worst, float(np.max(_rel(got, fact, 1.0))))
    return worst


@_check(INVARIANT_CHECKS, 1e-9)
def check_zero_radii_consistency():
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
    return worst


@_check(INVARIANT_CHECKS, 0.0)
def check_bessel_monotone():
    """I_a(x) > 0 and increasing in x for each fixed order a >= 0, with I_a
    assembled as ive(a, x) e^x the way `hankel_apply` uses it."""
    xs = np.linspace(0.1, 40.0, 60)
    ive = scipy_special().ive
    ok = True
    for a in (0.0, 0.5, 1.0, 3.0):
        vals = ive(a, xs) * np.exp(xs)
        ok = ok and bool(np.all(vals > 0) and np.all(np.diff(vals) > 0))
    return 0.0 if ok else 1.0


@_check(INVARIANT_CHECKS, 1e-9)
def check_dual_coeff_vs_quadrature():
    """Coefficient-path dual transform against the quadrature path of
    `frft_apply` on the plane rule.  f is handed to `frft_apply` as a plain
    callable, so that it integrates instead of taking the same exact route."""
    nu, w = 1.0, 0.6 + 0.4j
    rule = plane_rule(nu)
    f = CoeffFunction(
        nu=nu,
        coeffs={(0, 0): 0.5, (2, 1): 1.0 - 0.5j, (1, 3): 0.25j, (4, 0): -0.75},
    )
    worst = 0.0
    for uv in ((0.3, 0.2), (0.5j, -0.4), (-0.35, 0.55j)):
        a = frft_apply(TransformParams(nu, *uv), lambda z: f(z), w, rule)
        b = dual_apply_coeff(nu, w, f, uv)
        worst = max(worst, abs(a - b))
    return worst


@_check(INVARIANT_CHECKS, 0.0)
def check_pointwise_estimate():
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
            bound = math.sqrt(frft_kernel_raw(nu, u * u, v * v, w, w).real) * norm
            worst = max(worst, val - bound)
    return worst


def _adjoint_pairing(nu, w, f, g, prule, brule):
    """<f, R* g>_{L2}: the sum over the nodes z of the plane rule `prule` of
    weight(z) f(z) conj(R* g(z)), R* being `adjoint_apply` on `brule`.

    It runs over one plane node per rotation orbit.  With n the angular count
    of `brule`, which must divide that of `prule`, rotating by
    phi_k = 2 pi k / n permutes the nodes of both rules, so the kernel's
    rotation covariance (`kernels.frft_kernel_raw`) gives
    R* g(zeta e^{i phi_k}) = R* g_k(zeta) with g_k(u, v) = g(u e^{i phi_k}, v e^{-i phi_k}).
    The plane weights depend on the radius alone, so by linearity the sum is
    sum_b weight(zeta_b) conj(R* G_b(zeta_b)) over the base nodes zeta_b at
    the angles below 2 pi / n, with G_b = sum_k conj(f(zeta_b e^{i phi_k})) g_k.
    """
    n = brule.params["n_angular"]
    per, rest = divmod(prule.params["n_angular"], n)  # base angles per radius
    if rest:
        raise ValueError("the bi-disk angular count must divide the plane's")
    # plane node (radius i, angle a + per k) is zeta_(i, a) e^{i phi_k}
    conj_f = np.conj(f(prule.nodes)).reshape(-1, n, per).transpose(0, 2, 1).reshape(-1, n)
    base, weights = (a.reshape(-1, n, per)[:, 0].ravel() for a in (prule.nodes, prule.weights))
    # g_k on the bi-disk grid: the angle index of u moves by +k, that of v by -k
    u, v = brule.axes
    samples = _samples(brule, g).reshape(-1, n, len(v) // n, n)
    rotated = np.array([np.roll(samples, (-k, k), axis=(1, 3)) for k in range(n)])
    rotated = rotated.reshape(n, len(u), len(v))
    alpha, beta = brule.params["alpha"], brule.params["beta"]
    # each G_b, sampled on the grid `adjoint_apply` samples, is formed when its call starts
    rstar = [adjoint_apply(nu, w, alpha, beta, lambda u, v, G=np.tensordot(c, rotated, 1): G, zb, brule)
             for c, zb in zip(conj_f, base)]
    return complex(np.dot(weights, np.conj(rstar)))


@_check(INVARIANT_CHECKS, 1e-8)
def check_adjoint_identity():
    """<R f, g>_{alpha,beta} = <f, R* g>_{L2} on low-degree pairs.  The
    right-hand side runs over rotation orbits (`_adjoint_pairing`): 96 of
    the 1152 plane nodes."""
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
    return abs(lhs - _adjoint_pairing(nu, w, f, g, prule, brule))


@_check(INVARIANT_CHECKS, 1e-8)
def check_parseval_dual_norm():
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
    return abs(quad - norm2)


@_check(INVARIANT_CHECKS, 1e-8)
def check_bargmann_laguerre_basis():
    """Second Bargmann transform maps the Laguerre product basis to
    [G(a+m+1)/m!][G(b+n+1)/n!] z^m w^n."""
    alpha, beta = 0.5, 1.0
    rule = quadrant_rule(alpha, beta)
    sp = scipy_special()
    gammaln, eval_genlaguerre = sp.gammaln, sp.eval_genlaguerre
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
    return worst


@_check(INVARIANT_CHECKS, 1e-10)
def check_quadrature_selfconvergence():
    """Doubling the radial size changes a smooth integrand by < 1e-10."""
    nu = 1.0
    f = lambda z: np.exp(-0.3 * np.abs(z) ** 2 + 0.2 * z)
    a = integrate(plane_rule(nu), f)
    b = integrate(plane_rule(nu, 128), f)
    return float(_rel(a, b))


def _plan(tolerances, names):
    """The checks a run selects, in list order, each with the tolerance it is
    judged at (None for its default).

    Raises ValueError, before any check runs, on a tolerance whose key names
    no check or whose value is not a number > 0, and on a name that names no
    check.
    """
    every = ACCEPTANCE_CHECKS + INVARIANT_CHECKS
    known = {_name(fn) for fn in every}
    if not isinstance(tolerances, dict):
        raise ValueError("'tolerances' must be an object")
    for key, val in tolerances.items():
        if key not in known:
            raise ValueError("tolerance %r names no check" % (key,))
        if isinstance(val, bool) or not isinstance(val, (int, float)) or not val > 0:
            raise ValueError("tolerance %r must be a number > 0, got %r" % (key, val))
    if names is not None:
        if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
            raise ValueError("'checks' must be a list of check names")
        if set(names) - known:
            raise ValueError("unknown check names: %s" % sorted(set(names) - known))
        every = [fn for fn in every if _name(fn) in names]
    return [(fn, tolerances.get(_name(fn))) for fn in every]


def run_checks(tolerances=None, names=None):
    """Run the acceptance and invariant checks and return their CheckResults.

    Each check builds its quadrature rules at the one size its tolerance was
    set for.  `tolerances` maps a check name to the tolerance it is judged
    at, which leaves the check's other conditions in force; `names` restricts
    the run to the listed checks.  A check's name is the one it reports, its
    function name without `check_`.  Each result records the check's wall
    time in `wall_s`.  The whole config is validated first: see `_plan` for
    what raises ValueError.  A ValueError from a running check propagates as
    it is.
    """
    results = []
    for fn, tolerance in _plan({} if tolerances is None else tolerances, names):
        start = time.perf_counter()
        result = fn(tolerance)
        result.wall_s = time.perf_counter() - start
        results.append(result)
    return results
