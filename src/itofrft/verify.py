"""Self-verification suite: every acceptance criterion and the module-level
invariants, as named checks producing {name, status, observed, tolerance}
records.  Shared by the CLI `verify` subcommand and the acceptance tests.
"""

import decimal
import functools
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .specfun import scipy_special
from .ito_hermite import hermite_ito, psi_table, null_index_set, zero_radii
from .kernels import TransformParams, bergman_kernel, frft_kernel, mehler_closed, mehler_series
from .quadrature import bidisk_rule, integrate, plane_rule, quadrant_rule
from .spectral import finite_rank_tail, gamma_norm, kw_constant, spectrum
from .transforms import (
    CoeffFunction,
    adjoint_apply,
    bargmann2_apply,
    bergman_norm,
    frft_apply,
    hankel_apply,
)

__all__ = ["CheckResult", "ACCEPTANCE_CHECKS", "INVARIANT_CHECKS", "run_checks"]


@dataclass
class CheckResult:
    """Passes when `observed <= tolerance` and its other conditions hold."""

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


def _check(group, tolerance):
    """Declare the check defined below: it reports under its function name
    without `check_`, is judged at its stated `tolerance`, and joins
    `group`.  Its body takes no argument and returns the observed value, or
    (observed, detail, side conditions)."""

    def declare(body):
        name = _name(body)

        @functools.wraps(body)
        def check():
            out = body()
            observed, detail, side_conditions = out if isinstance(out, tuple) else (out, "", True)
            return CheckResult(name, float(observed), float(tolerance), detail,
                               bool(side_conditions))

        group.append(check)
        return check

    return declare


def _rel(a, b, floor=1e-300):
    # |a - b| relative to |b|, or to `floor` where |b| is smaller
    return np.abs(a - b) / np.maximum(np.abs(b), floor)


_Z_POINTS = np.array([0.3 + 0.2j, -1.0 + 1.1j, 1.5, -0.7 - 1.2j, 0.9j])
_UV_PAIRS = [(0.5, 0.5), (0.4j, 0.3), (-0.25, 0.5)]


@_check(ACCEPTANCE_CHECKS, 1e-10)
def check_orthonormality():
    """Gram matrix of the normalized basis under plane quadrature is the
    identity for all indices <= 8 and nu in {0.5, 1, 2}; G is summed over 8
    blocks of nodes, so that no 81 x 4096 psi table is held."""
    worst = 0.0
    for nu in (0.5, 1.0, 2.0):
        rule = plane_rule(nu)
        G = np.zeros((81, 81), dtype=complex)
        for nodes, weights in zip(*(np.array_split(c, 8) for c in (rule.nodes, rule.weights))):
            P = psi_table(nu, nodes, 8, 8).reshape(81, -1)
            G += (P * weights) @ P.conj().T
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


def _classical_mehler(t, x, y):
    """M_t(x_i, y_j) = sum_{k=0}^{100} t^k / (2^k k!) H_k(x_i) H_k(y_j), physicists'
    H_k by their three-term recurrence, summed in 40-digit `decimal` arithmetic, so
    that the oracle is the same on every platform, and rounded to double at the end."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        H = {}
        for v in {*x, *y}:
            h = [D(1), 2 * D(v)]
            for k in range(1, 100):
                h.append(h[1] * h[k] - 2 * k * h[k - 1])
            H[v] = h
        c = [D(1)]
        for k in range(1, 101):
            c.append(c[-1] * D(t) / (2 * k))
        cx = [list(map(operator.mul, c, H[v])) for v in x]
        return np.array([[float(sum(map(operator.mul, a, H[v]))) for v in y] for a in cx])


@_check(ACCEPTANCE_CHECKS, 1e-9)
def check_mehler_classical():
    """`mehler_closed` at real u = v = t against the classical Mehler series
    M_t(x, y) = sum_k t^k / (2^k k!) H_k(x) H_k(y), truncated at N=100, by
    K_{t,t}(z, w) = M_t(sqrt(nu) Re z, sqrt(nu) Re w) M_{-t}(sqrt(nu) Im z, sqrt(nu) Im w)
    with sqrt(nu) z on a 9x9 and sqrt(nu) w on a 5x5 grid of [-3, 3]^2.

    The series is summed in 40-digit decimal (`_classical_mehler`): near
    x = -y = 3, M_t is ~1e-8 while its terms are O(1), so the 1e-9 relative
    tolerance sits below double-precision cancellation noise; truncation at
    60 terms leaves a ~2e-8 relative tail at t=0.5 and is likewise
    insufficient."""
    x = np.linspace(-3.0, 3.0, 9)
    z = (x[:, None] + 1j * x)[:, :, None, None]  # entries [Re z, Im z, Re w, Im w]
    w = x[::2, None] + 1j * x[::2]
    worst = 0.0
    for t in (0.1, 0.3, 0.5, -0.4):
        # M_t and M_{-t} at (z axis, w axis)
        mp, mm = (_classical_mehler(s, x.tolist(), x[::2].tolist()) for s in (t, -t))
        series = mp[:, None, :, None] * mm[None, :, None, :]
        for nu in (0.5, 1.0, 2.0):
            closed = mehler_closed(TransformParams(nu, t, t), z / math.sqrt(nu), w / math.sqrt(nu))
            worst = max(worst, float(np.max(_rel(closed, series))))
    return worst


@_check(ACCEPTANCE_CHECKS, 1e-8)
def check_frft_eigenrelation():
    """frft_apply(psi_{m,n}) = u^m v^n psi_{m,n} for m, n <= 6 on a 4x4 target
    grid, three parameter points including complex values."""
    nu = 1.0
    axis = np.linspace(-1.2, 1.2, 4)
    xis = (axis[:, None] + 1j * axis[None, :]).ravel()
    uv = np.array([(0.3, 0.5), (0.5j, 0.2), (-0.4, 0.4)])
    # the psi table transformed at once: three parameter points (a column) against 16 targets
    got = frft_apply(TransformParams(nu, uv[:, :1], uv[:, 1:]),
                     lambda z: psi_table(nu, z, 6, 6), xis, plane_rule(nu))
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
            p = TransformParams(nu, u, v)
            lhs = integrate(rule, lambda z: np.abs(frft_kernel(p, z, w)) ** 2)
            rhs = frft_kernel(TransformParams(nu, abs(u) ** 2, abs(v) ** 2), w, w)
            worst = max(worst, float(_rel(lhs, rhs)))
    return worst


@_check(ACCEPTANCE_CHECKS, 1e-7)
def check_singular_values():
    """Closed singular-value formula against the double-quadrature norm of the
    dual image, at w = 1 on the (1,1) zero circle |w| = 1, where s_(1,1) must
    vanish, and at the generic point w = 0.6+0.5i off it.

    Each image is formed by plane quadrature at every node of
    `bidisk_rule(1, 1, 3, 3)`, and its squared modulus summed on that rule.
    The rule is exact: the image of psi_{m,n} is psi_{m,n}(w) u^m v^n, so its
    squared modulus has no angular part and degree <= 4 in |u|^2 and in
    |v|^2, which 3 Gauss-Jacobi nodes integrate exactly (2 do not).  The 3
    angles keep complex (u, v) in the check."""
    nu, alpha, beta = 1.0, 1.0, 1.0
    rule = plane_rule(nu)
    brule = bidisk_rule(alpha, beta, 3, 3)
    x, y = brule.axes
    p = TransformParams(nu, x[:, None], y)
    worst = 0.0
    for w in (1.0 + 0.0j, 0.6 + 0.5j):
        closed = spectrum(nu, alpha, beta, w, 4, 4).values
        images = frft_apply(p, lambda z: psi_table(nu, z, 4, 4), w, rule).reshape(5, 5, -1)
        quad = np.sqrt((images.real**2 + images.imag**2) @ brule.weights)
        worst = max(worst, float(np.max(np.abs(closed - quad))))
        if w == 1.0:
            s11_circle = float(closed[1, 1])
    detail = "s_(1,1) on zero circle = %.3e (must be < 1e-12)" % s11_circle
    return worst, detail, s11_circle < 1e-12


@_check(ACCEPTANCE_CHECKS, 0.0)
def check_schatten_bound():
    """Every tabulated singular value obeys the envelope
    (nu/pi)^{1/2} e^{nu|w|^2/2} gamma_{m,n}^{1/2} (`gamma_norm`), since
    (pi/nu) e^{-nu|w|^2} |psi_{m,n}(w)|^2, the squared modulus of a matrix
    coefficient of a unitary displacement operator, is <= 1, with equality
    for s_{0,0} at w = 0."""
    nu, alpha, beta = 1.0, 1.0, 1.0
    w = 1.0 + 0.5j
    spec = spectrum(nu, alpha, beta, w, 40, 40)
    ms = np.arange(41)
    growth = math.sqrt(nu / math.pi) * math.exp(nu * abs(w) ** 2 / 2.0)
    bound = growth * np.sqrt(gamma_norm(alpha, beta, ms[:, None], ms))
    return float(np.max(spec.values - bound))


_BRACKET_WEIGHTS = ((1.0, 1.0), (2.0, 0.5))  # (alpha, beta) of `boundedness_bracket`
_BRACKET_DEGREE = 6  # its random modes have m, n <= 6


def _bracket_battery():
    """The parameter battery of `boundedness_bracket`, in its order:
    (nu, alpha, beta, w, fs), fs being the five seeded random expansions of
    four modes with m, n <= 6 whose Rayleigh quotients it takes at that
    point.  At w = 0, psi_{m,n}(0) = 0 unless m = n, so the modes drawn
    there are diagonal and no expansion has a zero image."""
    rng = np.random.default_rng(2024)
    for nu in (0.5, 1.0, 2.0):
        for alpha, beta in _BRACKET_WEIGHTS:
            for w in (0.0, 1.0, 1.0 + 1.0j):
                fs = []
                for _ in range(5):
                    idx = rng.integers(0, _BRACKET_DEGREE + 1, size=(4, 2))
                    if w == 0:
                        idx[:, 1] = idx[:, 0]
                    amp = rng.standard_normal((4, 2))
                    modes = {(int(m), int(n)): complex(a, b) for (m, n), (a, b) in zip(idx, amp)}
                    fs.append(CoeffFunction(nu=nu, coeffs=modes))
                yield nu, alpha, beta, w, fs


@_check(ACCEPTANCE_CHECKS, 1e-10)
def check_boundedness_bracket():
    """k_w bracket containment plus empirical Rayleigh quotients below
    k_w^{1/2}, over the full parameter battery; observed is the largest margin.

    Each quotient integrates |R_w f|^2, the image from `frft_apply` read at
    w, on `bidisk_rule(alpha, beta, 4, 7)`, not through the closed norms gamma.
    The rule is exact: per disk the image has degree <= 6, so the 7 angles
    cancel every u^m conj(u)^p with 0 < |m - p| <= 6, as the exact integral
    does, and the 4 Gauss-Jacobi nodes in |u|^2 integrate the rest, of
    degree <= 6 in |u|^2."""
    rules = {ab: bidisk_rule(*ab, 4, _BRACKET_DEGREE + 1) for ab in _BRACKET_WEIGHTS}
    worst, ratio = -math.inf, 0.0
    for nu, alpha, beta, w, fs in _bracket_battery():
        kw = kw_constant(nu, alpha, beta, w)
        worst = max(worst, kw.lower - kw.value, kw.value - kw.upper)
        for f in fs:
            norm2 = integrate(
                rules[alpha, beta], lambda u, v: np.abs(frft_apply(TransformParams(nu, u, v), f, w)) ** 2
            ).real
            quotient = math.sqrt(norm2) / f.norm
            worst = max(worst, quotient - math.sqrt(kw.value))
            ratio = max(ratio, quotient / math.sqrt(kw.value))
    return worst, "largest Rayleigh quotient / k_w^(1/2) = %.3f" % ratio, True


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
    the closed kernel matches its 40x40 basis partial sum at |coords| <= 0.5.

    The quadrature integrates u^2 v^3 conj K(u, v; b) on the full 96 x 96
    grid of `bidisk_rule(alpha, beta, 2, 48)`.  Of the powers
    (conj(u) b_1)^j (conj(v) b_2)^k of conj K, the 48 angles per disk keep
    the reproducing j = 2, k = 3, whose radial part (degree 2 in |u|^2, 3 in
    |v|^2) 2 Gauss-Jacobi nodes integrate exactly, and alias only powers 48
    higher, weighted by |b_1|^48 or |b_2|^48 <= 0.5^48 = 3.6e-15."""
    worst = 0.0
    for alpha, beta in ((0.0, 0.0), (1.0, 0.5)):
        rule = bidisk_rule(alpha, beta, 2, 48)
        for b in ((0.4 + 0.2j, -0.3 + 0.35j), (0.25, 0.5j)):
            got = integrate(
                rule, lambda u, v: u**2 * v**3 * np.conj(bergman_kernel(alpha, beta, (u, v), b))
            )
            worst = max(worst, float(_rel(got, b[0] ** 2 * b[1] ** 3)))
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
    grid = np.array([0.2, 0.45, 0.7])
    images = frft_apply(TransformParams(nu, grid[:, None], grid),
                        lambda z: psi_table(nu, z, 5, 5), w, plane_rule(nu))
    vanish = np.max(np.abs(images), axis=(-2, -1)) < 1e-10
    annihilated = {(int(m), int(n)) for m, n in np.argwhere(vanish)}
    mismatches = len(predicted ^ detected) + len(predicted ^ annihilated)
    return mismatches, "predicted null indices: %s" % sorted(predicted), True


@_check(ACCEPTANCE_CHECKS, 1e-3)
def check_compactness_tail():
    """The corner sum `finite_rank_tail` (no distance to the truncation)
    decreases monotonically and falls below 1e-3 of its (2, 2) value by
    cutoff (20, 20), for alpha = beta = 1."""
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
                ref = sum((-1) ** k * math.factorial(k) * math.comb(m, k) * math.comb(n, k)
                          * nu ** (m + n - k) * z ** (m - k) * np.conj(z) ** (n - k)
                          for k in range(min(m, n) + 1))
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


@_check(INVARIANT_CHECKS, 1e-9)
def check_dual_coeff_vs_quadrature():
    """The dual transform of a finite expansion, `frft_apply`'s exact route
    read at w, against its quadrature route on the plane rule.  f is handed
    to the latter as a plain callable, so that it integrates instead of
    taking the same exact route."""
    nu, w = 1.0, 0.6 + 0.4j
    rule = plane_rule(nu)
    f = CoeffFunction(
        nu=nu,
        coeffs={(0, 0): 0.5, (2, 1): 1.0 - 0.5j, (1, 3): 0.25j, (4, 0): -0.75},
    )
    worst = 0.0
    for uv in ((0.3, 0.2), (0.5j, -0.4), (-0.35, 0.55j)):
        p = TransformParams(nu, *uv)
        worst = max(worst, abs(frft_apply(p, lambda z: f(z), w, rule) - frft_apply(p, f, w)))
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
            val = abs(frft_apply(TransformParams(nu, u, v), f, w))
            bound = math.sqrt(frft_kernel(TransformParams(nu, u * u, v * v), w, w).real) * norm
            worst = max(worst, val - bound)
    return worst


@_check(INVARIANT_CHECKS, 1e-8)
def check_adjoint_identity():
    """<R f, g>_{alpha,beta} = <f, R* g>_{L2} on low-degree pairs, both sides
    on `bidisk_rule(alpha, beta, 3, 8)`.  The right-hand side is the sum over
    the 1152 nodes z of `plane_rule(nu, 48, 24)` of weight(z) f(z)
    conj(R* g(z)), with R* g from one `adjoint_apply` call at every node.

    The left side is exact on that rule: R f has modes m <= 3 in u and
    n <= 2 in v, so per disk its product with conj(g) has angular frequency
    <= 3, which the 8 angles integrate exactly, and degree <= 2 in |u|^2 and
    in |v|^2, which 3 Gauss-Jacobi nodes do.  Summed on the same rule, the
    right side is the left side with R f by plane quadrature at the nodes,
    |u|, |v| <= 0.8875, where each kernel's Gaussian of width
    sqrt((1 - uv) / nu) is wide enough for the plane rule to resolve."""
    nu, w, alpha, beta = 1.0, 0.8, 1.0, 1.0
    prule = plane_rule(nu, 48, 24)
    brule = bidisk_rule(alpha, beta, 3, 8)
    f = CoeffFunction(nu=nu, coeffs={(0, 0): 1.0, (1, 2): 0.5 - 0.25j, (3, 0): 0.3j})

    def g(u, v):
        return u * np.conj(u) + 0.5 * v**2 - 0.25j * u

    lhs = integrate(
        brule,
        lambda u, v: frft_apply(TransformParams(nu, u, v), f, w) * np.conj(g(u, v)),
    )
    rstar = adjoint_apply(nu, w, g, prule.nodes, brule)
    return abs(lhs - np.dot(prule.weights, f(prule.nodes) * np.conj(rstar)))


@_check(INVARIANT_CHECKS, 1e-8)
def check_parseval_dual_norm():
    """Bi-disk quadrature norm of the dual image equals the weighted
    coefficient sum sum |a|^2 |psi(w)|^2 gamma, which is `bergman_norm` of
    the image's monomial coefficients a_{m,n} psi_{m,n}(w).

    The quadrature is on `bidisk_rule(alpha, beta, 2, 4)`, which is exact:
    the modes of f have m, n <= 3, so per disk |R f|^2 has angular frequency
    <= 3, which the 4 angles integrate exactly, and degree <= 3 in |u|^2 and
    in |v|^2, which 2 Gauss-Jacobi nodes do (1 does not)."""
    nu, w, alpha, beta = 1.0, 1.2 + 0.1j, 1.0, 0.5
    brule = bidisk_rule(alpha, beta, 2, 4)
    f = CoeffFunction(
        nu=nu, coeffs={(0, 1): 1.0, (2, 2): -0.5j, (1, 0): 0.75, (3, 3): 0.2}
    )
    quad = integrate(
        brule, lambda u, v: np.abs(frft_apply(TransformParams(nu, u, v), f, w)) ** 2
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
                lambda s, t: eval_genlaguerre(m, alpha, s) * eval_genlaguerre(n, beta, t), zw, rule
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


_HS_POINTS = ((1.0, 4.0, 4.0, 1.0), (0.5, 4.0, 5.0, 1.5 + 1.5j), (2.0, 3.0, 4.0, 0.8j))


@_check(INVARIANT_CHECKS, 1e-10)
def check_hilbert_schmidt_identity():
    """k_w is the squared Hilbert-Schmidt norm of the dual transform, the sum
    of s_{m,n}^2 over every index: `kw_constant`, a quadrature of the closed
    kernel, against the sum over the 151 x 151 box of `spectrum`, a psi
    table, two independent routes; observed is their largest relative
    difference.  At these alpha, beta >= 3 and x = nu |w|^2 <= 2.25 the s^2
    beyond the box add less than 1e-14 of k_w (measured to box 200), and
    k_w's 128-node rule is 1.4e-14 off mpmath at x = 2.25."""
    worst = 0.0
    for nu, alpha, beta, w in _HS_POINTS:
        kw = kw_constant(nu, alpha, beta, w).value
        hs = np.sum(spectrum(nu, alpha, beta, w, 150, 150).values ** 2)
        worst = max(worst, abs(kw - hs) / kw)
    return worst


def run_checks(names=None):
    """Run the acceptance and invariant checks and return their CheckResults,
    each judged at its stated tolerance on rules of the one size that
    tolerance was set for, with its wall time in `wall_s`.

    `names` restricts the run to the checks it lists by the names they
    report (function names without `check_`); the checks run in declaration
    order, called through `ACCEPTANCE_CHECKS` and `INVARIANT_CHECKS`.  A
    `names` that is not a list of check names raises ValueError before any
    check runs; a ValueError from a running check propagates as it is.
    scipy is loaded before the first check, so no `wall_s` holds its
    one-time import."""
    checks = ACCEPTANCE_CHECKS + INVARIANT_CHECKS
    if names is not None:
        if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
            raise ValueError("names must be a list of check names, got %r" % (names,))
        unknown = set(names) - {_name(fn) for fn in checks}
        if unknown:
            raise ValueError("unknown check names: %s" % sorted(unknown))
        checks = [fn for fn in checks if _name(fn) in names]
    scipy_special()
    results = []
    for fn in checks:
        start = time.perf_counter()
        result = fn()
        result.wall_s = time.perf_counter() - start
        results.append(result)
    return results
