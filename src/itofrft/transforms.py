"""The 2D fractional Fourier transform, its dual into the bi-disk, the
adjoint, the second Bargmann transform, and the fractional Hankel reduction.

Finite psi-expansions (`CoeffFunction`) are the preferred input
representation; plain callables sampled at quadrature nodes are also
accepted wherever a transform integrates its input.
"""

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from scipy.special import ive, roots_genlaguerre

from .specfun import DEGREE_CAP
from .ito_hermite import psi_table
from .kernels import frft_kernel_raw
from .quadrature import integrate
from .spectral import gamma_norm

__all__ = [
    "CoeffFunction",
    "RadialFunction",
    "frft_apply",
    "dual_apply_coeff",
    "adjoint_apply",
    "bergman_norm",
    "hankel_apply",
    "rotational_frft",
    "angular_coefficients",
    "bargmann2_apply",
]


@dataclass(frozen=True)
class CoeffFunction:
    """Finite expansion sum_{m,n} a_{m,n} psi^nu_{m,n} in the normalized
    Ito-Hermite basis; immutable and evaluable on scalar or array z."""

    nu: float
    coeffs: dict  # (m, n) -> complex

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        clean = {}
        for (m, n), a in self.coeffs.items():
            if m < 0 or n < 0 or m > DEGREE_CAP or n > DEGREE_CAP:
                raise ValueError("coefficient index (%r, %r) out of range" % (m, n))
            if a != 0:
                clean[(int(m), int(n))] = complex(a)
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    @property
    def norm(self):
        """L^2 norm against the Gaussian measure (Parseval)."""
        return math.sqrt(sum(abs(a) ** 2 for a in self.coeffs.values()))

    def __call__(self, z):
        out = sum(t for _, _, t in _coeff_terms(self, np.asarray(z, dtype=complex)))
        return complex(out) if np.ndim(out) == 0 else out


def _coeff_terms(f, z):
    """(m, n, a_{m,n} psi_{m,n}(z)) for each coefficient of f, from one table.

    The empty expansion gives one zero term, so that a sum over the terms
    always has the shape of z."""
    coeffs = f.coeffs or {(0, 0): 0j}
    max_m = max(m for m, _ in coeffs)
    max_n = max(n for _, n in coeffs)
    P = psi_table(f.nu, z, max_m, max_n)
    return [(m, n, a * P[m, n]) for (m, n), a in coeffs.items()]


@dataclass(frozen=True)
class RadialFunction:
    """Radial profile r -> complex for rotationally symmetric inputs."""

    profile: object  # callable on arrays of r >= 0
    kind: str = "callable"

    def __call__(self, r):
        return self.profile(r)

    @classmethod
    def from_coeff(cls, f):
        """Profile of a coefficient function carrying a single angular mode:
        for f(r e^{i theta}) = Psi(r) e^{ik theta}, Psi(r) = f(r)."""
        return cls(profile=lambda r: f(np.asarray(r, dtype=complex)), kind="coeff_profile")


def frft_apply(p, f, xi, rule):
    """2D fractional Fourier transform at the point xi:

        integral of f(zeta) K^nu_{u,v}(zeta; xi) e^{-nu |zeta|^2} dA(zeta)

    by plane quadrature.  The normalized basis functions are eigenfunctions:
    psi_{m,n} maps to u^m v^n psi_{m,n}.
    """
    if rule.kind != "plane":
        raise ValueError("expected a plane quadrature rule, got kind=%r" % rule.kind)
    if not math.isclose(rule.params.get("nu", -1.0), p.nu, rel_tol=1e-12):
        raise ValueError(
            "rule was built for nu=%r but the transform uses nu=%r"
            % (rule.params.get("nu"), p.nu)
        )
    xi = complex(xi)
    return integrate(rule, lambda z: np.asarray(f(z)) * frft_kernel_raw(p.nu, p.u, p.v, z, xi))


def dual_apply_coeff(nu, w, f, uv):
    """Quadrature-free dual transform of a finite expansion:
    sum a_{m,n} psi_{m,n}(w) u^m v^n.

    (u, v) entries may be scalars or arrays (broadcast elementwise).  The
    dual transform at (u, v) is the integral `frft_apply` computes with
    TransformParams(nu, u, v), read at the target w.
    """
    if nu != f.nu:
        raise ValueError(
            "f is expanded in the basis for nu=%r but the transform uses nu=%r"
            % (f.nu, nu)
        )
    u, v = (np.asarray(c, dtype=complex) for c in uv)
    out = sum(t * u**m * v**n for m, n, t in _coeff_terms(f, complex(w)))
    return complex(out) if np.ndim(out) == 0 else out


def adjoint_apply(nu, w, alpha, beta, g, z, rule):
    """Adjoint of the dual transform at the planar point z:

        integral over D^2 of g(u, v) conj(K^nu_{u,v}(z; w)) dmu_{alpha,beta}(u, v).
    """
    if rule.kind != "bidisk":
        raise ValueError("expected a bidisk quadrature rule, got kind=%r" % rule.kind)
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not math.isclose(rule.params.get(name, math.nan), val, rel_tol=1e-12):
            raise ValueError("rule %s does not match the transform %s" % (name, name))
    z = complex(z)
    w = complex(w)
    return integrate(
        rule,
        lambda u, v: np.asarray(g(u, v))
        * np.conj(frft_kernel_raw(nu, u, v, z, w)),
    )


def bergman_norm(coeffs, alpha, beta):
    """Norm (sum gamma_{m,n} |b_{m,n}|^2)^{1/2} of the analytic bi-disk
    function with monomial coefficients b_{m,n}."""
    total = 0.0
    for (m, n), b in coeffs.items():
        if b != 0:
            total += gamma_norm(alpha, beta, m, n) * abs(b) ** 2
    return math.sqrt(total)


def hankel_apply(nu, order, u, v, psi_profile, y, n_radial=64):
    """Fractional Hankel transform of the radial profile Psi at y >= 0:

        (2 nu / (1-uv)) (u/v)^{order/2}
          * integral_0^inf x Psi(x) I_order(2 nu sqrt(uv) x y / (1-uv))
                           e^{-nu (x^2 + uv y^2) / (1-uv)} dx

    via a Gauss-Laguerre rule in t = nu x^2 / (1-uv).  Parameters are
    restricted to real u, v in (0, 1) so that every fractional power is
    principal and positive.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if not (0.0 < u < 1.0 and 0.0 < v < 1.0):
        raise ValueError("hankel_apply requires real u, v in (0, 1)")
    if y < 0:
        raise ValueError("y must be >= 0")
    ell = nu / (1.0 - u * v)
    t, wt = roots_genlaguerre(n_radial, 0.0)
    x = np.sqrt(t / ell)
    b = 2.0 * ell * math.sqrt(u * v) * y
    samples = np.asarray(psi_profile(x), dtype=complex)
    samples = np.broadcast_to(samples, x.shape)
    if not np.all(np.isfinite(samples)):
        i = int(np.argmax(~np.isfinite(samples)))
        raise ValueError("non-finite radial sample at x=%g" % x[i])
    # I_order(bx) e^{-ell uv y^2} = ive(order, bx) e^{bx - ell uv y^2}
    bx = b * x
    factor = ive(order, bx) * np.exp(bx - ell * u * v * y * y)
    return (u / v) ** (order / 2.0) * complex(np.dot(wt, samples * factor))


def rotational_frft(nu, u, v, k, psi_profile, xi, n_radial=64):
    """Fractional Fourier transform of the single-mode rotational function
    Psi(|zeta|) e^{ik theta}, reduced to the order-k Hankel transform:

        (xi/|xi|)^k * H^{nu,k}_{u,v}(Psi)(|xi|).
    """
    if k < 0:
        raise ValueError("k must be >= 0; negative modes follow by conjugation")
    xi = complex(xi)
    if xi == 0 and k > 0:
        return 0j
    radial = hankel_apply(nu, k, u, v, psi_profile, abs(xi), n_radial=n_radial)
    phase = (xi / abs(xi)) ** k if k > 0 else 1.0
    return phase * radial


def angular_coefficients(f, ks, r, n_angular):
    """Angular Fourier coefficients g_k(r) of a planar function on the circle
    of radius r, by the uniform angular rule.

    Requires n_angular > 2 max|k| to avoid aliasing.
    """
    ks = list(ks)
    if ks and n_angular <= 2 * max(abs(k) for k in ks):
        raise ValueError("n_angular must exceed twice the largest |k| requested")
    theta = 2.0 * math.pi * np.arange(n_angular) / n_angular
    samples = np.asarray(f(r * np.exp(1j * theta)), dtype=complex)
    samples = np.broadcast_to(samples, theta.shape)
    return {k: complex(np.mean(samples * np.exp(-1j * k * theta))) for k in ks}


def bargmann2_apply(alpha, beta, phi, zw, rule):
    """Second Bargmann transform of phi at the bi-disk point (z, w):

        (1-z)^{-alpha-1} (1-w)^{-beta-1}
          * integral over the quadrant of s^alpha t^beta
              exp[(s w + t z - s - t) / ((1-z)(1-w))] phi(s, t) ds dt.

    The quadrant rule carries the weight s^alpha t^beta e^{-s-t}, so the
    integrand passed to it is phi times exp of the displayed exponent plus
    s + t, keeping the rule's weight exact.

    On the Laguerre basis, phi = L_m^{(alpha)}(s) L_n^{(beta)}(t) maps to
    [Gamma(alpha+m+1)/m!] [Gamma(beta+n+1)/n!] z^m w^n (constant pinned
    numerically against quadrature; the transform is not normalized to be
    unitary here).
    """
    z, w = complex(zw[0]), complex(zw[1])
    if abs(z) >= 1 or abs(w) >= 1:
        raise ValueError("bargmann2_apply requires |z| < 1 and |w| < 1")
    if rule.kind != "quadrant":
        raise ValueError("expected a quadrant quadrature rule, got kind=%r" % rule.kind)
    denom = (1.0 - z) * (1.0 - w)

    def integrand(s, t):
        return np.asarray(phi(s, t)) * np.exp((s * w + t * z - s - t) / denom + s + t)

    pref = (1.0 - z) ** (-alpha - 1.0) * (1.0 - w) ** (-beta - 1.0)
    return pref * integrate(rule, integrand)
