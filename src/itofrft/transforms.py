"""The 2D fractional Fourier transform, its dual into the bi-disk, the
adjoint, the second Bargmann transform, and the fractional Hankel reduction.

Finite psi-expansions (`CoeffFunction`) are the preferred input
representation: the 2D transform and its dual evaluate them exactly through
the eigenrelation psi_{m,n} -> u^m v^n psi_{m,n}, with no quadrature.  Plain
callables are also accepted; `frft_apply` integrates them on a plane
quadrature rule, which then serves as the independent cross-check of the
exact route.
"""

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .specfun import scipy_special
from .ito_hermite import _check_index, _check_nu, _check_point, psi_table
from .kernels import _blocks, _check_disk, frft_kernel_raw
from .quadrature import _check_rule, _samples, integrate
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
    "bargmann2_apply",
]

HANKEL_NODES = 64  # Gauss-Laguerre nodes of `hankel_apply`


@dataclass(frozen=True)
class CoeffFunction:
    """Finite expansion sum_{m,n} a_{m,n} psi^nu_{m,n} in the normalized
    Ito-Hermite basis; immutable and evaluable on scalar or array z."""

    nu: float
    coeffs: dict  # (m, n) -> complex

    def __post_init__(self):
        _check_nu(self.nu)
        clean = {}
        for (m, n), a in self.coeffs.items():
            _check_index(m, n)
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
    """Radial profile r -> complex for rotationally symmetric inputs.  The
    package no longer uses it; it stays public for `perfbench/workloads.py`."""

    profile: object  # callable on arrays of r >= 0

    def __call__(self, r):
        return self.profile(r)

    @classmethod
    def from_coeff(cls, f):
        """Profile of a coefficient function carrying a single angular mode:
        for f(r e^{i theta}) = Psi(r) e^{ik theta}, Psi(r) = f(r)."""
        return cls(profile=lambda r: f(np.asarray(r, dtype=complex)))


def _eigen_sum(nu, f, point, uv):
    """sum a_{m,n} u^m v^n psi_{m,n}(point) for a finite expansion f, from
    one psi table over the point(s); (u, v) entries broadcast elementwise.

    This is the eigenrelation of the transform with parameters (nu, u, v), so
    the psi_{m,n} of f must be its eigenfunctions: f.nu must equal nu.
    """
    if nu != f.nu:
        raise ValueError(
            "f is expanded in the basis for nu=%r but the transform uses nu=%r"
            % (f.nu, nu)
        )
    u, v = (np.asarray(c, dtype=complex) for c in uv)
    out = sum(t * u**m * v**n for m, n, t in _coeff_terms(f, np.asarray(point, dtype=complex)))
    return complex(out) if np.ndim(out) == 0 else out


def _contract(kernel_rows, weighted, points):
    """kernel_rows(x) @ weighted at each point x of the array points, with
    the (points, nodes) kernel matrix formed one block of `kernels._blocks`
    at a time, so memory stays bounded; a complex number if points is 0-d."""
    flat = points.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for s in _blocks(len(flat), len(weighted)):
        out[s] = kernel_rows(flat[s]) @ weighted
    return complex(out[0]) if points.ndim == 0 else out.reshape(points.shape)


def frft_apply(p, f, xi, rule=None):
    """2D fractional Fourier transform at the point(s) xi:

        integral of f(zeta) K^nu_{u,v}(zeta; xi) e^{-nu |zeta|^2} dA(zeta).

    An array xi gives an array of its shape, a scalar xi a complex number.
    Two routes, chosen by the type of f:
    - a `CoeffFunction` is transformed exactly by the eigenrelation, psi_{m,n}
      maps to u^m v^n psi_{m,n}: the result is sum a_{m,n} u^m v^n
      psi_{m,n}(xi), from one psi table at xi.  Its nu must equal p.nu.
      No rule is needed;
    - any other callable is sampled once on the plane quadrature `rule`,
      which is then required.
    A rule that is given is validated (kind and nu) on either route.
    """
    if rule is not None:
        _check_rule(rule, "plane", nu=p.nu)
    if isinstance(f, CoeffFunction):
        return _eigen_sum(p.nu, f, xi, (p.u, p.v))
    if rule is None:
        raise ValueError("a callable input needs a plane quadrature rule")
    xi = np.asarray(xi, dtype=complex)
    _check_point("frft_apply point xi", xi)
    return _contract(
        lambda x: frft_kernel_raw(p.nu, p.u, p.v, rule.nodes, x[:, None]),
        rule.weights * _samples(rule, f),
        xi,
    )


def dual_apply_coeff(nu, w, f, uv):
    """Quadrature-free dual transform of a finite expansion:
    sum a_{m,n} psi_{m,n}(w) u^m v^n.

    w is one point.  (u, v) entries may be scalars or arrays (broadcast
    elementwise), each in the open unit disk.  The dual transform at (u, v)
    is the 2D transform with TransformParams(nu, u, v), read at the target
    w; both evaluate the same eigenrelation sum.
    """
    _check_disk("dual transform points (u, v)", *uv)
    return _eigen_sum(nu, f, complex(w), uv)


def adjoint_apply(nu, w, alpha, beta, g, z, rule):
    """Adjoint of the dual transform at the planar point(s) z:

        integral over D^2 of g(u, v) conj(K^nu_{u,v}(z; w)) dmu_{alpha,beta}(u, v).

    An array z gives an array of its shape, a scalar z a complex number.
    g is sampled once on the rule's grid, as `integrate` calls it, and
    contracted against conj(K) in blocks of points (`_contract`).  A
    non-finite sample of g raises ValueError naming the node; an exponent
    the kernel's overflow guard rejects raises OverflowError.
    """
    _check_nu(nu)
    _check_rule(rule, "bidisk", alpha=alpha, beta=beta)
    z = np.asarray(z, dtype=complex)
    w = complex(w)
    _check_point("adjoint_apply points (w, z)", w, z)
    u, v = rule.axes
    # conj(K) . (weights g) = conj(K . conj(weights g)); a (len(u), len(v)) row is in weight order
    return _contract(
        lambda x: frft_kernel_raw(nu, u[:, None], v, x[:, None, None], w).reshape(len(x), -1),
        np.conj(rule.weights * _samples(rule, g)),
        z,
    ).conjugate()


def bergman_norm(coeffs, alpha, beta):
    """Norm (sum gamma_{m,n} |b_{m,n}|^2)^{1/2} of the analytic bi-disk
    function with monomial coefficients b_{m,n}."""
    total = 0.0
    for (m, n), b in coeffs.items():
        if b != 0:
            total += gamma_norm(alpha, beta, m, n) * abs(b) ** 2
    return math.sqrt(total)


@functools.cache
def _hankel_rule():
    """The `HANKEL_NODES`-node Gauss-Laguerre rule (t, wt) of `hankel_apply`,
    built on first use and write-protected, since every call shares it."""
    rule = scipy_special().roots_genlaguerre(HANKEL_NODES, 0.0)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def hankel_apply(nu, order, u, v, psi_profile, y):
    """Fractional Hankel transform of the radial profile Psi at y >= 0:

        (2 nu / (1-uv)) (u/v)^{order/2}
          * integral_0^inf x Psi(x) I_order(2 nu sqrt(uv) x y / (1-uv))
                           e^{-nu (x^2 + uv y^2) / (1-uv)} dx

    via a `HANKEL_NODES`-node Gauss-Laguerre rule in t = nu x^2 / (1-uv).
    The rule is accurate when the integrand is smooth in t, as for the
    profile of an angular mode k at order k, so `order` is one of the
    paper's modes: a non-negative integer (an integral float such as 2.0 is
    accepted).  Parameters are restricted to real u, v in (0, 1) so that
    every fractional power is principal and positive; a complex u or v with
    a nonzero imaginary part raises ValueError.  An array y gives an array of
    its shape, a scalar y a complex number.  Every y is finite; where y^2
    overflows double precision the call raises OverflowError.
    """
    _check_nu(nu)
    if not (order >= 0 and math.isfinite(order) and float(order).is_integer()):
        raise ValueError("order must be a non-negative integer, got %r" % (order,))
    u, v = complex(u), complex(v)
    if not (u.imag == v.imag == 0 and 0.0 < u.real < 1.0 and 0.0 < v.real < 1.0):
        raise ValueError("hankel_apply requires real u, v in (0, 1), got u=%r v=%r" % (u, v))
    u, v = u.real, v.real
    y = np.asarray(y, dtype=float)
    _check_point("hankel_apply radius y", y)
    lo, hi = float(y.min(initial=0.0)), float(y.max(initial=0.0))
    if lo < 0:
        raise ValueError("y must be >= 0, got %r" % (lo,))
    ell = nu / (1.0 - u * v)
    if not math.isfinite(ell * u * v * hi * hi):
        raise OverflowError("hankel_apply at y=%g overflows double precision" % hi)
    shift = ell * u * v * y * y
    t, wt = _hankel_rule()
    x = np.sqrt(t / ell)
    samples = np.asarray(psi_profile(x), dtype=complex)
    samples = np.broadcast_to(samples, x.shape)
    if not np.isfinite(samples).all():  # not np.all, which costs twice as much
        i = int(np.argmax(~np.isfinite(samples)))
        raise ValueError("non-finite radial sample at x=%g" % x[i])
    # I_order(bx) e^{-ell uv y^2} = ive(order, bx) e^{bx - ell uv y^2}, over (points, nodes)
    bx = (2.0 * ell * math.sqrt(u * v) * y)[..., None] * x
    factor = scipy_special().ive(order, bx) * np.exp(bx - shift[..., None])
    out = (u / v) ** (order / 2.0) * (samples * factor).dot(wt)
    return complex(out) if y.ndim == 0 else out


def rotational_frft(nu, u, v, k, psi_profile, xi):
    """Fractional Fourier transform of the single-mode rotational function
    Psi(|zeta|) e^{ik theta}, reduced to the order-k Hankel transform:

        (xi/|xi|)^k * H^{nu,k}_{u,v}(Psi)(|xi|).

    k is a non-negative integer, as the order of `hankel_apply`; negative
    modes follow by conjugation.
    """
    xi = complex(xi)
    # at xi = 0 the radial part of a mode k > 0 is 0, as I_k(0) = 0
    phase = (xi / abs(xi)) ** k if k > 0 and xi != 0 else 1.0
    return phase * hankel_apply(nu, k, u, v, psi_profile, abs(xi))


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
    _check_disk("bargmann2_apply point (z, w)", z, w)
    _check_rule(rule, "quadrant", alpha=alpha, beta=beta)
    denom = (1.0 - z) * (1.0 - w)

    def integrand(s, t):
        return np.asarray(phi(s, t)) * np.exp((s * w + t * z - s - t) / denom + s + t)

    pref = (1.0 - z) ** (-alpha - 1.0) * (1.0 - w) ** (-beta - 1.0)
    return pref * integrate(rule, integrand)
