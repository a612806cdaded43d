"""The 2D fractional Fourier transform, its dual into the bi-disk, the
adjoint, the second Bargmann transform, and the fractional Hankel reduction.

Finite psi-expansions (`CoeffFunction`) are the preferred input
representation: `frft_apply` evaluates them exactly through the
eigenrelation psi_{m,n} -> u^m v^n psi_{m,n}, with no quadrature, in
`_eigen_sum`, the package's one evaluation of that sum.  The dual transform
into the bi-disk is `frft_apply` with the bi-disk points as its (u, v),
read at the one point w; on a column x row grid of (u, v) that is one
matrix product, (u^m) B (v^n)^T with B[m, n] = a_{m,n} psi_{m,n}(w).
Plain callables are also accepted; `frft_apply` integrates them on a plane
quadrature rule, which then serves as the independent cross-check of the
exact route.
"""

import cmath
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .specfun import scipy_special
from .ito_hermite import _check_index, _check_nu, _check_point, _psi_entries
from .kernels import TransformParams, _check_disk, _contract, frft_kernel_raw
from .quadrature import _check_rule, _check_weights, _laguerre, _samples, integrate
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
            a = complex(a)
            if not cmath.isfinite(a):
                raise ValueError("coefficient (%d, %d) is not finite: %r" % (m, n, a))
            if a != 0:
                clean[(int(m), int(n))] = a
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    @property
    def norm(self):
        """L^2 norm against the Gaussian measure (Parseval)."""
        return math.sqrt(sum(abs(a) ** 2 for a in self.coeffs.values()))

    def __call__(self, z):
        out = sum(t for _, _, t in _coeff_terms(self, z))
        return complex(out) if np.ndim(out) == 0 else out


def _coeff_terms(f, z):
    """(m, n, a_{m,n} psi_{m,n}(z)) for each coefficient of f (`_psi_entries`:
    each psi along its own diagonal, or a table for a dense expansion); the
    empty expansion gives one zero term, so a sum of terms has the shape of z."""
    coeffs = f.coeffs or {(0, 0): 0j}
    return [(m, n, a * p) for ((m, n), a), p in zip(coeffs.items(), _psi_entries(f.nu, z, coeffs))]


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
    """sum a_{m,n} u^m v^n psi_{m,n}(point) for a finite expansion f; (u, v)
    and the point(s) broadcast.

    This is the eigenrelation of the transform with parameters (nu, u, v), so
    the psi_{m,n} of f must be its eigenfunctions: f.nu must equal nu.  It
    is the package's one evaluation of that sum, in one of two orders:
    - at one point, where u or v is an array and the two vary along disjoint
      axes of their broadcast shape (a column times a row, or an array and
      a scalar), the matrix product (u^m) B (v^n)^T with
      B[m, n] = a_{m,n} psi_{m,n}(point), written once into the output;
    - otherwise (two scalars, elementwise pairs, an array of points), the
      term sum.
    """
    if nu != f.nu:
        raise ValueError("f is expanded in the basis for nu=%r but the transform uses nu=%r"
                         % (f.nu, nu))
    point = np.asarray(point, dtype=complex)
    u, v = (np.asarray(c, dtype=complex) for c in uv)
    terms = _coeff_terms(f, point)
    if point.ndim == 0 and (u.ndim or v.ndim):
        shape = np.broadcast_shapes(u.shape, v.shape)
        # the axes of the broadcast shape along which u (v) varies
        u_axes, v_axes = (
            [i for i, k in enumerate(c.shape, len(shape) - c.ndim) if k != 1] for c in (u, v)
        )
        if not set(u_axes) & set(v_axes):
            m, n, terms = zip(*terms)
            B = np.zeros((max(m) + 1, max(n) + 1), dtype=complex)
            B[m, n] = terms
            # the entries of u (of v) in C order run over its varying axes in order
            upow, vpow = (np.vander(c.ravel(), k, increasing=True) for c, k in zip((u, v), B.shape))
            out = (upow @ B @ vpow.T).reshape([shape[i] for i in u_axes + v_axes])
            return out.transpose(np.argsort(u_axes + v_axes)).reshape(shape)
    u, v = (c if c.ndim else complex(c) for c in (u, v))  # Python arithmetic at scalars
    out = sum(t * u**m * v**n for m, n, t in terms)
    return complex(out) if np.ndim(out) == 0 else out


def frft_apply(p, f, xi, rule=None):
    """2D fractional Fourier transform at the point(s) xi:

        integral of f(zeta) K^nu_{u,v}(zeta; xi) e^{-nu |zeta|^2} dA(zeta).

    p.u, p.v and xi broadcast: arrays give an array of the broadcast shape,
    scalars a complex number.  Read at one point xi = w with (u, v) as the
    variables, it is the dual transform R_w f(u, v) into the bi-disk.  Two
    routes, chosen by the type of f:
    - a `CoeffFunction` is transformed exactly by the eigenrelation, psi_{m,n}
      maps to u^m v^n psi_{m,n}: the result is sum a_{m,n} u^m v^n
      psi_{m,n}(xi) (`_eigen_sum`; a column x row grid of (u, v) at one xi
      is one matrix product).  Its nu must equal p.nu.  No rule is needed;
    - any other callable is sampled once on the plane quadrature `rule`,
      which is then required, and contracted against kernel rows in blocks
      (`_contract`).  Samples with axes of their own, as those of
      `lambda z: psi_table(nu, z, M, N)`, give them first, ahead of the
      broadcast shape.
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
    shape = np.broadcast_shapes(np.shape(p.u), np.shape(p.v), xi.shape)
    u, v, xi = (np.broadcast_to(c, shape).ravel()[:, None] for c in (p.u, p.v, xi))
    return _contract(
        lambda j: frft_kernel_raw(p.nu, u[j], v[j], rule.nodes, xi[j]),
        rule.weights * _samples(rule, f),
        np.arange(xi.size).reshape(shape),
    )


def dual_apply_coeff(nu, w, f, uv):
    """Dual transform of a finite expansion at the one point w, the 2D
    transform read at w: frft_apply(TransformParams(nu, u, v), f, w).  The
    package no longer uses it; it stays public for `perfbench/workloads.py`,
    which calls it by name."""
    return frft_apply(TransformParams(nu, *uv), f, complex(w))


def adjoint_apply(nu, w, g, z, rule):
    """Adjoint of the dual transform at the planar point(s) z:

        integral over D^2 of g(u, v) conj(K^nu_{u,v}(z; w)) dmu_{alpha,beta}(u, v),

    alpha, beta being the bi-disk `rule`'s.  An array z gives an array of
    its shape, a scalar z a complex number.  g is sampled once on the
    rule's grid, as `integrate` calls it (axes ahead of the grid lead the
    result), and contracted against conj(K) in blocks of points
    (`_contract`).  A non-finite sample of g raises ValueError naming the
    node; an exponent the kernel's overflow guard rejects raises
    OverflowError.
    """
    _check_nu(nu)
    _check_rule(rule, "bidisk")
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
    function with monomial coefficients b_{m,n}: indices (m, n) are
    integers >= 0 and coefficients finite."""
    # a zero (0, 0) term keeps the index array integer when coeffs is empty
    (m, n), b = np.array([*coeffs, (0, 0)]).T, np.array([*coeffs.values(), 0], dtype=complex)
    _check_point("bergman_norm coefficient", b)
    return math.sqrt(np.dot(gamma_norm(alpha, beta, m, n), b.real**2 + b.imag**2))


def hankel_apply(nu, order, u, v, psi_profile, y):
    """Fractional Hankel transform of the radial profile Psi at y >= 0:

        (2 nu / (1-uv)) (u/v)^{order/2}
          * integral_0^inf x Psi(x) I_order(2 nu sqrt(uv) x y / (1-uv))
                           e^{-nu (x^2 + uv y^2) / (1-uv)} dx

    via a `HANKEL_NODES`-node Gauss-Laguerre rule in t = nu x^2 / (1-uv),
    the cached rule that `plane_rule` shares (`quadrature._laguerre`).
    The rule is accurate when the integrand is smooth in t, as for the
    profile of an angular mode k at order k, so `order` is one of the
    paper's modes: a non-negative integer (an integral float such as 2.0 is
    accepted).  A `CoeffFunction` f, whose every coefficient must have
    m - n = order, is instead transformed exactly, as `frft_apply` at
    xi = y: its profile is f on the positive real axis.  Parameters are
    restricted to real u, v in (0, 1) so that
    every fractional power is principal and positive; a complex u or v with
    a nonzero imaginary part raises ValueError.  An array y gives an array of
    its shape, a scalar y a complex number.  Every y is finite; where y^2
    overflows double precision, or a callable's Bessel factor leaves its
    range (y = 1e8 at u = v = 0.5), the call raises OverflowError.
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
    if isinstance(psi_profile, CoeffFunction):
        # exact: the transform of the mode-`order` expansion f at xi = y
        modes = {m - n for m, n in psi_profile.coeffs}
        if modes - {order}:
            raise ValueError("hankel_apply of f needs m - n = order = %r in every coefficient, "
                             "got modes %s" % (order, sorted(modes)))
        return _eigen_sum(nu, psi_profile, y, (u, v))
    shift = ell * u * v * y * y
    t, wt = _laguerre(HANKEL_NODES)
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
    if not np.isfinite(out).all():  # scipy's ive is NaN past arguments of about 1e10
        raise OverflowError("hankel_apply at y=%g overflows its Bessel factor" % hi)
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


def bargmann2_apply(phi, zw, rule):
    """Second Bargmann transform of phi at the bi-disk point (z, w):

        (1-z)^{-alpha-1} (1-w)^{-beta-1}
          * integral over the quadrant of s^alpha t^beta
              exp[(s w + t z - s - t) / ((1-z)(1-w))] phi(s, t) ds dt.

    alpha and beta are those the quadrant `rule` was built for: it carries
    the weight s^alpha t^beta e^{-s-t}, so the integrand passed to it is phi
    times exp of the displayed exponent plus s + t, keeping the rule's
    weight exact.

    On the Laguerre basis, phi = L_m^{(alpha)}(s) L_n^{(beta)}(t) maps to
    [Gamma(alpha+m+1)/m!] [Gamma(beta+n+1)/n!] z^m w^n (constant pinned
    numerically against quadrature; the transform is not normalized to be
    unitary here).
    """
    z, w = complex(zw[0]), complex(zw[1])
    _check_disk("bargmann2_apply point (z, w)", z, w)
    _check_rule(rule, "quadrant")
    alpha, beta = (rule.params.get(k, math.nan) for k in ("alpha", "beta"))
    _check_weights(alpha, beta)  # a rule built by hand may not carry them
    denom = (1.0 - z) * (1.0 - w)

    def integrand(s, t):
        return np.asarray(phi(s, t)) * np.exp((s * w + t * z - s - t) / denom + s + t)

    pref = (1.0 - z) ** (-alpha - 1.0) * (1.0 - w) ** (-beta - 1.0)
    return pref * integrate(rule, integrand)
