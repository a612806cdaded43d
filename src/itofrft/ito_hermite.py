"""Ito-Hermite polynomials H^nu_{m,n}, their normalized versions psi^nu_{m,n},
and their zero structure.

Evaluation is by the normalized two-term recurrence in (m, n) of `psi_table`,
stepped a row at a time, which every other evaluation reads from; the
explicit alternating finite sum is kept in `verify.check_rodrigues_cross_check`
as an oracle only, since it cancels catastrophically for large |z|.

Domain: the scaling nu > 0 is finite, each index is an integer in
[0, DEGREE_CAP], and an evaluation point is finite.  `_check_nu`,
`_check_index` and `_check_point` are the one home of these rules for the
whole package, with `_check_bergman_index` for a Bergman monomial index or
a cut (no cap); a value outside, NaN and inf included, raises ValueError.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .specfun import DEGREE_CAP, scipy_special

__all__ = [
    "ZeroSet",
    "hermite_ito",
    "psi_table",
    "zero_radii",
    "null_index_set",
]


def _integer_in(k, lo, hi):
    # an integer in [lo, hi], numpy's included, but not a float such as 2.0
    try:
        return lo <= operator.index(k) <= hi
    except TypeError:
        return False


def _check_bergman_index(what, *ks):
    # integers or integer arrays >= 0, with no cap: the closed forms hold at any index
    for k in ks:
        if isinstance(k, np.ndarray) or not _integer_in(k, 0, math.inf):
            k = np.asarray(k)
            if not (k.dtype.kind in "iu" and (k >= 0).all()):
                raise ValueError("%s %s must be integers >= 0" % (what, ks))


def _check_index(m, n):
    if not (_integer_in(m, 0, DEGREE_CAP) and _integer_in(n, 0, DEGREE_CAP)):
        raise ValueError("index (%r, %r) must be integers in [0, %d]" % (m, n, DEGREE_CAP))


def _check_nu(nu):
    if not (nu > 0 and math.isfinite(nu)):
        raise ValueError("scaling nu must be finite and positive, got %r" % (nu,))


def _check_point(what, *points):
    """Raise ValueError naming the first non-finite entry of the scalar or
    array points."""
    for p in points:
        finite = np.isfinite(p)
        if not finite.all():  # not np.all, which costs twice as much at a scalar
            bad = np.ravel(p)[np.argmin(np.ravel(finite))]
            raise ValueError("%s must be finite, got %s" % (what, bad))


@dataclass(frozen=True)
class ZeroSet:
    """Radii of the circles |z| = r on which H^nu_{m,n} vanishes.

    `radii` is strictly increasing with at most min(m, n) entries;
    `includes_origin` is true exactly when m != n.
    """

    index: tuple
    radii: tuple
    includes_origin: bool


def _require_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise OverflowError("%s overflows double precision" % what)
    return values


def psi_table(nu, z, max_m, max_n):
    """Table of normalized polynomials psi^nu_{m,n}(z) for the index box.

    Uses the normalized recurrence
        psi_{m+1,n} = sqrt(nu/(m+1)) z psi_{m,n} - sqrt(n/(m+1)) psi_{m,n-1}
    so that no intermediate overflows where the entries themselves fit in
    double precision.  Row m+1 is stepped from row m in place, a row at a
    time, so an entry does not depend on the size of the box around it.  Far
    from the origin at high degree the entries do not fit, and the table
    raises OverflowError rather than return inf or NaN entries.
    """
    _check_nu(nu)
    _check_index(max_m, max_n)
    z = np.asarray(z, dtype=complex)
    _check_point("psi table point z", z)
    zc = np.conj(z)
    P = np.empty((max_m + 1, max_n + 1) + z.shape, dtype=complex)
    P[0, 0] = math.sqrt(nu / math.pi)
    n = np.arange(1, max_n + 1).reshape((-1,) + (1,) * z.ndim)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_n + 1):
            P[0, k] = math.sqrt(nu / k) * zc * P[0, k - 1]
        for m in range(max_m):
            np.multiply(math.sqrt(nu / (m + 1)) * z, P[m], out=P[m + 1])
            P[m + 1, 1:] -= np.sqrt(n / (m + 1)) * P[m, :-1]
    # a non-finite entry makes the z psi_{m,n} term of every entry below it
    # non-finite too, so the last row shows any overflow in the table
    _require_finite(P[max_m], "psi table up to index (%d, %d) at nu=%g" % (max_m, max_n, nu))
    return P


def hermite_ito(nu, m, n, z):
    """H^nu_{m,n}(z, conj(z)); scalar or vectorized over an ndarray z.

    Read off the normalized table as psi_{m,n} (pi nu^{m+n-1} m! n!)^{1/2},
    with the scale formed in log space; raises OverflowError where the value
    exceeds double precision.
    """
    P = psi_table(nu, z, m, n)
    log_scale = 0.5 * (
        math.log(math.pi)
        + (m + n - 1) * math.log(nu)
        + math.lgamma(m + 1.0)
        + math.lgamma(n + 1.0)
    )
    # an exact zero, such as H_{m,n}(0) for m != n, stays zero at any scale
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(P[m, n] == 0, 0j, P[m, n] * np.exp(log_scale))
    out = _require_finite(out, "H^nu_(%d,%d) at nu=%g" % (m, n, nu))
    return complex(out) if out.ndim == 0 else out


def zero_radii(nu, m, n):
    """Radii r > 0 where H^nu_{m,n} vanishes on the circle |z| = r.

    For m >= n the polynomial factors as
        H^nu_{m,n} = (-1)^n n! nu^m z^{m-n} L_n^{(m-n)}(nu |z|^2),
    so the radii are sqrt(x_j / nu) over the roots x_j of L_q^{(|m-n|)} with
    q = min(m, n); the origin is a zero exactly when m != n.  Where a radius
    exceeds double precision, as at a subnormal nu, the call raises
    OverflowError.
    """
    _check_nu(nu)
    _check_index(m, n)
    q = min(m, n)
    if q == 0:
        radii = ()
    else:
        roots, _ = scipy_special().roots_genlaguerre(q, abs(m - n))
        with np.errstate(over="ignore"):  # x / nu overflows at a subnormal nu
            radii = np.sqrt(np.sort(roots) / nu)
        _require_finite(radii, "zero_radii at nu=%r, index (%d, %d)" % (nu, m, n))
        radii = tuple(map(float, radii))
    return ZeroSet(index=(m, n), radii=radii, includes_origin=(m != n))


def null_index_set(nu, w, max_m, max_n, tol):
    """Indices (m, n) in the box with |psi^nu_{m,n}(w)| < tol.

    The test is applied to the normalized psi rather than the raw polynomial
    so that `tol` is scale-free across the index box.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and > 0, got %r" % (tol,))
    P = psi_table(nu, complex(w), max_m, max_n)
    mm, nn = np.nonzero(np.abs(P) < tol)
    return {(int(m), int(n)) for m, n in zip(mm, nn)}
