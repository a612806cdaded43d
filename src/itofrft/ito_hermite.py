"""Ito-Hermite polynomials H^nu_{m,n}, their normalized versions psi^nu_{m,n},
and their zero structure.

Evaluation is by the normalized Laguerre recurrence along the diagonals m - n: `psi_table`
steps a box a row at a time, `_psi_entries` a few entries each along its own diagonal.
The explicit alternating finite sum is kept in `verify.check_rodrigues_cross_check` as
an oracle only, since it cancels catastrophically for large |z|.

Domain: the scaling nu > 0 is finite, each index is an integer in
[0, DEGREE_CAP], and an evaluation point is finite.  `_check_nu`,
`_check_index` and `_check_point` are the one home of these rules for the
whole package, with `_check_bergman_index` for a Bergman monomial index or
a cut (no cap), and `_radius` for a point read through x = nu |w|^2 alone;
a value outside, NaN and inf included, raises ValueError.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .specfun import DEGREE_CAP, scipy_special

__all__ = ["ZeroSet", "hermite_ito", "psi_table", "zero_radii", "null_index_set"]


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
    """Raise ValueError naming the first non-finite entry of the points, as a complex number."""
    for p in points:
        if not np.isfinite(p).all():  # not np.all, which costs twice as much at a scalar
            p = np.ravel(np.asarray(p, dtype=complex))
            raise ValueError("%s must be finite, got %s" % (what, p[~np.isfinite(p)][0]))


def _radius(nu, w, what, limit=math.inf):
    """(r, x) = (|w|, nu r^2) as floats, nu and w checked; past x = `limit`, OverflowError."""
    _check_nu(nu)
    _check_point("%s point w" % what, w)
    r = abs(complex(w))
    x = nu * r * r  # inf, not Python's OverflowError, past double precision
    if x > limit:
        raise OverflowError("%s at nu=%r, w=%r is out of range: nu |w|^2 = %g exceeds %g"
                            % (what, nu, complex(w), x, limit))
    return r, x


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
    if not np.isfinite(values).all():  # not np.all, which costs twice as much
        raise OverflowError("%s overflows double precision" % what)
    return values


def _diagonal_step(m, n):
    """(s, b, d) of psi_{m+1,n+1} = (x - s) b psi_{m,n} - d psi_{m-1,n-1}: s = m+n+1,
    b = ((m+1)(n+1))^{-1/2}, d = sqrt(mn) b, equal for ints and integral float arrays."""
    sqrt = np.sqrt if isinstance(m, np.ndarray) else math.sqrt
    rm, rn = 1.0 / sqrt(m + 1.0), 1.0 / sqrt(n + 1.0)
    return m + 1.0 + n, rm * rn, (sqrt(m) * rm) * (sqrt(n) * rn)


_int_step = functools.lru_cache(maxsize=4096)(_diagonal_step)  # the walk's (m, n) ints


@functools.cache
def _step_box():  # (s, b, d) over the DEGREE_CAP^2 box, 0.9 MB formed once; tables cut it
    k = np.arange(DEGREE_CAP, dtype=float)
    return _diagonal_step(k[:, None], k)


def _start(nu, z, k, what):
    """Validated z as float or complex (a Python number at one point), x = nu |z|^2 and
    [psi_{0,0}, ..., psi_{k,0}] at z, each of z's kind and shape, by factors sqrt(nu/j) z."""
    _check_nu(nu)
    _check_point(what, z)
    z = np.asarray(z)
    z = z.astype(complex if z.dtype.kind == "c" else float, copy=False)
    z = z.item() if z.ndim == 0 else z
    edge = itertools.accumulate((math.sqrt(nu / j) * z for j in range(1, k + 1)),
                                operator.mul, initial=math.sqrt(nu / math.pi) + 0 * z)
    return z, nu * (z.real * z.real + z.imag * z.imag), list(edge)


def psi_table(nu, z, max_m, max_n):
    """Table of normalized polynomials psi^nu_{m,n}(z) for the index box: from the edges
    psi_{k,0} = sqrt(nu/pi) (sqrt(nu) z)^k / sqrt(k!) = conj(psi_{0,k}), with x = nu |z|^2,
        psi_{m+1,n+1} = [(x-m-n-1) psi_{m,n} - sqrt(mn) psi_{m-1,n-1}] / sqrt((m+1)(n+1))
    along each diagonal m - n.  It does not drift (1e-13 up to sqrt(nu)|z| = 3), but near
    x = 0 its two solutions merge, and rounding grows to about 1e-12 at index 200.  Rows
    are stepped in place, so an entry does not depend on the box; past double precision,
    OverflowError.  A real point gives a real table, the complex one's real part bit for bit."""
    _check_index(max_m, max_n)
    with np.errstate(over="ignore", invalid="ignore"):
        z, x, edge = _start(nu, z, max(max_m, max_n), "psi table point z")
        axes = (1,) * np.ndim(z)  # (max_m, max_n) coefficient boxes, an axis per axis of z
        s, b, d = (c[:max_m, :max_n].reshape((max_m, max_n) + axes) for c in _step_box())
        P = np.empty((max_m + 1, max_n + 1) + np.shape(z), dtype=np.result_type(z))
        P[:, 0], P[0] = edge[: max_m + 1], np.conj(edge[: max_n + 1])
        a = np.empty((max_n,) + np.shape(z))  # one row of (x - s) b, reused
        for m in range(max_m):
            np.multiply(np.subtract(x, s[m], out=a), b[m], out=a)
            np.multiply(a, P[m, :-1], out=P[m + 1, 1:])
            if m:
                P[m + 1, 2:] -= d[m, 1:] * P[m - 1, :-2]
    # overflow needs nu |z|^2 > 1384 > every index, where |psi_{m,n}| grows with m: last row
    _require_finite(P[max_m], "psi table up to index (%d, %d) at nu=%g" % (max_m, max_n, nu))
    return P


def _psi_entries(nu, z, index):
    """psi^nu_{m,n}(z) of z's kind for each valid (m, n) of `index` (a list at one point, else
    shape (len(index),) + z.shape): min(m, n) table steps from psi_{|m-n|,0} or its conjugate
    each, or, past 2 (max m + max n + 1) steps in all, read off `psi_table`; OverflowError."""
    mn = np.fromiter(itertools.chain.from_iterable(index), int, 2 * len(index)).reshape(-1, 2)
    top_m, top_n = mn.max(axis=0).tolist()
    steps = itertools.accumulate(min(m, n) for m, n in index)  # stops at the limit
    if any(k > 2 * (top_m + top_n + 1) for k in steps):
        return psi_table(nu, z, top_m, top_n)[mn[:, 0], mn[:, 1]]
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        z, x, edge = _start(nu, z, max(abs(m - n) for m, n in index), "psi point z")
        for m, n in index:
            p0, p1 = 0.0, edge[m - n] if m >= n else edge[n - m].conjugate()
            for j in range(min(m, n), 0, -1):
                s, b, d = _int_step(m - j, n - j)
                p0, p1 = p1, (x - s) * b * p1 - d * p0
            out.append(p1)
    out = out if np.ndim(z) == 0 else np.array(out)
    return _require_finite(out, "psi of index up to %d at nu=%g" % (max(top_m, top_n), nu))


def hermite_ito(nu, m, n, z):
    """H^nu_{m,n}(z, conj(z)), scalar or over an ndarray z: psi_{m,n} (`_psi_entries`) times
    (pi nu^{m+n-1} m! n!)^{1/2}, formed in log space; OverflowError past double precision."""
    _check_index(m, n)
    (P,) = _psi_entries(nu, z, [(m, n)])
    log_scale = 0.5 * (math.log(math.pi) + (m + n - 1) * math.log(nu)
                       + math.lgamma(m + 1.0) + math.lgamma(n + 1.0))
    # an exact zero, such as H_{m,n}(0) for m != n, stays zero at any scale
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(P == 0, 0j, P * np.exp(log_scale))
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
    so that `tol` is scale-free across the index box, on the real table at |w|.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and > 0, got %r" % (tol,))
    r, _ = _radius(nu, w, "null_index_set")
    mm, nn = np.nonzero(np.abs(psi_table(nu, r, max_m, max_n)) < tol)
    return {(int(m), int(n)) for m, n in zip(mm, nn)}
