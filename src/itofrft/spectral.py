"""Singular values, Schatten sums, boundedness constants, and compactness
diagnostics for the Bergman-space dual transform.

All Gamma-ratio arithmetic is done in log space: the singular value is
assembled as |psi(w)| * gamma^{1/2}, never through nu^{m+n} m! n! directly,
which overflows early.

Domain: the weighted Bergman spaces exist for alpha and beta above -1
(checked by `quadrature._check_weights`, as in `gamma_norm`); the dual
transform is bounded, and its singular values, `k_w` constant and tail
bounds are defined, only for alpha, beta > 0, which `_check_bounded` is
the one home of.  nu > 0 is finite (`ito_hermite._check_nu`), and so is the
point w (`ito_hermite._check_point`), and an index or a cut is an integer
>= 0 (`_check_bergman_index`).  A value outside, NaN and inf included,
raises ValueError.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ito_hermite import _check_bergman_index, _check_nu, _check_point, _require_finite, psi_table
from .kernels import _EXP_GUARD
from .quadrature import _check_weights, _unit_jacobi
from .specfun import scipy_special

__all__ = [
    "Spectrum",
    "KwBracket",
    "gamma_norm",
    "spectrum",
    "schatten_partial",
    "kw_constant",
    "finite_rank_tail",
]

KW_DEFAULT_NODES = 128  # near-corner (1,1) behavior of the k_w integrand needs extra nodes


def _check_bounded(alpha, beta):
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ValueError(
            "operation requires the bounded regime, finite alpha > 0 and beta > 0,"
            " got alpha=%r beta=%r" % (alpha, beta)
        )


def _log_ratio(betaln, a, k):
    # log of Gamma(a+1) k! / Gamma(a+k+2), one axis of gamma_norm: it is the
    # Beta function B(a+1, k+1), so one `betaln` call, which keeps its digits
    # at any weight a; a difference of `gammaln` values of about a log a
    # would lose them as a grows
    return betaln(a + 1.0, np.asarray(k, dtype=float) + 1.0)


def gamma_norm(alpha, beta, m, n):
    """Squared Bergman norm of the monomial z^m w^n:
    pi^2 Gamma(alpha+1) Gamma(beta+1) m! n! / (Gamma(alpha+m+2) Gamma(beta+n+2)).

    `m` and `n` are integers >= 0 or integer arrays; the result broadcasts.
    """
    _check_weights(alpha, beta)
    _check_bergman_index("gamma_norm index (m, n)", m, n)
    betaln = scipy_special().betaln
    return np.exp(
        2.0 * math.log(math.pi) + _log_ratio(betaln, alpha, m) + _log_ratio(betaln, beta, n)
    )


@dataclass(frozen=True)
class Spectrum:
    """Tabulated singular values over an index box."""

    params: dict
    values: np.ndarray  # shape (max_m+1, max_n+1), all >= 0

    def __post_init__(self):
        self.values.setflags(write=False)

    def __getitem__(self, idx):
        return float(self.values[idx])

    def sorted_values(self):
        """List of ((m, n), s) sorted by decreasing singular value."""
        order = np.argsort(self.values, axis=None)[::-1]
        mm, nn = np.unravel_index(order, self.values.shape)
        return list(zip(zip(mm.tolist(), nn.tolist()), self.values.ravel()[order].tolist()))


def spectrum(nu, alpha, beta, w, max_m, max_n):
    """Singular values s_{m,n}(w) = |psi^nu_{m,n}(w)| gamma_{m,n}^{1/2} over
    the index box [0, max_m] x [0, max_n]."""
    _check_bounded(alpha, beta)
    P = np.abs(psi_table(nu, complex(w), max_m, max_n))
    g = gamma_norm(alpha, beta, np.arange(max_m + 1)[:, None], np.arange(max_n + 1))
    vals = P * np.sqrt(g)
    return Spectrum(
        params={"nu": nu, "alpha": alpha, "beta": beta, "w": complex(w)},
        values=vals,
    )


def schatten_partial(spec, p):
    """Partial Schatten sum: sum of s_{m,n}^p over the tabulated box, for a
    finite p > 0.  Raises OverflowError where the sum overflows double
    precision."""
    if not 0 < p < math.inf:
        raise ValueError("Schatten exponent p must be finite and positive, got %r" % (p,))
    with np.errstate(over="ignore"):
        total = float(np.sum(spec.values**p))
    if total == math.inf:
        raise OverflowError("Schatten sum of s^p at p=%r overflows double precision" % (p,))
    return total


def _growth(nu, w, what):
    # e^{nu |w|^2}; below the kernels' exponent guard on nu |w|^2 every
    # k_w integrand sample fits double precision, at any alpha, beta > 0
    x = nu * abs(complex(w)) ** 2
    if x > _EXP_GUARD:
        raise OverflowError("%s at nu=%r, w=%r is out of range: nu |w|^2 = %g exceeds %g"
                            % (what, nu, complex(w), x, _EXP_GUARD))
    return math.exp(x)


@dataclass(frozen=True)
class KwBracket:
    value: float
    lower: float
    upper: float


def kw_constant(nu, alpha, beta, w):
    """Boundedness constant

        k_w = nu pi int_0^1 int_0^1 exp(nu (s+t-2st)|w|^2 / (1-st))
                              (1-s)^alpha (1-t)^beta / (1-st) ds dt

    by 2D Gauss-Jacobi quadrature with `KW_DEFAULT_NODES` nodes per axis,
    together with the analytic bracket
    [nu pi / ((alpha+1)(beta+1)),  nu pi e^{nu |w|^2} / (alpha beta)].
    k_w^{1/2} bounds the operator norm of the dual transform, so it
    dominates every singular value.  Past nu |w|^2 = 700, or where a value
    overflows double precision, it raises OverflowError naming the point.
    """
    _check_nu(nu)
    _check_bounded(alpha, beta)
    _check_point("kw_constant point w", w)
    growth = _growth(nu, w, "kw_constant")
    w2 = abs(complex(w)) ** 2
    s, ws = _unit_jacobi(alpha, KW_DEFAULT_NODES)
    t, wt = _unit_jacobi(beta, KW_DEFAULT_NODES)
    st = np.outer(s, t)
    integrand = np.exp(nu * (s[:, None] + t[None, :] - 2.0 * st) * w2 / (1.0 - st))
    integrand /= 1.0 - st
    value = nu * math.pi * float(ws @ integrand @ wt)
    lower = nu * math.pi / ((alpha + 1.0) * (beta + 1.0))
    # one weight at a time: where alpha beta underflows, the bound overflows to inf
    upper = nu * math.pi * growth / alpha / beta
    _require_finite((value, upper), "kw_constant at nu=%r, w=%r" % (nu, complex(w)))
    return KwBracket(value=value, lower=lower, upper=upper)


def finite_rank_tail(nu, alpha, beta, w, p_cut, q_cut):
    """e^{nu |w|^2} * sum_{m>p_cut} sum_{n>q_cut} gamma_{m,n}: pi/nu times the
    envelope (nu/pi) e^{nu |w|^2} gamma_{m,n} of s_{m,n}^2 summed over the
    corner beyond both cuts (`verify.check_schatten_bound`).  It leaves out
    the two strips beyond one cut alone, so it bounds no distance to the
    finite-rank truncation: at nu = 1, alpha = beta = 6, w = 2.5,
    p = q = 10 it is 9.27e-7, below s_{0,11}^2 = 2.87e-5.

    Each axis sum telescopes: sum_{m>p} m!/Gamma(m+alpha+2)
    = Gamma(p+2) / (alpha Gamma(p+alpha+2)), which is (p+alpha+2)/alpha times
    its first term.  Decreasing in both cuts; its decay to zero is the
    compactness diagnostic.  Past nu |w|^2 = 700, or where the value
    overflows double precision (as where alpha beta underflows), it raises
    OverflowError.
    """
    _check_nu(nu)
    _check_bounded(alpha, beta)
    _check_point("finite_rank_tail point w", w)
    _check_bergman_index("finite_rank_tail cuts", p_cut, q_cut)
    first = gamma_norm(alpha, beta, p_cut + 1, q_cut + 1)
    axes = (p_cut + alpha + 2.0) / alpha * (q_cut + beta + 2.0) / beta
    tail = float(_growth(nu, w, "finite_rank_tail") * first * axes)
    return _require_finite(tail, "finite_rank_tail at nu=%r, w=%r" % (nu, complex(w)))
