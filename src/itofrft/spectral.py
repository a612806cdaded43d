"""Singular values, Schatten sums, boundedness constants, and compactness
diagnostics for the Bergman-space dual transform.

All Gamma-ratio arithmetic is done in log space: the singular value is
assembled as |psi(w)| * gamma^{1/2}, never through nu^{m+n} m! n! directly,
which overflows early.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, roots_jacobi

from .ito_hermite import psi_table

__all__ = [
    "BergmanParams",
    "Spectrum",
    "KwBracket",
    "gamma_norm",
    "singular_value",
    "spectrum",
    "schatten_partial",
    "kw_constant",
    "operator_norm_bound",
    "finite_rank_tail",
]

KW_DEFAULT_NODES = 128  # near-corner (1,1) behavior of the k_w integrand needs extra nodes


@dataclass(frozen=True)
class BergmanParams:
    """Weight exponents of the bi-disk measure.

    The spaces exist for alpha, beta > -1; boundedness, compactness, and
    singular-value operations additionally require alpha > 0 and beta > 0.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= -1 or self.beta <= -1:
            raise ValueError("Bergman weights require alpha, beta > -1")

    @property
    def bounded_regime(self):
        return self.alpha > 0 and self.beta > 0

    def require_bounded(self):
        if not self.bounded_regime:
            raise ValueError(
                "operation requires alpha > 0 and beta > 0, got alpha=%g beta=%g"
                % (self.alpha, self.beta)
            )


def gamma_norm(alpha, beta, m, n):
    """Squared Bergman norm of the monomial z^m w^n:
    pi^2 Gamma(alpha+1) Gamma(beta+1) m! n! / (Gamma(alpha+m+2) Gamma(beta+n+2)).

    `m` and `n` may be integer arrays; the result broadcasts over them.
    """
    if alpha <= -1 or beta <= -1:
        raise ValueError("gamma_norm requires alpha, beta > -1")

    def log_ratio(a, k):
        k = np.asarray(k, dtype=float)
        return gammaln(a + 1.0) + gammaln(k + 1.0) - gammaln(a + k + 2.0)

    return np.exp(2.0 * math.log(math.pi) + log_ratio(alpha, m) + log_ratio(beta, n))


def singular_value(nu, alpha, beta, m, n, w):
    """Singular value s_{m,n}(w) = |psi^nu_{m,n}(w)| gamma_{m,n}^{1/2}; the
    corner entry of the spectrum over [0, m] x [0, n]."""
    return spectrum(nu, alpha, beta, w, m, n)[m, n]


@dataclass(frozen=True)
class Spectrum:
    """Tabulated singular values over an index box."""

    params: dict
    values: np.ndarray  # shape (max_m+1, max_n+1), all >= 0
    cutoff: tuple

    def __post_init__(self):
        self.values.setflags(write=False)

    def __getitem__(self, idx):
        return float(self.values[idx])

    def sorted_values(self):
        """List of ((m, n), s) sorted by decreasing singular value."""
        order = np.argsort(self.values, axis=None)[::-1]
        mm, nn = np.unravel_index(order, self.values.shape)
        return [((int(m), int(n)), float(self.values[m, n])) for m, n in zip(mm, nn)]


def spectrum(nu, alpha, beta, w, max_m, max_n):
    """Singular values s_{m,n}(w) = |psi^nu_{m,n}(w)| gamma_{m,n}^{1/2} over
    the index box [0, max_m] x [0, max_n]."""
    BergmanParams(alpha, beta).require_bounded()
    P = np.abs(psi_table(nu, complex(w), max_m, max_n))
    g = gamma_norm(alpha, beta, np.arange(max_m + 1)[:, None], np.arange(max_n + 1))
    vals = P * np.sqrt(g)
    return Spectrum(
        params={"nu": nu, "alpha": alpha, "beta": beta, "w": complex(w)},
        values=vals,
        cutoff=(max_m, max_n),
    )


def schatten_partial(spec, p):
    """Partial Schatten sum: sum of s_{m,n}^p over the tabulated box."""
    if p <= 0:
        raise ValueError("Schatten exponent p must be positive")
    return float(np.sum(spec.values**p))


@dataclass(frozen=True)
class KwBracket:
    value: float
    lower: float
    upper: float


def kw_constant(nu, alpha, beta, w, n_nodes=KW_DEFAULT_NODES):
    """Boundedness constant

        k_w = nu pi int_0^1 int_0^1 exp(nu (s+t-2st)|w|^2 / (1-st))
                              (1-s)^alpha (1-t)^beta / (1-st) ds dt

    by 2D Gauss-Jacobi quadrature, together with the analytic bracket
    [nu pi / ((alpha+1)(beta+1)),  nu pi e^{nu |w|^2} / (alpha beta)].
    """
    BergmanParams(alpha, beta).require_bounded()
    w2 = abs(complex(w)) ** 2
    xs, wxs = roots_jacobi(n_nodes, alpha, 0.0)
    xt, wxt = roots_jacobi(n_nodes, beta, 0.0)
    s = 0.5 * (xs + 1.0)
    t = 0.5 * (xt + 1.0)
    ws = wxs * 2.0 ** (-alpha - 1.0)
    wt = wxt * 2.0 ** (-beta - 1.0)
    st = np.outer(s, t)
    integrand = np.exp(nu * (s[:, None] + t[None, :] - 2.0 * st) * w2 / (1.0 - st))
    integrand /= 1.0 - st
    value = nu * math.pi * float(ws @ integrand @ wt)
    lower = nu * math.pi / ((alpha + 1.0) * (beta + 1.0))
    upper = nu * math.pi * math.exp(nu * w2) / (alpha * beta)
    return KwBracket(value=value, lower=lower, upper=upper)


def operator_norm_bound(nu, alpha, beta, w, n_nodes=KW_DEFAULT_NODES):
    """Upper bound k_w^{1/2} on the operator norm; no empirical Rayleigh
    quotient on unit-norm inputs may exceed it."""
    return math.sqrt(kw_constant(nu, alpha, beta, w, n_nodes=n_nodes).value)


def finite_rank_tail(nu, alpha, beta, w, p_cut, q_cut):
    """Upper bound e^{nu |w|^2} * sum_{m>p_cut} sum_{n>q_cut} gamma_{m,n} on the
    squared distance to the finite-rank truncation.

    Each axis sum telescopes: sum_{m>p} m!/Gamma(m+alpha+2)
    = Gamma(p+2) / (alpha Gamma(p+alpha+2)), which is (p+alpha+2)/alpha times
    its first term.  Decreasing in both cuts; its decay to zero is the
    compactness diagnostic.
    """
    BergmanParams(alpha, beta).require_bounded()
    if p_cut < 0 or q_cut < 0:
        raise ValueError("cuts must be non-negative")
    first = gamma_norm(alpha, beta, p_cut + 1, q_cut + 1)
    axes = (p_cut + alpha + 2.0) * (q_cut + beta + 2.0) / (alpha * beta)
    return float(math.exp(nu * abs(complex(w)) ** 2) * first * axes)
