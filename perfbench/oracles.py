"""Reference values for the benchmark, computed apart from itofrft.

Nothing here imports the package under test.  Each oracle follows a closed
form of the paper by a different route than the library does:

* psi_{m,n} through the Laguerre factorization
      psi_{m,n}(z) = sqrt(nu/pi) (-1)^n sqrt(n!/m!) (sqrt(nu) z)^{m-n}
                     L_n^{(m-n)}(nu |z|^2)            (m >= n),
  psi_{m,n} = conj(psi_{n,m}), assembled in log space with
  scipy.special.eval_genlaguerre / gammaln rather than by the (m, n)
  recurrence of ito_hermite.psi_table;
* the Mehler and fractional Fourier kernels and the telescoped Gamma
  tail in mpmath;
* the eigenrelations frft(psi_mn)(xi) = u^m v^n psi_mn(xi) and, for a
  single angular mode k = m - n, hankel_apply(order k)(y) = u^m v^n psi_mn(y).

check_oracles.py tests every function here against high-precision mpmath.
"""

import math

import mpmath
import numpy as np
from scipy.special import eval_genlaguerre, gammaln

mpmath.mp.dps = 30


def psi_table(nu, z, max_m, max_n):
    """psi^nu_{m,n}(z) for m <= max_m, n <= max_n; shape (M+1, N+1) + z.shape."""
    z = np.asarray(z, dtype=complex)
    m = np.arange(max_m + 1)[:, None]
    n = np.arange(max_n + 1)[None, :]
    lo, hi = np.minimum(m, n), np.maximum(m, n)
    k = hi - lo
    tail = (...,) + (None,) * z.ndim
    lo, k = lo[tail], k[tail]
    lag = eval_genlaguerre(lo, k, nu * np.abs(z) ** 2)
    # |z| = 0 only matters for k = 0, where k * log|z| must stay 0
    log_r = np.log(np.maximum(np.abs(z), 1e-300))
    log_mag = (
        0.5 * math.log(nu / math.pi)
        + 0.5 * (gammaln(lo + 1.0) - gammaln(lo + k + 1.0))
        + k * (0.5 * math.log(nu) + log_r)
        + np.log(np.maximum(np.abs(lag), 1e-300))
    )
    sign = np.where(lo % 2 == 1, -1.0, 1.0) * np.sign(lag)
    phase = np.exp(1j * np.where(m >= n, 1, -1)[tail] * k * np.angle(z))
    return sign * np.exp(log_mag) * phase


def laguerre_mp(q, k, x):
    """L_q^{(k)}(x) by its explicit finite sum, with enough digits to absorb
    the cancellation, and the sum of the terms' absolute values."""
    with mpmath.workdps(40 + 2 * q):
        x = mpmath.mpf(x)
        terms = [(-1) ** j * mpmath.binomial(q + k, q - j) * x**j / mpmath.factorial(j) for j in range(q + 1)]
        return +mpmath.fsum(terms), +mpmath.fsum(abs(t) for t in terms)


def psi_mp(nu, m, n, z):
    """psi^nu_{m,n}(z) in mpmath from the Laguerre factorization."""
    nu, z = mpmath.mpf(nu), mpmath.mpc(z)
    lo, hi = min(m, n), max(m, n)
    k = hi - lo
    val = (
        mpmath.sqrt(nu / mpmath.pi)
        * (-1) ** lo
        * mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(hi))
        * (mpmath.sqrt(nu) * z) ** k
        * laguerre_mp(lo, k, nu * abs(z) ** 2)[0]
    )
    return val if m >= n else mpmath.conj(val)


def hermite_ito_mp(nu, m, n, z):
    """H^nu_{m,n}(z, conj z) = (-1)^n n! nu^m z^{m-n} L_n^{(m-n)}(nu|z|^2),
    m >= n, and its conjugate for m < n; also returns the size of the
    largest term of the Laguerre sum, the scale of its rounding error."""
    nu, z = mpmath.mpf(nu), mpmath.mpc(z)
    lo, hi = min(m, n), max(m, n)
    k = hi - lo
    lag, lag_scale = laguerre_mp(lo, k, nu * abs(z) ** 2)
    pref = mpmath.factorial(lo) * nu**hi
    val = (-1) ** lo * pref * z**k * lag
    return (val if m >= n else mpmath.conj(val)), pref * abs(z) ** k * lag_scale


def mehler_mp(nu, u, v, z, w):
    """(1-uv)^{-1} exp[(-uv nu(|z|^2+|w|^2) + nu u z w + nu v conj(z) conj(w))/(1-uv)]."""
    nu, u, v, z, w = mpmath.mpf(nu), mpmath.mpc(u), mpmath.mpc(v), mpmath.mpc(z), mpmath.mpc(w)
    uv = u * v
    num = -uv * nu * (abs(z) ** 2 + abs(w) ** 2) + nu * u * z * w
    num += nu * v * mpmath.conj(z) * mpmath.conj(w)
    return mpmath.exp(num / (1 - uv)) / (1 - uv)


def frft_kernel_mp(nu, u, v, zeta, xi):
    """K^nu_{u,v}(zeta; xi) = (nu/pi) Mehler(conj zeta, xi)."""
    return mpmath.mpf(nu) / mpmath.pi * mehler_mp(nu, u, v, mpmath.conj(mpmath.mpc(zeta)), xi)


def tail_mp(p, alpha):
    """Telescoped tail sum_{m>p} Gamma(m+1)/Gamma(m+alpha+2)
    = Gamma(p+2) / (alpha Gamma(p+alpha+2)), alpha > 0."""
    alpha = mpmath.mpf(alpha)
    return mpmath.exp(mpmath.loggamma(p + 2) - mpmath.loggamma(p + alpha + 2)) / alpha


def finite_rank_tail_closed(nu, alpha, beta, w, p, q):
    """e^{nu|w|^2} pi^2 G(a+1) G(b+1) tail(p, a) tail(q, b): the full
    double tail of gamma_{m,n} over m > p, n > q."""
    c = mpmath.exp(
        nu * abs(complex(w)) ** 2
        + 2 * mpmath.log(mpmath.pi)
        + mpmath.loggamma(alpha + 1)
        + mpmath.loggamma(beta + 1)
    )
    return float(c * tail_mp(p, alpha) * tail_mp(q, beta))


def finite_rank_tail_partial(nu, alpha, beta, w, p, q, cap):
    """The same double tail with both sums stopped at index `cap`."""
    ms = np.arange(p + 1, cap + 1)
    ns = np.arange(q + 1, cap + 1)
    ta = np.sum(np.exp(gammaln(ms + 1.0) - gammaln(alpha + ms + 2.0)))
    tb = np.sum(np.exp(gammaln(ns + 1.0) - gammaln(beta + ns + 2.0)))
    logc = nu * abs(complex(w)) ** 2 + 2.0 * math.log(math.pi)
    logc += gammaln(alpha + 1.0) + gammaln(beta + 1.0)
    return math.exp(logc) * ta * tb


def gamma_grid(alpha, beta, max_m, max_n):
    """gamma_{m,n} = pi^2 G(a+1) G(b+1) m! n! / (G(a+m+2) G(b+n+2))."""
    m = np.arange(max_m + 1)[:, None]
    n = np.arange(max_n + 1)[None, :]
    return np.exp(
        2.0 * math.log(math.pi)
        + gammaln(alpha + 1.0)
        + gammaln(beta + 1.0)
        + gammaln(m + 1.0)
        - gammaln(alpha + m + 2.0)
        + gammaln(n + 1.0)
        - gammaln(beta + n + 2.0)
    )


def singular_values(nu, alpha, beta, w, max_m, max_n):
    """s_{m,n}(w) = |psi_{m,n}(w)| gamma_{m,n}^{1/2} over the index box."""
    return np.abs(psi_table(nu, complex(w), max_m, max_n)) * np.sqrt(
        gamma_grid(alpha, beta, max_m, max_n)
    )


def kw_bracket(nu, alpha, beta, w):
    """Analytic bracket [nu pi/((a+1)(b+1)), nu pi e^{nu|w|^2}/(a b)] of k_w."""
    lower = nu * math.pi / ((alpha + 1.0) * (beta + 1.0))
    upper = nu * math.pi * math.exp(nu * abs(complex(w)) ** 2) / (alpha * beta)
    return lower, upper


def eigen_value(nu, coeffs, points, u, v):
    """sum a_{m,n} u^m v^n psi_{m,n}(points) over a finite psi-expansion, and
    the sum of the terms' absolute values.  At target points xi it is frft(f)
    by the eigenrelation; at arrays u, v it is the dual transform at w."""
    points = np.asarray(points, dtype=complex)
    P = psi_table(nu, points, max(m for m, _ in coeffs), max(n for _, n in coeffs))
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    terms = np.array([a * u**m * v**n * P[m, n] for (m, n), a in coeffs.items()])
    return terms.sum(axis=0), np.abs(terms).sum(axis=0)
