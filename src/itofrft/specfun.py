"""Special functions that scipy does not cover as needed here, and the one
way into `scipy.special` for the rest of the package.

Gamma ratios, the modified Bessel function I_nu and the generalized Laguerre
polynomials come from `scipy.special`.  No module imports it at load time:
`scipy_special()` imports it on its first call and returns the cached module
on every later one, so `import itofrft` and the calls that need only numpy
(psi tables, kernels, the eigen-route transforms) never load scipy.  A
function that uses scipy binds the names it needs once per call, as in
`gammaln = scipy_special().gammaln`, never per element or loop step.

Only the physicists' Hermite recurrence stays here, because the classical
Mehler check evaluates it in extended (longdouble) precision.  Degrees are
capped at 200; every caller in this package stays far below that.
"""

import functools

import numpy as np

DEGREE_CAP = 200


@functools.cache
def scipy_special():
    """The `scipy.special` module, imported on the first call."""
    import scipy.special

    return scipy.special


def hermite_real(n, x):
    """Physicists' Hermite polynomial H_n(x) via H_{n+1} = 2x H_n - 2n H_{n-1}.

    `x` may be a scalar or a numpy array; a longdouble array stays longdouble.
    """
    if not 0 <= n <= DEGREE_CAP:
        raise ValueError("degree must lie in [0, %d], got %r" % (DEGREE_CAP, n))
    prev = 1.0 if not isinstance(x, np.ndarray) else np.ones_like(x)
    if n == 0:
        return prev
    cur = 2.0 * x
    for k in range(1, n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * k * prev
    return cur
