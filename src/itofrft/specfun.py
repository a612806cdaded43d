"""Special functions that scipy does not cover as needed here.

Gamma ratios, the modified Bessel function I_nu and the generalized Laguerre
polynomials come from `scipy.special`.  Only the physicists' Hermite
recurrence stays, because the classical Mehler check evaluates it in
extended (longdouble) precision.  Degrees are capped at 200; every caller in
this package stays far below that.
"""

import numpy as np

DEGREE_CAP = 200


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
