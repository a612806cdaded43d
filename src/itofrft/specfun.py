"""The one way into `scipy.special` for the rest of the package, and the
cap on polynomial degrees.

Gamma ratios, the modified Bessel function I_nu and the generalized Laguerre
polynomials come from `scipy.special`.  No module imports it at load time:
`scipy_special()` imports it on its first call, together with
`scipy.linalg`, which the Gauss rule builders of `scipy.special` load on
their first use, and returns the cached module on every later one, so
`import itofrft` and the calls that need only numpy (psi tables, kernels,
the eigen-route transforms) never load scipy.  A
function that uses scipy binds the names it needs once per call, as in
`gammaln = scipy_special().gammaln`, never per element or loop step.
The first call records how long the two imports took in
`scipy_special.import_s`, so that a timed stage can tell that one-time cost
from its own work.

Polynomial degrees are capped at `DEGREE_CAP` = 200; every caller in this
package stays far below that.
"""

import functools
import sys
import time

DEGREE_CAP = 200


@functools.cache
def scipy_special():
    """The `scipy.special` module, imported with `scipy.linalg` on the first
    call.

    That call sets `scipy_special.import_s` to the seconds the imports took,
    0.0 if both modules were already loaded; before it, the attribute is
    None.
    """
    loaded = "scipy.special" in sys.modules and "scipy.linalg" in sys.modules
    start = time.perf_counter()
    import scipy.linalg  # noqa: F401  (loaded by the first Gauss rule build)
    import scipy.special

    scipy_special.import_s = 0.0 if loaded else time.perf_counter() - start
    return scipy.special


scipy_special.import_s = None
