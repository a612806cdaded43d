"""Deterministic node/weight rules for the Gaussian plane, the weighted
bi-disk, and the weighted quadrant.

Every rule bakes the analytic weight of its measure into the weights, so
`integrate(rule, f)` approximates the integral of f against that measure:

  plane    : integral over C of f(z) e^{-nu |z|^2} dA(z)
  bidisk   : integral over D x D of f(u, v) (1-|u|^2)^alpha (1-|v|^2)^beta dA
  quadrant : integral over (0,inf)^2 of f(s, t) s^alpha t^beta e^{-s-t} ds dt

Rules are immutable after construction.  `integrate` evaluates f on all nodes
in one call, so f must accept numpy arrays and broadcast.  A plane rule passes
its complex node array.  The bidisk and quadrant rules are tensor products and
keep their grid only as the two per-axis node arrays in `axes`; `integrate`
passes them as an (nx, 1) column and a (1, ny) row, so f sees the whole grid
by broadcasting and computes a factor of one variable (u^m, v^n, a kernel
power) once per axis.

The Gauss-Laguerre rule in t = nu r^2 of `plane_rule`, which
`transforms.hankel_apply` also uses, is built once per node count by
`_laguerre` and shared write-protected: a run that makes many plane rules or
Hankel transforms of one size builds it once.

Domain: the bi-disk and quadrant measures are finite exactly when alpha,
beta > -1, the plane measure needs a finite nu > 0, and a rule size is an
integer >= 1.  `_check_weights` is the one home of the alpha, beta rule for
the package (the Bergman norms and kernels share it), `_check_sizes` of the
size rule, and `_check_rule` the one test that a rule has the kind a
transform uses and, for a plane rule, its nu (the other transforms take
alpha and beta from their rule).  NaN and inf fail all three.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .ito_hermite import _check_nu, _integer_in
from .specfun import scipy_special

__all__ = ["QuadratureRule", "plane_rule", "bidisk_rule", "quadrant_rule", "integrate"]

DEFAULT_N_RADIAL = 64
DEFAULT_N_ANGULAR = 64


@dataclass(frozen=True)
class QuadratureRule:
    kind: str  # plane | bidisk | quadrant
    nodes: np.ndarray | None  # (N,) complex for plane; None for bidisk/quadrant
    weights: np.ndarray  # (N,) real, strictly positive
    params: dict = field(default_factory=dict)
    # tensor rules: per-axis nodes (x, y); weights[i * len(y) + j] is (x_i, y_j)'s
    axes: tuple | None = None

    def __post_init__(self):
        grid = (self.nodes,) if self.axes is None else self.axes
        if math.prod(map(len, grid)) != len(self.weights):
            raise ValueError("nodes and weights must have equal length")
        if not np.all(self.weights > 0):
            raise ValueError("all quadrature weights must be strictly positive")
        for arr in (self.weights, *grid):
            arr.setflags(write=False)


def _check_weights(alpha, beta):
    if not (-1 < alpha < math.inf and -1 < beta < math.inf):
        raise ValueError(
            "Bergman weights require finite alpha, beta > -1, got alpha=%r beta=%r" % (alpha, beta)
        )


def _check_sizes(*sizes):
    if not all(_integer_in(n, 1, math.inf) for n in sizes):
        raise ValueError("rule sizes must be integers >= 1, got %s" % (sizes,))


def _check_rule(rule, kind, nu=None):
    """Raise ValueError unless `rule` is a `kind` rule and, where nu is
    given, a plane rule built for that nu (to a relative 1e-12)."""
    if rule.kind != kind:
        raise ValueError("expected a %s quadrature rule, got kind=%r" % (kind, rule.kind))
    built = rule.params.get("nu", math.nan)
    if nu is not None and not math.isclose(built, nu, rel_tol=1e-12):
        raise ValueError("rule was built for nu=%r but the transform uses nu=%r" % (built, nu))


@functools.cache
def _laguerre(n):
    """The n-node Gauss-Laguerre rule (t, wt) for int_0^inf g(t) e^{-t} dt,
    built on its first use and write-protected, since every caller shares
    it: `plane_rule` and `transforms.hankel_apply`."""
    rule = scipy_special().roots_genlaguerre(n, 0.0)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _unit_jacobi(alpha, n):
    # n-node rule for int_0^1 g(s) (1-s)^alpha ds: Gauss-Jacobi mapped to [0, 1]
    x, wj = scipy_special().roots_jacobi(n, alpha, 0.0)
    return 0.5 * (x + 1.0), wj * 2.0 ** (-alpha - 1.0)


def _polar(radii, radial_weights, scale, n_angular):
    """Radius-major polar grid: the nodes r e^{2 pi i k / n_angular} of each
    radius r, every one weighted by its radial weight times `scale`."""
    theta = 2.0 * math.pi * np.arange(n_angular) / n_angular
    nodes = radii[:, None] * np.exp(1j * theta)[None, :]
    return nodes.ravel(), np.repeat(radial_weights * scale, n_angular)


def _disk_polar(alpha, n_radial, n_angular):
    s, ws = _unit_jacobi(alpha, n_radial)
    # dA = (ds/2) dtheta with s = r^2
    return _polar(np.sqrt(s), ws, math.pi / n_angular, n_angular)


def _tensor(kind, x, wx, y, wy, params):
    # product rule: node pairs (x_i, y_j) in row-major order, weights wx_i wy_j
    return QuadratureRule(
        kind=kind, nodes=None, weights=np.outer(wx, wy).ravel(), params=params, axes=(x, y)
    )


def plane_rule(nu, n_radial=DEFAULT_N_RADIAL, n_angular=DEFAULT_N_ANGULAR):
    """Polar product rule for the Gaussian plane measure e^{-nu |z|^2} dA.

    Gauss-Laguerre in t = nu r^2, radii sqrt(t / nu) from the shared rule
    `_laguerre(n_radial)`, times the uniform angular rule; integrates
    z^a conj(z)^b exactly whenever a + b <= 2 n_radial - 1 and |a-b| < n_angular.
    """
    _check_nu(nu)
    _check_sizes(n_radial, n_angular)
    t, wt = _laguerre(n_radial)
    return QuadratureRule(
        "plane",
        *_polar(np.sqrt(t / nu), wt, math.pi / (nu * n_angular), n_angular),
        {"nu": float(nu), "n_radial": n_radial, "n_angular": n_angular},
    )


def bidisk_rule(alpha, beta, n_radial, n_angular):
    """Tensor rule for the weighted bi-disk measure.

    Per disk, |u|^2 follows a Gauss-Jacobi rule on [0, 1] with weight
    (1-s)^alpha (resp. (1-t)^beta), tensored with uniform angular nodes.
    """
    _check_weights(alpha, beta)
    _check_sizes(n_radial, n_angular)
    return _tensor(
        "bidisk",
        *_disk_polar(alpha, n_radial, n_angular),
        *_disk_polar(beta, n_radial, n_angular),
        {"alpha": float(alpha), "beta": float(beta), "n_radial": n_radial, "n_angular": n_angular},
    )


def quadrant_rule(alpha, beta, n=DEFAULT_N_RADIAL):
    """Tensor of generalized Gauss-Laguerre rules with weights s^alpha e^{-s}
    and t^beta e^{-t}; exact for per-variable degree <= 2n - 1."""
    _check_weights(alpha, beta)
    _check_sizes(n)
    roots_genlaguerre = scipy_special().roots_genlaguerre
    return _tensor(
        "quadrant",
        *roots_genlaguerre(n, alpha),
        *roots_genlaguerre(n, beta),
        {"alpha": float(alpha), "beta": float(beta), "n": n},
    )


def _samples(rule, f):
    # f at every node, called as `integrate` documents, in node order along
    # the last axis, after any axes of f's values ahead of the rule's grid
    if rule.axes is not None:
        x, y = rule.axes
        vals, grid = f(x[:, None], y[None, :]), (len(x), len(y))
    else:
        vals, grid = f(rule.nodes), rule.weights.shape
    vals = np.asarray(vals, dtype=complex)
    lead = vals.shape[:max(0, vals.ndim - len(grid))]
    vals = np.broadcast_to(vals, lead + grid).reshape(lead + (-1,))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.argmax(bad)) % len(rule.weights)
        node = rule.nodes[k] if rule.axes is None else (x[k // len(y)], y[k % len(y)])
        raise ValueError("non-finite integrand sample at node %r" % (node,))
    return vals


def integrate(rule, f):
    """Sum of weights times f at the nodes.

    For plane rules f is called as f(z) on the complex node array.  Bidisk
    and quadrant rules always carry their two axes, and f is called once as
    f(x[:, None], y[None, :]) on them; any result that broadcasts to
    (len(x), len(y)) is accepted (a function of one variable, a constant,
    the full grid) and read row-major, the order of `rule.weights`.  Axes
    ahead of those (a table of functions) lead an array result.  Raises
    ValueError on any non-finite sample, naming the offending node.
    """
    out = np.dot(_samples(rule, f), rule.weights)
    return complex(out) if out.ndim == 0 else out
