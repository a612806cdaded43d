"""Deterministic node/weight rules for the Gaussian plane, the weighted
bi-disk, and the weighted quadrant.

Every rule bakes the analytic weight of its measure into the weights, so
`integrate(rule, f)` approximates the integral of f against that measure:

  plane    : integral over C of f(z) e^{-nu |z|^2} dA(z)
  bidisk   : integral over D x D of f(u, v) (1-|u|^2)^alpha (1-|v|^2)^beta dA
  quadrant : integral over (0,inf)^2 of f(s, t) s^alpha t^beta e^{-s-t} ds dt

Rules are immutable after construction.  `integrate` evaluates f on the whole
node array at once, so f must accept numpy arrays and be safe to call on all
nodes in one batch.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_genlaguerre, roots_jacobi

__all__ = ["QuadratureRule", "plane_rule", "bidisk_rule", "quadrant_rule", "integrate"]

DEFAULT_N_RADIAL = 64
DEFAULT_N_ANGULAR = 64


@dataclass(frozen=True)
class QuadratureRule:
    kind: str  # plane | bidisk | quadrant
    nodes: np.ndarray  # (N,) complex for plane, (N, 2) for bidisk/quadrant
    weights: np.ndarray  # (N,) real, strictly positive
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise ValueError("nodes and weights must have equal length")
        if np.any(self.weights <= 0):
            raise ValueError("all quadrature weights must be strictly positive")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def _disk_polar(alpha, n_radial, n_angular):
    # 1D rule for int_0^1 g(s) (1-s)^alpha ds via Jacobi nodes mapped to [0,1]
    x, wj = roots_jacobi(n_radial, alpha, 0.0)
    s = 0.5 * (x + 1.0)
    ws = wj * 2.0 ** (-alpha - 1.0)
    theta = 2.0 * math.pi * np.arange(n_angular) / n_angular
    # dA = (ds/2) dtheta with s = r^2
    nodes = np.sqrt(s)[:, None] * np.exp(1j * theta)[None, :]
    weights = ws[:, None] * (math.pi / n_angular) * np.ones(n_angular)[None, :]
    return nodes.ravel(), weights.ravel()


def _tensor(x, wx, y, wy):
    # product rule: node pairs (x_i, y_j) in row-major order, weights wx_i wy_j
    nodes = np.stack([np.repeat(x, len(y)), np.tile(y, len(x))], axis=1)
    return nodes, np.repeat(wx, len(y)) * np.tile(wy, len(x))


def plane_rule(nu, n_radial=DEFAULT_N_RADIAL, n_angular=DEFAULT_N_ANGULAR):
    """Polar product rule for the Gaussian plane measure e^{-nu |z|^2} dA.

    Gauss-Laguerre in t = nu r^2 times the uniform angular rule; integrates
    z^a conj(z)^b exactly whenever a + b <= 2 n_radial - 1 and |a-b| < n_angular.
    """
    if nu <= 0:
        raise ValueError("nu must be positive, got %r" % (nu,))
    if n_radial < 1 or n_angular < 1:
        raise ValueError("rule sizes must be >= 1")
    t, wt = roots_genlaguerre(n_radial, 0.0)
    r = np.sqrt(t / nu)
    theta = 2.0 * math.pi * np.arange(n_angular) / n_angular
    nodes = r[:, None] * np.exp(1j * theta)[None, :]
    weights = wt[:, None] * (math.pi / (nu * n_angular)) * np.ones(n_angular)[None, :]
    return QuadratureRule(
        kind="plane",
        nodes=nodes.ravel(),
        weights=weights.ravel(),
        params={"nu": float(nu), "n_radial": n_radial, "n_angular": n_angular},
    )


def bidisk_rule(alpha, beta, n_radial, n_angular):
    """Tensor rule for the weighted bi-disk measure.

    Per disk, |u|^2 follows a Gauss-Jacobi rule on [0, 1] with weight
    (1-s)^alpha (resp. (1-t)^beta), tensored with uniform angular nodes.
    """
    if alpha <= -1 or beta <= -1:
        raise ValueError("bidisk weights require alpha, beta > -1")
    nodes, weights = _tensor(
        *_disk_polar(alpha, n_radial, n_angular), *_disk_polar(beta, n_radial, n_angular)
    )
    return QuadratureRule(
        kind="bidisk",
        nodes=nodes,
        weights=weights,
        params={
            "alpha": float(alpha),
            "beta": float(beta),
            "n_radial": n_radial,
            "n_angular": n_angular,
        },
    )


def quadrant_rule(alpha, beta, n=DEFAULT_N_RADIAL):
    """Tensor of generalized Gauss-Laguerre rules with weights s^alpha e^{-s}
    and t^beta e^{-t}; exact for per-variable degree <= 2n - 1."""
    if alpha <= -1 or beta <= -1:
        raise ValueError("quadrant weights require alpha, beta > -1")
    if n < 1:
        raise ValueError("rule size must be >= 1")
    nodes, weights = _tensor(*roots_genlaguerre(n, alpha), *roots_genlaguerre(n, beta))
    return QuadratureRule(
        kind="quadrant",
        nodes=nodes,
        weights=weights,
        params={"alpha": float(alpha), "beta": float(beta), "n": n},
    )


def integrate(rule, f):
    """Sum of weights times f at the nodes.

    For plane rules f is called as f(z) on the complex node array; for bidisk
    and quadrant rules as f(x, y) on the two node columns.  f may evaluate the
    nodes concurrently provided it is itself safe for concurrent calls.
    Raises on any non-finite sample, naming the offending node.
    """
    if rule.nodes.ndim == 2:
        vals = f(rule.nodes[:, 0], rule.nodes[:, 1])
    else:
        vals = f(rule.nodes)
    vals = np.asarray(vals, dtype=complex)
    if vals.shape != rule.weights.shape:
        vals = np.broadcast_to(vals, rule.weights.shape)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            "non-finite integrand sample at node %r" % (rule.nodes[i],)
        )
    return complex(np.dot(rule.weights, vals))
