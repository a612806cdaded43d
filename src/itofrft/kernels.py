"""Closed-form and series evaluation of the kernel functions: the complex
Mehler function, the fractional Fourier kernel, and the bi-disk Bergman
reproducing kernel.

All exponentials are computed after assembling the full complex exponent; an
overflow guard rejects exponents whose real part exceeds 700.  The exponent
grows like 1/(1 - uv), so it is the guard, not a parameter range, that bounds
the inputs: the bi-disk rules of `verify` reach |u|, |v| = 0.977-0.999.

Domain: the fractional parameters u, v and the points of the Bergman kernel
have modulus below 1; `_check_disk` is the one home of that rule for the
package, and NaN fails it.  nu and the points of the Mehler function and
the fractional Fourier kernel are checked by `ito_hermite._check_nu` and
`_check_point`, the Bergman weights by `quadrature._check_weights`.

The callers that contract a kernel matrix (`transforms._contract`, behind
`frft_apply` and `adjoint_apply`, and `verify._psi_images`) build it over
the slices of `_blocks`, one block at a time on the calling thread.  Each
block holds at most `BLOCK_ENTRIES` kernel entries, so memory stays bounded
whatever the number of nodes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ito_hermite import _check_nu, _check_point, psi_table
from .quadrature import _check_weights

__all__ = [
    "TransformParams",
    "mehler_closed",
    "mehler_series",
    "frft_kernel",
    "bergman_kernel",
]

_EXP_GUARD = 700.0

# kernel entries in one block of `_blocks`: 2 MB of complex128
BLOCK_ENTRIES = 1 << 17


def _check_disk(what, *points):
    """Raise ValueError unless every entry of the scalar or array points
    has modulus below 1; a NaN entry does not."""
    for p in points:
        inside = np.abs(p) < 1
        if not np.all(inside):
            bad = np.ravel(p)[np.argmin(np.ravel(inside))]
            raise ValueError("%s must lie in the open unit disk, got %s" % (what, bad))


@dataclass(frozen=True)
class TransformParams:
    """Scaling nu > 0 plus fractional parameters u, v with |u|, |v| < 1."""

    nu: float
    u: complex
    v: complex

    def __post_init__(self):
        _check_nu(self.nu)
        _check_disk("fractional parameters u, v", self.u, self.v)


def _block_rows(width):
    """Indices in one block of `_blocks` when each index contributes `width`
    kernel entries: a block holds `BLOCK_ENTRIES`, or one index if wider."""
    return max(1, BLOCK_ENTRIES // width)


def _blocks(count, width):
    """The consecutive slices of range(count), each `_block_rows(width)`
    long but the last."""
    step = _block_rows(width)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def mehler_closed(p, z, w):
    """Complex Mehler function

        K_{u,v}(z, w) = (1 - uv)^{-1} exp[(-uv nu (|z|^2 + |w|^2)
                                           + nu u z w + nu v conj(z) conj(w)) / (1 - uv)].

    Equals (pi/nu) times the bilinear psi-series `mehler_series`, and
    (pi/nu) times the fractional Fourier kernel at (conj(z), w), which is how
    it is evaluated; vectorized over ndarray z, w.
    """
    _check_point("mehler_closed points (z, w)", z, w)
    out = math.pi / p.nu * frft_kernel_raw(p.nu, p.u, p.v, np.conj(z), w)
    return complex(out) if out.ndim == 0 else out


def mehler_series(p, z, w, trunc):
    """Truncated bilinear expansion
    sum_{m,n=0}^{trunc} u^m v^n psi_{m,n}(z) psi_{m,n}(w).

    Converges to (nu/pi) * mehler_closed as trunc grows; the truncation order
    is an explicit caller choice, never adaptive; it lies in [0, DEGREE_CAP].
    """
    pz = psi_table(p.nu, z, trunc, trunc)
    pw = psi_table(p.nu, w, trunc, trunc)
    U = p.u ** np.arange(trunc + 1)
    V = p.v ** np.arange(trunc + 1)
    terms = pz * pw
    out = np.einsum("m,n,mn...->...", U, V, terms)
    return complex(out) if np.ndim(out) == 0 else out


def frft_kernel_raw(nu, u, v, zeta, xi):
    """Fractional Fourier kernel with elementwise (u, v); no validation.

    Broadcasting workhorse behind `frft_kernel`, `mehler_closed` and the
    integral transforms: the one place the kernel exponent is written.

    The exponent nu [-uv (|zeta|^2 + |xi|^2) + u conj(zeta) xi
    + v zeta conj(xi)] / (1 - uv) is a + b |zeta|^2 + p conj(zeta) + q zeta,
    with coefficients formed at the broadcast shape of (u, v, xi) alone:

        b = -nu uv / (1-uv),  a = b |xi|^2,
        p = nu u xi / (1-uv),  q = nu v conj(xi) / (1-uv).

    The full-size result is assembled, guarded, exponentiated and scaled by
    nu / (pi (1-uv)) in one buffer.

    Rotation covariance: uv and the exponent are unchanged by
    zeta -> zeta e^{i phi} with (u, v) -> (u e^{i phi}, v e^{-i phi}), so
    K_{u,v}(zeta e^{i phi}; xi) = K_{u e^{-i phi}, v e^{i phi}}(zeta; xi).
    The orbit sums of `verify._singular_values_quadrature` and
    `verify._adjoint_pairing` rest on it.
    """
    zeta = np.asarray(zeta, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    c = nu / (1.0 - u * v)
    b = -c * u * v
    a = b * (xi.real**2 + xi.imag**2)
    p = c * u * xi
    q = c * v * np.conj(xi)
    out = np.empty(np.broadcast_shapes(a.shape, zeta.shape), dtype=complex)
    np.multiply(b, zeta.real**2 + zeta.imag**2, out=out)
    out += a
    out += p * np.conj(zeta)
    out += q * zeta
    top = np.max(out.real)
    if top > _EXP_GUARD:
        raise OverflowError(
            "kernel exponent real part %g exceeds %g (checked before quadrature weights)"
            % (top, _EXP_GUARD)
        )
    np.exp(out, out=out)
    out *= c / math.pi
    return out


def frft_kernel(p, zeta, xi):
    """Kernel K^nu_{u,v}(zeta; xi) of the 2D fractional Fourier transform.

    Equals (nu/pi) * mehler_closed(p, conj(zeta), xi).
    """
    _check_point("frft_kernel points (zeta, xi)", zeta, xi)
    out = frft_kernel_raw(p.nu, p.u, p.v, zeta, xi)
    return complex(out) if np.ndim(out) == 0 else out


def bergman_kernel(alpha, beta, a, b):
    """Reproducing kernel of the weighted Bergman space on the bi-disk:

        (alpha+1)(beta+1) / (pi^2 (1 - u conj(z))^{alpha+2} (1 - v conj(w))^{beta+2})

    for a = (u, v), b = (z, w).  Principal-branch powers; the bases have
    positive real part on D x D so no branch cut can be crossed.
    """
    _check_weights(alpha, beta)
    u, v = (np.asarray(c, dtype=complex) for c in a)
    z, w = (np.asarray(c, dtype=complex) for c in b)
    _check_disk("bergman_kernel arguments", u, v, z, w)
    out = (alpha + 1.0) * (beta + 1.0) / (
        math.pi**2
        * (1.0 - u * np.conj(z)) ** (alpha + 2.0)
        * (1.0 - v * np.conj(w)) ** (beta + 2.0)
    )
    return complex(out) if np.ndim(out) == 0 else out
