"""Closed-form and series evaluation of the kernel functions: the complex
Mehler function, the fractional Fourier kernel, the bi-disk Bergman
reproducing kernel, and the Gram kernel of the dual transform.

All exponentials are computed after assembling the full complex exponent; an
overflow guard rejects exponents whose real part exceeds 700 (parameters near
|uv| -> 1 blow up; callers here stay at |u|, |v| <= 0.6).
"""

import math
from dataclasses import dataclass

import numpy as np

from .ito_hermite import psi_table
from .spectral import gamma_norm

__all__ = [
    "TransformParams",
    "mehler_closed",
    "mehler_series",
    "frft_kernel",
    "bergman_kernel",
    "gram_kernel",
]

_EXP_GUARD = 700.0


@dataclass(frozen=True)
class TransformParams:
    """Scaling nu > 0 plus fractional parameters u, v in the open unit disk."""

    nu: float
    u: complex
    v: complex

    def __post_init__(self):
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise ValueError("nu must be finite and positive, got %r" % (self.nu,))
        if abs(self.u) >= 1 or abs(self.v) >= 1:
            raise ValueError(
                "fractional parameters must lie in the open unit disk, got u=%r v=%r"
                % (self.u, self.v)
            )


def _guarded_exp(exponent):
    if np.max(np.real(exponent)) > _EXP_GUARD:
        raise OverflowError("kernel exponent real part exceeds %g" % _EXP_GUARD)
    return np.exp(exponent)


def mehler_closed(p, z, w):
    """Complex Mehler function

        K_{u,v}(z, w) = (1 - uv)^{-1} exp[(-uv nu (|z|^2 + |w|^2)
                                           + nu u z w + nu v conj(z) conj(w)) / (1 - uv)].

    Equals (pi/nu) times the bilinear psi-series `mehler_series`, and
    (pi/nu) times the fractional Fourier kernel at (conj(z), w), which is how
    it is evaluated; vectorized over ndarray z, w.
    """
    out = math.pi / p.nu * frft_kernel_raw(p.nu, p.u, p.v, np.conj(z), w)
    return complex(out) if out.ndim == 0 else out


def mehler_series(p, z, w, trunc):
    """Truncated bilinear expansion
    sum_{m,n=0}^{trunc} u^m v^n psi_{m,n}(z) psi_{m,n}(w).

    Converges to (nu/pi) * mehler_closed as trunc grows; the truncation order
    is an explicit caller choice, never adaptive.
    """
    if trunc < 0:
        raise ValueError("trunc must be >= 0")
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
    """
    zeta = np.asarray(zeta, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    uv = u * v
    num = (
        -uv * (np.abs(zeta) ** 2 + np.abs(xi) ** 2)
        + u * np.conj(zeta) * xi
        + v * zeta * np.conj(xi)
    )
    return nu / (math.pi * (1.0 - uv)) * _guarded_exp(nu * num / (1.0 - uv))


def frft_kernel(p, zeta, xi):
    """Kernel K^nu_{u,v}(zeta; xi) of the 2D fractional Fourier transform.

    Equals (nu/pi) * mehler_closed(p, conj(zeta), xi).
    """
    out = frft_kernel_raw(p.nu, p.u, p.v, zeta, xi)
    return complex(out) if np.ndim(out) == 0 else out


def bergman_kernel(alpha, beta, a, b):
    """Reproducing kernel of the weighted Bergman space on the bi-disk:

        (alpha+1)(beta+1) / (pi^2 (1 - u conj(z))^{alpha+2} (1 - v conj(w))^{beta+2})

    for a = (u, v), b = (z, w).  Principal-branch powers; the bases have
    positive real part on D x D so no branch cut can be crossed.
    """
    u, v = (np.asarray(c, dtype=complex) for c in a)
    z, w = (np.asarray(c, dtype=complex) for c in b)
    if (
        np.any(np.abs(u) >= 1)
        or np.any(np.abs(v) >= 1)
        or np.any(np.abs(z) >= 1)
        or np.any(np.abs(w) >= 1)
    ):
        raise ValueError("bergman_kernel arguments must lie in the open unit disk")
    out = (alpha + 1.0) * (beta + 1.0) / (
        math.pi**2
        * (1.0 - u * np.conj(z)) ** (alpha + 2.0)
        * (1.0 - v * np.conj(w)) ** (beta + 2.0)
    )
    return complex(out) if np.ndim(out) == 0 else out


def gram_kernel(nu, alpha, beta, w, zeta, z, trunc):
    """Truncated kernel of the Gram operator (adjoint composed with the dual
    transform):

        sum_{m,n<=trunc} |c_{m,n}(w)|^2 psi_{m,n}(z) conj(psi_{m,n}(zeta))

    with c_{m,n}(w) = psi_{m,n}(w) gamma_{m,n}^{1/2}.
    """
    if trunc < 0:
        raise ValueError("trunc must be >= 0")
    pw = np.abs(psi_table(nu, complex(w), trunc, trunc)) ** 2
    ks = np.arange(trunc + 1)
    g = gamma_norm(alpha, beta, ks[:, None], ks)
    pz = psi_table(nu, z, trunc, trunc)
    pzeta = np.conj(psi_table(nu, zeta, trunc, trunc))
    out = np.einsum("mn,mn...->...", pw * g, pz * pzeta)
    return complex(out) if np.ndim(out) == 0 else out
