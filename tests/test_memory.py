"""Traced peak memory of the blocked kernel paths, of the dual transform
on a grid, of the Bergman kernel on a grid, of the bilinear Mehler series,
and of the verify checks that integrate on small rules.

Each kernel path of the transforms contracts a kernel matrix that, built
whole, would need well over 130 MB.  `kernels._contract` splits it into
blocks of at most `BLOCK_ENTRIES` entries, contracted one at a time, so the
peak stays far below 64 MB; the kernel checks `singular_values` and
`adjoint_identity` stay within 16 MB.  The dual transform, `frft_apply`
read at one w, is one matrix product on a column x row grid of (u, v) that
writes its output once, and the Bergman kernel multiplies its two per-disk
factors once.  `mehler_series` contracts its two psi tables without their
product array, within 8 MB at trunc 80 on a 20 x 20 grid, and
`orthonormality` sums its Gram matrix over blocks of nodes, within 4 MB.
`psi_table` on an array of points forms its step coefficients a row at a
time, so its peak stays within 1.15 times the table it returns.
`bergman_reproducing` and `boundedness_bracket` integrate on bi-disk rules
of at most 96 nodes per disk, so no array of theirs is larger than
96 x 96.  numpy's array buffers are allocated through the traced
allocator, so the blocks are counted.  scipy is imported before tracing
starts, so that a test run alone traces the same peak as in the full
suite.
"""

import tracemalloc

import numpy as np

from itofrft.ito_hermite import psi_table
from itofrft.kernels import TransformParams, bergman_kernel, mehler_series
from itofrft.quadrature import bidisk_rule
from itofrft.specfun import scipy_special
from itofrft.transforms import CoeffFunction, adjoint_apply, frft_apply
from itofrft.verify import (
    check_adjoint_identity,
    check_bergman_reproducing,
    check_boundedness_bracket,
    check_orthonormality,
    check_singular_values,
)

LIMIT = 64 * 2**20


def traced_peak(fn):
    scipy_special()  # so that its one-time import is in no peak
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adjoint_apply_memory():
    # 2200 points x 4096 bi-disk nodes: 144 MB for the whole complex matrix
    brule = bidisk_rule(1.0, 1.0, 8, 8)
    zs = np.linspace(-2.0, 2.0, 2200) + 0.5j
    assert zs.size * len(brule.weights) * 16 > 130 * 2**20
    out, peak = traced_peak(
        lambda: adjoint_apply(1.0, 0.8, lambda u, v: u * np.conj(u), zs, brule)
    )
    assert np.all(np.isfinite(out))
    assert peak <= LIMIT, "peak %.1f MB" % (peak / 2**20)


def test_singular_values_memory():
    # 4096 plane nodes x 81 bi-disk nodes per point w, in blocks of kernel rows
    res, peak = traced_peak(check_singular_values)
    assert res.passed
    assert peak <= 16 * 2**20, "peak %.1f MB" % (peak / 2**20)


def test_adjoint_identity_memory():
    # one adjoint_apply call: 1152 x 576 kernel entries, 10.1 MB whole, formed in 2 MB blocks
    res, peak = traced_peak(check_adjoint_identity)
    assert res.passed
    assert peak <= 16 * 2**20, "peak %.1f MB" % (peak / 2**20)


def test_bergman_kernel_grid_memory():
    # one factor per disk: the 1024 x 1024 output is the only full-size array
    x, y = bidisk_rule(1.0, 0.5, 32, 32).axes
    out, peak = traced_peak(
        lambda: bergman_kernel(1.0, 0.5, (x[:, None], y[None, :]), (0.4 + 0.2j, -0.3 + 0.35j))
    )
    assert out.shape == (1024, 1024)
    assert peak <= 1.25 * out.nbytes, "peak %.2f x the output" % (peak / out.nbytes)


def test_dual_grid_memory():
    # the dual transform, frft_apply read at one w, on a 384 x 384 grid:
    # no full-grid temporary beyond the output
    f = CoeffFunction(nu=1.0, coeffs={(0, 0): 1.0, (8, 3): 0.5j, (2, 8): -0.25})
    radii = np.sqrt(np.linspace(0.05, 0.95, 16))
    disk = (radii[:, None] * np.exp(2j * np.pi * np.arange(24) / 24)).ravel()
    p = TransformParams(1.0, disk[:, None], disk)
    out, peak = traced_peak(lambda: frft_apply(p, f, 0.7 - 0.2j))
    assert out.shape == (384, 384)
    assert peak <= 1.25 * out.nbytes, "peak %.2f x the output" % (peak / out.nbytes)


def test_one_disk_sum_checks_memory():
    # a 1024 x 1024 grid for bergman_reproducing took 8 MB per array, and
    # its weights alone 8 MB; its 96 x 96 grid takes 147 kB per array
    for check in (check_bergman_reproducing, check_boundedness_bracket):
        res, peak = traced_peak(check)
        assert res.passed
        assert peak <= 4 * 2**20, "%s: peak %.2f MB" % (res.name, peak / 2**20)


def test_mehler_series_memory():
    # trunc 80 on a 20 x 20 (z, w) grid: the 81 x 81 x 20 x 20 product of the
    # two psi tables would be 42 MB; they are contracted without it
    z = np.linspace(-1.5, 1.5, 20)[:, None] + 0.2j
    w = np.linspace(-1.2, 1.4, 20)[None, :] - 0.1j
    out, peak = traced_peak(lambda: mehler_series(TransformParams(1.0, 0.5, 0.4j), z, w, 80))
    assert out.shape == (20, 20)
    assert peak <= 8 * 2**20, "peak %.1f MB" % (peak / 2**20)


def test_psi_table_memory():
    # 512 points at box 40: a whole (40, 40, 512) coefficient box would add
    # 6.6 MB, almost half of the 13.8 MB table
    z = np.linspace(-2.0, 2.0, 512) + 0.3j
    P, peak = traced_peak(lambda: psi_table(1.0, z, 40, 40))
    assert P.shape == (41, 41, 512)
    assert peak <= 1.15 * P.nbytes, "peak %.2f x the table" % (peak / P.nbytes)


def test_orthonormality_memory():
    # the Gram matrix summed over 8 blocks of the 4096 plane nodes: one
    # 81 x 4096 psi table with its weighted copy and conjugate held 15.5 MB
    res, peak = traced_peak(check_orthonormality)
    assert res.passed
    assert peak <= 4 * 2**20, "peak %.2f MB" % (peak / 2**20)
