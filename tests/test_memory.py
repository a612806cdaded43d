"""Traced peak memory of the blocked kernel paths, of the dual transform
on a grid, of the Bergman kernel on a grid, and of the verify checks that
integrate on small bi-disk rules.

Each kernel path of the transforms contracts a kernel matrix that, built
whole, would need well over 130 MB.  `kernels._contract` splits it into
blocks of at most `BLOCK_ENTRIES` entries, contracted one at a time, so the
peak stays far below 64 MB; the kernel checks `singular_values` and
`adjoint_identity` stay within 16 MB.  The dual transform on a column x row
grid is one matrix product that writes its output once, and the Bergman
kernel multiplies its two per-disk factors once.  `bergman_reproducing` and
`boundedness_bracket` integrate on bi-disk rules of at most 96 nodes per
disk, so no array of theirs is larger than 96 x 96.  numpy's
array buffers are allocated through the traced allocator, so the blocks
are counted.  scipy is imported before tracing starts, so that a test run
alone traces the same peak as in the full suite.
"""

import tracemalloc

import numpy as np

from itofrft.kernels import bergman_kernel
from itofrft.quadrature import bidisk_rule
from itofrft.specfun import scipy_special
from itofrft.transforms import CoeffFunction, adjoint_apply, dual_apply_coeff
from itofrft.verify import (
    check_adjoint_identity,
    check_bergman_reproducing,
    check_boundedness_bracket,
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
    # a 384 x 384 grid: no full-grid temporary beyond the output
    f = CoeffFunction(nu=1.0, coeffs={(0, 0): 1.0, (8, 3): 0.5j, (2, 8): -0.25})
    radii = np.sqrt(np.linspace(0.05, 0.95, 16))
    disk = (radii[:, None] * np.exp(2j * np.pi * np.arange(24) / 24)).ravel()
    out, peak = traced_peak(lambda: dual_apply_coeff(1.0, 0.7 - 0.2j, f, (disk[:, None], disk)))
    assert out.shape == (384, 384)
    assert peak <= 1.25 * out.nbytes, "peak %.2f x the output" % (peak / out.nbytes)


def test_one_disk_sum_checks_memory():
    # a 1024 x 1024 grid for bergman_reproducing took 8 MB per array, and
    # its weights alone 8 MB; its 96 x 96 grid takes 147 kB per array
    for check in (check_bergman_reproducing, check_boundedness_bracket):
        res, peak = traced_peak(check)
        assert res.passed
        assert peak <= 4 * 2**20, "%s: peak %.2f MB" % (res.name, peak / 2**20)
