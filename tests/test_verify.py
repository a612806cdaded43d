"""The invariant checks of itofrft.verify, and how checks are selected
and traced.  The acceptance checks are run by test_acceptance.py."""

import functools
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import itofrft
import itofrft.verify as verify
from itofrft import transforms
from itofrft.kernels import bergman_kernel
from itofrft.quadrature import bidisk_rule, integrate, plane_rule
from itofrft.verify import INVARIANT_CHECKS, run_checks

INVARIANTS = [fn.__name__.removeprefix("check_") for fn in INVARIANT_CHECKS]


@pytest.mark.parametrize("name", INVARIANTS)
def test_invariant(name):
    # selected by the name it reports, and passing at its stated tolerance
    (res,) = run_checks(names=[name])
    assert res.name == name
    assert res.passed, "%s: observed %.6e exceeds tolerance %.6e" % (
        name, res.observed, res.tolerance,
    )


def test_mehler_check_sums_through_mehler_series(monkeypatch):
    # the check has no bilinear psi sum of its own
    series, truncs = verify.mehler_series, []

    def spy(p, z, w, trunc):
        truncs.append(trunc)
        return series(p, z, w, trunc)

    monkeypatch.setattr(verify, "mehler_series", spy)
    (res,) = run_checks(names=["mehler_series_vs_closed"])
    assert truncs == [80] * 9  # three nu times three (u, v) pairs
    assert res.passed


# A compound check fails when its other condition fails, even where the
# observed value is within its stated tolerance.

def test_failed_monotone_condition_fails_the_check(monkeypatch):
    # a tail that falls below 1e-3 of its first value, but not monotonically
    tails = iter([1.0, 2.0] + [1e-4] * 17)
    monkeypatch.setattr(verify, "finite_rank_tail", lambda *args: next(tails))
    (res,) = run_checks(names=["compactness_tail"])
    assert res.observed == 1e-4 and res.observed <= res.tolerance
    assert res.detail == "monotone decrease: False"
    assert not res.passed
    assert res.to_dict()["status"] == "fail"


def test_failed_zero_circle_condition_fails_the_check(monkeypatch):
    spectrum = verify.spectrum

    def lifted(*args):
        # s_(1,1) lifted off zero on the circle |w| = 1
        spec = spectrum(*args)
        values = spec.values.copy()
        values[1, 1] += 1e-9
        return type(spec)(params=spec.params, values=values)

    monkeypatch.setattr(verify, "spectrum", lifted)
    (res,) = run_checks(names=["singular_values"])
    assert res.observed <= res.tolerance  # the lift stays far below 1e-7
    assert "s_(1,1) on zero circle = 1.000e-09" in res.detail
    assert not res.passed


@pytest.mark.parametrize(
    "alpha,beta,w",
    [
        pytest.param(1.0, 1.0, 1.0 + 0.0j, id="(1+0j)"),  # both folds
        pytest.param(1.0, 1.0, 0.6 + 0.5j, id="(0.6+0.5j)"),  # the swap fold alone
        pytest.param(2.0, 0.5, 1.0 + 0.0j, id="unequal-(1+0j)"),  # the conjugation fold alone
        pytest.param(2.0, 0.5, 0.6 + 0.5j, id="unequal-(0.6+0.5j)"),  # neither
    ],
)
def test_singular_values_orbit_sum_matches_full_sum(alpha, beta, w):
    # one kernel column per rotation orbit, folded by conjugation at a real w
    # and by the (u, v) swap at alpha = beta, gives the full 16-angle bi-disk sum
    rule = plane_rule(1.0, 16, 16)
    brule = bidisk_rule(alpha, beta, 8, 16)
    x, y = brule.axes
    u, v = np.repeat(x, len(y)), np.tile(y, len(x))  # every node, in weight order
    images = verify._psi_images(1.0, rule, 4, 4, u, v, w)
    full = np.sqrt((images.real**2 + images.imag**2) @ brule.weights)
    orbit = verify._singular_values_quadrature(1.0, alpha, beta, w, 4, 4, rule)
    assert np.max(np.abs(orbit - full)) <= 1e-13


def test_singular_values_swap_fold_on_an_oblong_box():
    # the swap fold squares the box for its transposed term, then cuts it back
    rule = plane_rule(1.0, 16, 16)
    square = verify._singular_values_quadrature(1.0, 1.0, 1.0, 1.0, 5, 5, rule)
    for max_m, max_n in ((2, 5), (5, 3)):
        got = verify._singular_values_quadrature(1.0, 1.0, 1.0, 1.0, max_m, max_n, rule)
        assert np.array_equal(got, square[: max_m + 1, : max_n + 1])


def test_singular_values_kernel_work(monkeypatch):
    # 4096 plane nodes against one (u, v) node per orbit: at alpha = beta the
    # swap fold leaves 576 of the 1024 orbit columns, and at w = 1 the
    # conjugation fold leaves 324 of those; a lost fold breaks the bound
    raw, entries = verify.frft_kernel_raw, []

    def counted(*args):
        out = raw(*args)
        entries.append(out.size)
        return out

    monkeypatch.setattr(verify, "frft_kernel_raw", counted)
    (res,) = run_checks(names=["singular_values"])
    assert res.passed
    assert 0 < sum(entries) <= 4096 * (324 + 576)


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.5)])
@pytest.mark.parametrize("b", [(0.4 + 0.2j, -0.3 + 0.35j), (0.25, 0.5j)])
def test_bergman_product_form_matches_tensor_sum(alpha, beta, b):
    # the 96 x 96 tensor sum of the check's 2 x 48 per-disk rule reproduces
    # u^2 v^3 to 1e-14, as tensor sums of rules with more radii and angles do
    def integrand(u, v):
        return u**2 * v**3 * np.conj(bergman_kernel(alpha, beta, (u, v), b))

    want = b[0] ** 2 * b[1] ** 3
    for sizes in ((2, 48), (4, 64), (8, 96)):
        got = integrate(bidisk_rule(alpha, beta, *sizes), integrand)
        assert abs(got - want) <= 1e-14 * abs(want), sizes


def test_bi_disk_checks_use_right_sized_rules(monkeypatch):
    # every integral of both checks is on a bi-disk rule of at most 96 nodes per disk
    rules = []

    def spy(rule, f):
        rules.append(rule)
        return integrate(rule, f)

    monkeypatch.setattr(verify, "integrate", spy)
    results = run_checks(names=["bergman_reproducing", "boundedness_bracket"])
    assert all(res.passed for res in results)
    assert len(rules) == 4 + 90  # four reproduced monomials, 90 Rayleigh quotients
    assert all(rule.kind == "bidisk" for rule in rules)
    assert max(len(axis) for rule in rules for axis in rule.axes) <= 96


def test_boundedness_rule_matches_tensor_sums():
    # for every Rayleigh quotient, the (4, 7) rule integrates |R_w f|^2, the
    # image from `dual_apply_coeff`, as the 256 x 256 tensor sum does
    count = 0
    for nu, alpha, beta, w, fs in verify._bracket_battery():
        rules = bidisk_rule(alpha, beta, 4, 7), bidisk_rule(alpha, beta, 16, 16)
        for f in fs:
            got, full = (
                integrate(
                    rule, lambda u, v: np.abs(transforms.dual_apply_coeff(nu, w, f, (u, v))) ** 2
                ).real
                for rule in rules
            )
            assert abs(got - full) <= 1e-13 * full
            count += 1
    assert count == 90


def _adjoint_pair():
    f = transforms.CoeffFunction(nu=1.0, coeffs={(0, 0): 1.0, (1, 2): 0.5 - 0.25j, (3, 0): 0.3j})

    def g(u, v):  # no rotation symmetry in (u, v)
        return u * np.conj(u) + 0.5 * v**2 - 0.25j * u + u * v**3

    return f, g


def test_adjoint_pairing_orbit_sum_matches_full_sum():
    # one plane node per rotation orbit gives the sum over every plane node
    prule, brule = plane_rule(1.0, 8, 12), bidisk_rule(1.0, 1.0, 4, 6)
    f, g = _adjoint_pair()
    rstar = transforms.adjoint_apply(1.0, 0.8, 1.0, 1.0, g, prule.nodes, brule)
    full = complex(np.dot(prule.weights, f(prule.nodes) * np.conj(rstar)))
    orbit = verify._adjoint_pairing(1.0, 0.8, f, g, prule, brule)
    assert abs(orbit - full) <= 1e-13


def test_adjoint_pairing_needs_dividing_angles():
    f, g = _adjoint_pair()
    with pytest.raises(ValueError, match="divide"):
        verify._adjoint_pairing(1.0, 0.8, f, g, plane_rule(1.0, 8, 12), bidisk_rule(1.0, 1.0, 4, 5))


def test_singular_values_needs_dividing_angles():
    # 16, the bi-disk angular count, does not divide the plane rule's 24
    with pytest.raises(ValueError, match="divide"):
        verify._singular_values_quadrature(1.0, 2.0, 0.5, 0.6 + 0.5j, 4, 4, plane_rule(1.0, 16, 24))


def test_adjoint_identity_kernel_work(monkeypatch):
    # 96 base plane nodes, each against the 12 x 12 per-disk bi-disk grid
    raw, entries = transforms.frft_kernel_raw, []

    def counted(*args):
        out = raw(*args)
        entries.append(out.size)
        return out

    monkeypatch.setattr(transforms, "frft_kernel_raw", counted)
    monkeypatch.setattr(verify, "frft_kernel_raw", counted)
    (res,) = run_checks(names=["adjoint_identity"])
    assert res.passed
    assert 0 < sum(entries) <= 96 * 144**2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"names": ["hankel_fixed_point", "no_such_check"]},
        {"names": "hankel_fixed_point"},
    ],
    ids=["unknown_check_name", "names_not_a_list"],
)
def test_malformed_names_rejected_before_any_check(kwargs, monkeypatch):
    ran = []
    for group in ("ACCEPTANCE_CHECKS", "INVARIANT_CHECKS"):
        spies = [
            functools.wraps(fn)(lambda *args, fn=fn: ran.append(fn) or fn(*args))
            for fn in getattr(verify, group)
        ]
        monkeypatch.setattr(verify, group, spies)
    with pytest.raises(ValueError):
        run_checks(**kwargs)
    assert ran == []


# in a fresh interpreter, prints the one scipy import's seconds and the
# wall_s of each check of a run that starts with a check needing no scipy
FRESH_RUN = """
from itofrft.specfun import scipy_special
from itofrft.verify import run_checks
results = run_checks(names=["mehler_classical", "hankel_fixed_point"])
print(scipy_special.import_s, *(r.wall_s for r in results))
"""


def test_scipy_loaded_before_the_first_check():
    res = subprocess.run([sys.executable, "-c", FRESH_RUN], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    import_s, *walls = map(float, res.stdout.split())
    assert len(walls) == 2
    assert import_s > max(walls)


def test_tracer_sees_each_check():
    # perfbench/tracer.py patches the check lists in place, so run_checks
    # must call the checks through those lists for their spans to exist
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    undo = tracer.install(itofrft)
    try:
        run_checks(names=["hankel_fixed_point", "bessel_monotone"])
    finally:
        tracer.uninstall(undo)
    spans = {span[0] for span in tracer.spans}
    assert {"verify.hankel_fixed_point", "verify.bessel_monotone"} <= spans
