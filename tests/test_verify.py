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
from itofrft.kernels import TransformParams, bergman_kernel
from itofrft.quadrature import bidisk_rule, integrate, plane_rule
from itofrft.spectral import gamma_norm
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


# Each check's observed value, pinned at 100 times the value it observed
# when the budget was set, rounded up to a power of ten: far inside most
# stated tolerances, so a drift those would hide fails here.  The margin
# checks, negative when they hold, keep at least half their margin, and
# null_space finds no mismatch.  compactness_tail and mehler_classical have
# no budget: the first fails its tolerance, and the second observes its own
# long-double oracle's cancellation.
OBSERVED_BUDGETS = {
    "orthonormality": 1e-11,
    "mehler_series_vs_closed": 1e-10,
    "frft_eigenrelation": 1e-12,
    "kernel_autocorrelation": 1e-12,
    "singular_values": 1e-12,
    "schatten_bound": -8.27e-4,
    "boundedness_bracket": -2.39e-2,
    "hankel_reduction": 1e-13,
    "hankel_fixed_point": 1e-12,
    "bergman_reproducing": 1e-12,
    "null_space": 0.0,
    "rodrigues_cross_check": 1e-11,
    "conjugate_symmetry": 1e-11,
    "laguerre_factorization": 1e-11,
    "zero_radii_consistency": 1e-13,
    "dual_coeff_vs_quadrature": 1e-13,
    "pointwise_estimate": -3.36e-1,
    "adjoint_identity": 1e-11,
    "parseval_dual_norm": 1e-13,
    "bargmann_laguerre_basis": 1e-12,
    "quadrature_selfconvergence": 1e-12,
}


@pytest.fixture(scope="module")
def observed():
    return {res.name: res.observed for res in run_checks(names=list(OBSERVED_BUDGETS))}


@pytest.mark.parametrize("name", list(OBSERVED_BUDGETS))
def test_observed_within_budget(name, observed):
    assert observed[name] <= OBSERVED_BUDGETS[name], "%s: observed %.6e, budget %.3g" % (
        name, observed[name], OBSERVED_BUDGETS[name],
    )


@pytest.mark.parametrize("name", ["frft_eigenrelation", "singular_values", "null_space"])
def test_image_checks_transform_through_frft_apply(name, monkeypatch):
    # each check forms its plane-quadrature images of the psi table with
    # `frft_apply`, the package's one plane-quadrature transform
    apply, calls = verify.frft_apply, []
    monkeypatch.setattr(verify, "frft_apply", lambda *args: calls.append(args) or apply(*args))
    (res,) = run_checks(names=[name])
    assert res.passed and calls
    assert all(len(args) == 4 and not isinstance(args[1], transforms.CoeffFunction)
               for args in calls)


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


def test_mehler_classical_checks_mehler_closed(monkeypatch):
    # the check has no closed Mehler formula of its own
    closed, params = verify.mehler_closed, []

    def spy(p, z, w):
        params.append((p.nu, p.u, p.v))
        return closed(p, z, w)

    monkeypatch.setattr(verify, "mehler_closed", spy)
    (res,) = run_checks(names=["mehler_classical"])
    assert params == [(nu, t, t) for t in (0.1, 0.3, 0.5, -0.4) for nu in (0.5, 1.0, 2.0)]
    assert res.passed


# the itofrft functions verify imports, scipy_special aside, which only
# hands out scipy's own functions
PACKAGE_FUNCTIONS = [
    name for name, obj in vars(verify).items()
    if callable(obj) and not isinstance(obj, type) and name != "scipy_special"
    and getattr(obj, "__module__", "").startswith("itofrft.") and obj.__module__ != verify.__name__
]


@pytest.mark.parametrize("name", [fn.__name__.removeprefix("check_")
                                  for fn in verify.ACCEPTANCE_CHECKS + verify.INVARIANT_CHECKS])
def test_check_calls_package_code(name, monkeypatch):
    # every check reports on itofrft, not only on scipy or on code of its own
    called = []
    for fname in PACKAGE_FUNCTIONS:
        def spy(*args, fn=getattr(verify, fname), fname=fname, **kwargs):
            called.append(fname)
            return fn(*args, **kwargs)

        monkeypatch.setattr(verify, fname, spy)
    run_checks(names=[name])
    assert called


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


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, 0.5)])
def test_singular_values_rule_is_exact(alpha, beta):
    # |R_w psi_{m,n}|^2 = |psi_{m,n}(w)|^2 |u|^{2m} |v|^{2n}: the check's (3, 3)
    # rule integrates |u|^{2m} |v|^{2n} exactly for m, n <= 4, a (2, 3) rule for m, n <= 3
    ms = np.arange(5)
    want = gamma_norm(alpha, beta, ms[:, None], ms)

    def errors(n_radial):
        rule = bidisk_rule(alpha, beta, n_radial, 3)
        got = [[integrate(rule, lambda u, v: np.abs(u) ** (2 * m) * np.abs(v) ** (2 * n))
                for n in ms] for m in ms]
        return np.abs(np.real(got) - want) / want

    assert np.max(errors(3)) <= 1e-14
    small = errors(2)
    assert np.max(small[:4, :4]) <= 1e-14
    assert np.min(small[4]) > 1e-3 and np.min(small[:, 4]) > 1e-3


def test_singular_values_kernel_work(monkeypatch):
    # 4096 plane nodes against the 81 nodes of the (3, 3) bi-disk rule, at two
    # points w, formed by `frft_apply`
    raw, entries = transforms.frft_kernel_raw, []

    def counted(*args):
        out = raw(*args)
        entries.append(out.size)
        return out

    monkeypatch.setattr(transforms, "frft_kernel_raw", counted)
    (res,) = run_checks(names=["singular_values"])
    assert res.passed
    assert sum(entries) == 2 * 81 * 4096


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
    # image from `frft_apply` read at w, as the 256 x 256 tensor sum does
    count = 0
    for nu, alpha, beta, w, fs in verify._bracket_battery():
        rules = bidisk_rule(alpha, beta, 4, 7), bidisk_rule(alpha, beta, 16, 16)
        for f in fs:
            got, full = (
                integrate(
                    rule, lambda u, v: np.abs(transforms.frft_apply(TransformParams(nu, u, v), f, w)) ** 2
                ).real
                for rule in rules
            )
            assert abs(got - full) <= 1e-13 * full
            count += 1
    assert count == 90


def _adjoint_sides(alpha, beta, rule_sizes=(3, 8)):
    # both sides of `adjoint_identity` at (alpha, beta): the left on a bi-disk
    # rule of `rule_sizes`, the right as the check's plain sum on (3, 8)
    nu, w = 1.0, 0.8
    f = transforms.CoeffFunction(nu=nu, coeffs={(0, 0): 1.0, (1, 2): 0.5 - 0.25j, (3, 0): 0.3j})

    def g(u, v):
        return u * np.conj(u) + 0.5 * v**2 - 0.25j * u

    lhs = integrate(
        bidisk_rule(alpha, beta, *rule_sizes),
        lambda u, v: transforms.frft_apply(TransformParams(nu, u, v), f, w) * np.conj(g(u, v)),
    )
    prule = plane_rule(nu, 48, 24)
    brule = bidisk_rule(alpha, beta, 3, 8)
    rstar = transforms.adjoint_apply(nu, w, g, prule.nodes, brule)
    return lhs, np.dot(prule.weights, f(prule.nodes) * np.conj(rstar))


def test_adjoint_identity_plain_sum():
    (res,) = run_checks(names=["adjoint_identity"])
    lhs, rhs = _adjoint_sides(1.0, 1.0)
    assert res.observed == abs(lhs - rhs) <= 1e-12
    lhs, rhs = _adjoint_sides(2.0, 0.5)
    assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, 0.5)])
def test_adjoint_identity_left_side_is_exact(alpha, beta):
    # <R f, g> on the (3, 8) rule is the integral a 12 x 12 per-disk rule gives
    small, _ = _adjoint_sides(alpha, beta)
    large, _ = _adjoint_sides(alpha, beta, (12, 12))
    assert abs(small - large) <= 1e-15


def test_adjoint_identity_kernel_work(monkeypatch):
    # one `adjoint_apply` call: 1152 plane nodes against the 24 x 24 nodes of the (3, 8) rule
    raw, entries = transforms.frft_kernel_raw, []
    adjoint, calls = verify.adjoint_apply, []

    def counted(*args):
        out = raw(*args)
        entries.append(out.size)
        return out

    def counted_adjoint(*args):
        calls.append(args)
        return adjoint(*args)

    monkeypatch.setattr(transforms, "frft_kernel_raw", counted)
    monkeypatch.setattr(verify, "adjoint_apply", counted_adjoint)
    (res,) = run_checks(names=["adjoint_identity"])
    assert res.passed
    assert len(calls) == 1
    assert sum(entries) == 1152 * 576


def test_parseval_rule_is_exact():
    # |R_w f|^2 with modes m, n <= 3: the check's (2, 4) rule integrates it as a
    # 16 x 16 per-disk rule does, and one radius does not
    nu, w = 1.0, 1.2 + 0.1j
    f = transforms.CoeffFunction(
        nu=nu, coeffs={(0, 1): 1.0, (2, 2): -0.5j, (1, 0): 0.75, (3, 3): 0.2}
    )

    def norm2(n_radial, n_angular):
        rule = bidisk_rule(1.0, 0.5, n_radial, n_angular)
        return integrate(
            rule, lambda u, v: np.abs(transforms.frft_apply(TransformParams(nu, u, v), f, w)) ** 2
        ).real

    full = norm2(16, 16)
    assert abs(norm2(2, 4) - full) <= 1e-14
    assert abs(norm2(1, 4) - full) > 1e-3


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
# wall_s of each check of a run that starts with a check needing no scipy,
# then whether scipy.linalg was loaded as each check started
FRESH_RUN = """
import functools, sys
from itofrft import verify
from itofrft.specfun import scipy_special
loaded = []
verify.ACCEPTANCE_CHECKS[:] = [
    functools.wraps(fn)(lambda fn=fn: loaded.append("scipy.linalg" in sys.modules) or fn())
    for fn in verify.ACCEPTANCE_CHECKS
]
results = verify.run_checks(names=["mehler_classical", "hankel_fixed_point"])
print(scipy_special.import_s, *(r.wall_s for r in results))
print(*loaded)
"""


def test_scipy_loaded_before_the_first_check():
    res = subprocess.run([sys.executable, "-c", FRESH_RUN], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    times, loaded = res.stdout.splitlines()
    import_s, *walls = map(float, times.split())
    assert len(walls) == 2
    assert import_s > max(walls)
    assert loaded.split() == ["True", "True"]  # scipy.linalg too, before the first check


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
        run_checks(names=["schatten_bound", "hankel_fixed_point"])
    finally:
        tracer.uninstall(undo)
    spans = {span[0] for span in tracer.spans}
    assert {"verify.schatten_bound", "verify.hankel_fixed_point"} <= spans
