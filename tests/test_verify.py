"""The invariant checks of itofrft.verify, and how checks are selected and
sized.  The acceptance checks are run by test_acceptance.py."""

import pytest

import itofrft.verify as verify
from itofrft.verify import DEFAULT_SIZES, INVARIANT_CHECKS, run_checks

INVARIANTS = [fn.__name__.removeprefix("check_") for fn in INVARIANT_CHECKS]


@pytest.mark.parametrize("name", INVARIANTS)
def test_invariant(name):
    # selected by the name it reports, and passing at its stated tolerance
    (res,) = run_checks(names=[name])
    assert res.name == name
    assert res.passed, "%s: observed %.6e exceeds tolerance %.6e" % (
        name, res.observed, res.tolerance,
    )


def test_quadrant_size_reaches_the_rule(monkeypatch):
    build, built = verify.quadrant_rule, []

    def spy(alpha, beta, n):
        built.append(n)
        return build(alpha, beta, n)

    monkeypatch.setattr(verify, "quadrant_rule", spy)
    assert DEFAULT_SIZES["quadrant_n"] != 40
    (res,) = run_checks(names=["bargmann_laguerre_basis"], sizes={"quadrant_n": 40})
    assert built == [40]
    assert res.passed


# A tolerance override replaces only the tolerance: a compound check still
# fails when its other condition does, however loose the override.

def test_override_keeps_monotone_condition(monkeypatch):
    loose = {"compactness_tail": 2.0}
    (res,) = run_checks(names=["compactness_tail"], tolerances=loose)
    assert res.passed  # the override alone lets the true tail pass

    monkeypatch.setattr(verify, "finite_rank_tail", lambda *args: 1.0)
    (res,) = run_checks(names=["compactness_tail"], tolerances=loose)
    assert res.observed <= res.tolerance
    assert res.detail == "monotone decrease: False"
    assert not res.passed
    assert res.to_dict()["status"] == "fail"


def test_override_keeps_zero_circle_condition(monkeypatch):
    small = {"n_radial": 16, "n_angular": 16}
    loose = {"singular_values": 1.0}
    (res,) = run_checks(names=["singular_values"], sizes=small, tolerances=loose)
    assert res.passed

    spectrum = verify.spectrum

    def lifted(*args):
        # s_(1,1) lifted off zero on the circle |w| = 1
        spec = spectrum(*args)
        values = spec.values.copy()
        values[1, 1] += 1e-9
        return type(spec)(params=spec.params, values=values, cutoff=spec.cutoff)

    monkeypatch.setattr(verify, "spectrum", lifted)
    (res,) = run_checks(names=["singular_values"], sizes=small, tolerances=loose)
    assert res.observed <= res.tolerance
    assert not res.passed
