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
