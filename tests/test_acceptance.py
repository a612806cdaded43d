"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each criterion is implemented as a named check in itofrft.verify; this module
runs the acceptance battery once and asserts every check at its stated
tolerance.  The compactness-tail criterion is known to fail: the requested
ratio of finite-rank tails at cutoffs (20, 20) versus (2, 2) is exactly
(4/22)^2 ~ 3.3e-2 for alpha = beta = 1 (each axis tail telescopes to
1/(p+2)), so the 1e-3 threshold is not attainable by any correct
implementation.  The check is kept faithful and reports red rather than
being weakened.
"""

import pytest

from itofrft.verify import ACCEPTANCE_CHECKS

CRITERIA = [fn.__name__.removeprefix("check_") for fn in ACCEPTANCE_CHECKS]


@pytest.fixture(scope="module")
def results():
    return {name: fn() for name, fn in zip(CRITERIA, ACCEPTANCE_CHECKS)}


@pytest.mark.parametrize("criterion", CRITERIA)
def test_acceptance(criterion, results, capsys):
    res = results[criterion]
    with capsys.disabled():
        print(
            "criterion %-24s %s  observed=%.3e  tolerance=%.3e"
            % (criterion, "PASS" if res.passed else "FAIL", res.observed, res.tolerance)
        )
    assert res.passed, "%s: observed %.6e exceeds tolerance %.6e (%s)" % (
        res.name,
        res.observed,
        res.tolerance,
        res.detail or "no detail",
    )


@pytest.mark.parametrize("criterion", CRITERIA)
def test_reported_name(criterion, results):
    # run_checks and `verify --check` select a check by the name it reports
    assert results[criterion].name == criterion
