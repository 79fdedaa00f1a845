"""Acceptance suite: one test per headline claim of `emeasure.verify`, each
held to the runtime budget registered with it. The claims themselves live in
`verify.CHECKS` only. Everything is exact arithmetic, so a check either
passes or not; the timing limits apply to the check itself after the module
warm-up below. A check runs up to three times: every run must pass, and the
fastest must be within budget, since one run of a millisecond check on a
shared machine can be slowed by far more than its budget.
"""

import math

import pytest

from emeasure import cfrac, enclosure, verify


@pytest.fixture(scope="module", autouse=True)
def warmup():
    # Populate the partial-sum and convergent caches once so timing limits
    # measure the operations, not cold-start cache construction.
    enclosure.partial_sum(64)
    cfrac.convergents(3)


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda fn: fn.__name__)
def test_claim(check):
    fastest = math.inf
    for _ in range(3):
        result = verify.run_check(check)
        assert result.passed, f"{result.name}: {result.detail}"
        fastest = min(fastest, result.seconds)
        if fastest < check.budget:
            break
    assert fastest < check.budget, (
        f"{result.name}: fastest of 3 runs took {fastest:.3f}s, budget {check.budget}s"
    )
