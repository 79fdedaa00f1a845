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

from emeasure import cfrac, density, enclosure, kempner, verify


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


def test_measure_sweep_catches_a_bound_one_factorial_too_large(monkeypatch):
    # With S(q) - 1 in place of S(q) the sweep checks 1/S(q)!, which fails
    # at 5/2 (|e - 5/2| < 1/2!), 8/3 and 65/24, among others.
    S = kempner.kempner_S
    monkeypatch.setattr(kempner, "kempner_S", lambda q: S(q) - 1)
    passed, detail = verify.check_measure_sweep()
    assert not passed
    assert detail.startswith("failures=[(5, 2), ")


def test_kempner_oracle_check_catches_one_wrong_S(monkeypatch):
    S = kempner.kempner_S
    monkeypatch.setattr(kempner, "kempner_S", lambda q: S(q) + (q == 9973))
    passed, detail = verify.check_kempner_oracle()
    assert not passed
    assert detail == "mismatches=[9973], anchors=True"


def test_density_check_catches_one_wrong_P(monkeypatch):
    scan = density.kempner_range

    def one_wrong_p(lo, hi, plan):
        S, P = scan(lo, hi, plan)
        if lo == 5002:
            P[500] += 1
        return S, P

    monkeypatch.setattr(density, "kempner_range", one_wrong_p)
    passed, detail = verify.check_density()
    assert not passed
    assert detail.startswith("pointwise agreement=False;")
