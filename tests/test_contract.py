"""The library keeps the CLI's contract: every function that emeasure
exports and that takes ints, called on ints drawn from around its budgets,
returns, or raises ValueError (a domain error) or ResourceError (a budget
refused), within TIME_LIMIT seconds."""

import contextlib
import inspect
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import emeasure
from emeasure import cantor, density, enclosure, kempner, measures
from emeasure.rationals import ResourceError

TIME_LIMIT = 5.0

BUDGETS = (
    enclosure.MAX_DEPTH,
    measures.MAX_BOUND_BITS,
    density.MAX_SCAN_ENTRIES,
    kempner.MAX_ORACLE_Q,
    kempner.TRIAL_DIVISION_LIMIT,
)
POOL = sorted({-1, 0, 1, 2, 10**30} | {b + d for b in BUDGETS for d in (-1, 0, 1)})

# kempner_range scans from a plan; one for q <= MAX_DEPTH puts the plan's
# edge among the drawn ints.
PLAN = emeasure.kempner_plan(enclosure.MAX_DEPTH)
UNIT = cantor.unit_family()
NEAR_E = Fraction(65, 24)

# Each exported function, called with ints only.
CALLS = {
    "cantor_partial_sum": lambda upto: emeasure.cantor_partial_sum(UNIT, upto),
    "check_prime_factor_bound": emeasure.check_prime_factor_bound,
    "check_sharpness": emeasure.check_sharpness,
    "check_theorem1": emeasure.check_theorem1,
    "compare_bounds": lambda q, eps: emeasure.compare_bounds(q, Fraction(eps)),
    "conjecture2_scan": emeasure.conjecture2_scan,
    "convergents": emeasure.convergents,
    "corollary2_scan": emeasure.corollary2_scan,
    "corollary3_scan": emeasure.corollary3_scan,
    "density_report": lambda x: emeasure.density_report(x),
    "factorize": emeasure.factorize,
    "interval": emeasure.interval,
    "kempner_S": lambda q: emeasure.kempner_S(q),
    "kempner_S_naive": emeasure.kempner_S_naive,
    "kempner_plan": emeasure.kempner_plan,
    "kempner_range": lambda lo, hi: emeasure.kempner_range(lo, hi, PLAN),
    "kempner_result": emeasure.kempner_result,
    "known_measure_bound": lambda q, eps: emeasure.known_measure_bound(q, Fraction(eps)),
    "largest_prime_factor": emeasure.largest_prime_factor,
    "partial_sum": emeasure.partial_sum,
    "partial_sum_record": emeasure.partial_sum_record,
    "render_distance": lambda digits, m: emeasure.render_distance(
        NEAR_E, digits, Fraction(1), m
    ),
    "theorem1_bound": emeasure.theorem1_bound,
}
NO_INT_ARGUMENTS = {"classify", "compare_distance_to_e", "is_convergent"}

# Accepted ints that take far longer than the rest, left out; the refusals
# beside them are still drawn. convergents(count) builds a Fraction, and so a
# gcd, per convergent: about 12 s at count 10^4, past TIME_LIMIT.
SLOW = {
    "convergents": {enclosure.MAX_DEPTH - 1, enclosure.MAX_DEPTH, enclosure.MAX_DEPTH + 1},
}


class Overtime(Exception):
    pass


def _overtime(signum, frame):
    raise Overtime(f"no answer within {TIME_LIMIT} s")


@contextlib.contextmanager
def time_limit(seconds):
    """Raise Overtime in the block once `seconds` of wall time pass."""
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_every_exported_function_is_covered():
    exported = {name for name, obj in vars(emeasure).items() if inspect.isfunction(obj)}
    assert exported == set(CALLS) | NO_INT_ARGUMENTS


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(deadline=None)
@given(data=st.data())
def test_answer_or_refusal_in_time(name, data):
    call = CALLS[name]
    ints = st.sampled_from([n for n in POOL if n not in SLOW.get(name, ())])
    args = [data.draw(ints, label=arg) for arg in inspect.signature(call).parameters]
    try:
        with time_limit(TIME_LIMIT):
            call(*args)
    except (ValueError, ResourceError):
        pass
