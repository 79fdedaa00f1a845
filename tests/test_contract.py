"""The library keeps the CLI's contract: every function that emeasure
exports and that takes ints, called on ints or bools drawn from around its
budgets, returns, or raises ValueError (a domain error) or ResourceError (a
budget refused), within TIME_LIMIT seconds. Called with a float or a Fraction
for an int, it raises TypeError in the argument rule's wording before any
table or cache grows."""

import contextlib
import inspect
import re
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import emeasure
from emeasure import cantor, cfrac, density, enclosure, kempner, measures
from emeasure.rationals import ResourceError, truncate_decimal

TIME_LIMIT = 5.0

BUDGETS = (
    enclosure.MAX_DEPTH,
    measures.MAX_BOUND_BITS,
    density.MAX_SCAN_ENTRIES,
    kempner.MAX_ORACLE_Q,
    kempner.TRIAL_DIVISION_LIMIT,
    kempner._SPF_LIMIT,
)
POOL = sorted({-1, 0, 1, 2, 10**30} | {b + d for b in BUDGETS for d in (-1, 0, 1)})
INTS = st.sampled_from(POOL)
# What an int parameter may be given besides an int: a bool, which counts as
# one, and floats and Fractions, integral or not, which do not.
NOT_INTS = st.one_of(
    st.floats(),
    INTS.map(float),
    INTS.map(Fraction),
    INTS.map(lambda i: Fraction(2 * i + 1, 2)),
)
TYPE_REFUSAL = re.compile(r"\w+ requires an int \w+, not (float|Fraction)")

# kempner_range scans from a plan; one for q <= MAX_DEPTH puts the plan's
# edge among the drawn ints.
PLAN = emeasure.kempner_plan(enclosure.MAX_DEPTH)
UNIT = cantor.unit_family()
NEAR_E = Fraction(65, 24)

# Each exported function, called with its int parameters only; eps is a
# rational, drawn as an int.
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
    "render_distance": lambda digits: emeasure.render_distance(NEAR_E, digits),
    "theorem1_bound": emeasure.theorem1_bound,
}
NO_INT_ARGUMENTS = {"classify", "compare_distance_to_e", "is_convergent"}


class Overtime(Exception):
    pass


def _overtime(signum, frame):
    raise Overtime(f"no answer within {TIME_LIMIT} s")


@contextlib.contextmanager
def nothing_grows():
    """Empty the endpoint cache, and check that the block leaves it empty,
    the last factorization where it found it and the oracle's tables as long
    as it found them."""
    enclosure._endpoint.cache_clear()
    last = kempner._LAST
    blocks = len(kempner._BLOCKS)
    yield
    grown = (
        enclosure._endpoint.cache_info().currsize,
        kempner._LAST is last,
        len(kempner._BLOCKS) - blocks,
    )
    assert grown == (0, True, 0)


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
    args = []
    for arg in inspect.signature(call).parameters:
        pool = INTS if arg == "eps" else st.one_of(INTS, st.booleans(), NOT_INTS)
        args.append(data.draw(pool, label=arg))
    if all(isinstance(arg, int) for arg in args):
        try:
            with time_limit(TIME_LIMIT):
                call(*args)
        except (ValueError, ResourceError):
            pass
    else:
        with nothing_grows(), time_limit(TIME_LIMIT), pytest.raises(TypeError) as refusal:
            call(*args)
        assert TYPE_REFUSAL.fullmatch(str(refusal.value))


def test_a_float_count_builds_no_convergent(monkeypatch):
    # 40.0 is refused before the recurrence reads a quotient.
    monkeypatch.setattr(cfrac, "_partial_quotient", None)
    message = "^convergent_pairs requires an int count, not float$"
    with nothing_grows(), pytest.raises(TypeError, match=message):
        emeasure.convergents(40.0)


# Refusals of out-of-domain arguments that no int drawn above reaches: the
# helpers under the exported functions, and a malformed custom Cantor spec.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: enclosure.floor_e_times(0), "floor_e_times requires q >= 1"),
        (lambda: kempner.kempner_prime_power(2, 0), "kempner_prime_power requires a >= 1"),
        # p = 1 walked 1, 2, 3, ... dividing by 1 without end.
        (lambda: kempner.kempner_prime_power(1, 2), "kempner_prime_power requires p >= 2"),
        # A composite p was walked as a prime: (6, 1) gave 6, but S(6) = 3.
        (lambda: kempner.kempner_prime_power(6, 1), "kempner_prime_power requires a prime p"),
        (lambda: kempner.kempner_prime_power(4, 2), "kempner_prime_power requires a prime p"),
        (lambda: truncate_decimal(Fraction(1, 3), 0), "truncate_decimal requires digits >= 1"),
        (lambda: cantor.term(UNIT, 0), "term requires n >= 1"),
        (
            lambda: cantor.CantorSpec(family="custom", a_table=(1,), b_table=(2, 3)),
            "custom family requires equal-length nonempty a/b tables",
        ),
        (
            lambda: cantor.CantorSpec(
                family="custom", a_table=(1,), b_table=(2,), tail_mode="nope"
            ),
            "unknown tail mode 'nope'",
        ),
    ],
    ids=[
        "floor_e_times",
        "kempner_prime_power",
        "kempner_prime_power_base",
        "kempner_prime_power_composite",
        "kempner_prime_power_prime_power",
        "truncate_decimal",
        "cantor_term",
        "unequal_tables",
        "unknown_tail_mode",
    ],
)
def test_out_of_domain_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
