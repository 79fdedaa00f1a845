import math
import sys
import threading
import time
from fractions import Fraction

import pytest

from emeasure import cfrac, enclosure
from emeasure.cfrac import (
    conjecture2_scan,
    convergent_pairs,
    convergents,
    corollary3_scan,
    is_convergent,
    partial_sum_record,
    partial_sum_scan,
)
from emeasure.enclosure import (
    DepthCapExceeded,
    compare_distance_to_e,
    interval,
    partial_sum,
)
from emeasure.rationals import LESS


def test_partial_quotients_pattern():
    quotients = [cfrac._partial_quotient(k) for k in range(12)]
    assert quotients == [2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8]


def test_first_convergents():
    values = [c.value for c in convergents(5)]
    assert values == [
        Fraction(2),
        Fraction(3),
        Fraction(8, 3),
        Fraction(11, 4),
        Fraction(19, 7),
    ]


def _quotients_by_blocks(count):
    """Independent encoding of e's quotients: 2, then blocks 1, 2k, 1."""
    quotients = [2]
    k = 1
    while len(quotients) < count:
        quotients.extend((1, 2 * k, 1))
        k += 1
    return quotients[:count]


def _oracle_pairs(count):
    """The first `count` convergents as (p, q), by the recurrence over the
    block encoding, rebuilt independently of cfrac."""
    quotients = _quotients_by_blocks(count)
    p_prev, p = 1, quotients[0]
    q_prev, q = 0, 1
    pairs = [(p, q)]
    for a in quotients[1:]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        pairs.append((p, q))
    return pairs


def _recurrence_oracle(count):
    """The first `count` convergents, as Fractions."""
    return [Fraction(p, q) for p, q in _oracle_pairs(count)]


def test_convergents_from_recurrence_oracle():
    assert [c.value for c in convergents(30)] == _recurrence_oracle(30)


def test_convergent_pairs_are_the_convergents_in_lowest_terms(monkeypatch):
    pairs = convergent_pairs(200)
    assert pairs == [(r.numerator, r.denominator) for r in _recurrence_oracle(200)]
    # Each Convergent carries its pair; no gcd runs until .value is read.
    monkeypatch.setattr(math, "gcd", None)
    table = convergents(200)
    monkeypatch.undo()
    assert [(c.index, (c.p, c.q)) for c in table] == list(enumerate(pairs))
    with pytest.raises(ValueError, match="^convergent_pairs requires count >= 1$"):
        convergent_pairs(0)


def test_threads_each_get_the_oracle_pairs():
    # Four threads ask for convergents at once, a thread switch offered every
    # microsecond; each call runs and proves its own recurrence.
    expected = _oracle_pairs(700)
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            barrier = threading.Barrier(4)
            answers, errors = {}, []

            def ask(count):
                barrier.wait(timeout=30)
                try:
                    answers[count] = convergent_pairs(count)
                except Exception as exc:
                    errors.append(exc)

            counts = [300 + 100 * i for i in range(4)]
            threads = [threading.Thread(target=ask, args=(count,)) for count in counts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert answers == {count: expected[:count] for count in counts}
    finally:
        sys.setswitchinterval(switch_interval)


def test_failed_validation_leaves_the_table_as_it_was(monkeypatch):
    # A proof past MAX_DEPTH is refused, and nothing of that call is kept:
    # the next call, within MAX_DEPTH, runs and proves its own recurrence.
    with monkeypatch.context() as patch:
        patch.setattr(enclosure, "MAX_DEPTH", 20)
        with pytest.raises(DepthCapExceeded):
            convergents(40)
    assert [c.value for c in convergents(40)] == _recurrence_oracle(40)


def test_denominators_strictly_increase_from_index_2():
    values = [c.value for c in convergents(40)]
    for earlier, later in zip(values[1:], values[2:]):
        assert later.denominator > earlier.denominator


def test_convergent_quality_first_50():
    for conv in convergents(50):
        q = conv.value.denominator
        assert (
            compare_distance_to_e(conv.value, Fraction(1, q * q))
            == LESS
        )


def test_convergents_alternate_sides():
    # Even-index convergents sit below e, odd-index above; decided exactly
    # via an enclosure deep enough to separate each convergent from e.
    box = interval(40)
    for conv in convergents(20):
        if conv.index % 2 == 0:
            assert conv.value < box.left
        else:
            assert conv.value > box.right


def test_convergents_enter_the_intervals():
    for n in (5, 10, 15):
        box = interval(n)
        bound = math.factorial(n)
        for conv in convergents(60):
            if conv.value.denominator > bound:
                assert box.left <= conv.value <= box.right


def test_partial_sum_record_anchors():
    rec19 = partial_sum_record(19)
    assert rec19.q_n == math.factorial(19) // 4000
    assert not rec19.full_factorial
    rec4 = partial_sum_record(4)
    assert rec4.q_n == 24 and rec4.full_factorial
    rec3 = partial_sum_record(3)
    assert (rec3.num, rec3.q_n, rec3.g) == (8, 3, 2) and not rec3.full_factorial


def test_denominators_divide_factorial():
    for n in range(1, 201):
        assert math.factorial(n) % partial_sum_record(n).q_n == 0


def test_is_convergent():
    assert is_convergent(Fraction(8, 3))
    assert is_convergent(Fraction(2))
    assert is_convergent(Fraction(3))
    assert not is_convergent(Fraction(5, 2))
    assert not is_convergent(Fraction(65, 24))


def test_is_convergent_matches_the_oracle_near_e():
    # Every p/q with q <= 300 and 2q - 2 <= p <= 3q + 2, against the oracle's
    # own convergents. 3/1 = [2; 1] and 11/4 = [2; 1, 3] = [2; 1, 2, 1] are
    # convergents only in the form whose last quotient is 1.
    oracle = set(_recurrence_oracle(20))
    wrong = [
        (p, q)
        for q in range(1, 301)
        for p in range(2 * q - 2, 3 * q + 3)
        if is_convergent(Fraction(p, q)) != (Fraction(p, q) in oracle)
    ]
    assert wrong == []
    assert sum(r.denominator <= 300 for r in oracle) == 8


def test_huge_denominator_answers_at_once(monkeypatch):
    # 1/2^60000 = [0; 2^60000] parts from e at its first quotient: the walk
    # stops there, and the proof covers a_0 to a_2 only.
    steps = []
    original = cfrac._partial_quotient
    monkeypatch.setattr(
        cfrac, "_partial_quotient", lambda k: steps.append(k) or original(k)
    )
    for r in (Fraction(1, 2**60000), Fraction(1, 10**20000)):
        steps.clear()
        start = time.perf_counter()
        assert not is_convergent(r)
        assert time.perf_counter() - start < 0.05
        assert len(steps) <= 8


def test_a_deep_match_is_refused_before_the_recurrence(monkeypatch):
    # p_500/q_500 matches e's quotients as far as it goes, so its answer needs
    # the proof of 502 convergents, priced past MAX_DEPTH = 300 before any
    # recurrence runs.
    p, q = _oracle_pairs(501)[-1]
    monkeypatch.setattr(enclosure, "MAX_DEPTH", 300)
    monkeypatch.setattr(cfrac, "_recurrence", None)
    message = "^the proof of 502 convergents starts past MAX_DEPTH$"
    with pytest.raises(DepthCapExceeded, match=message):
        is_convergent(Fraction(p, q))


def test_corollary3_no_violations():
    rows = corollary3_scan(60)
    assert rows, "full-factorial indices must exist below 60"
    assert all(not row["violated"] for row in rows)
    assert all(row["n"] != 3 for row in rows)  # q_3 = 3 != 3!


def test_conjecture2_scan():
    assert conjecture2_scan(10) == [1, 3]
    assert conjecture2_scan(100) == [1, 3]
    assert conjecture2_scan(1) == [1]


def test_scan_preconditions():
    with pytest.raises(ValueError):
        corollary3_scan(2)
    with pytest.raises(ValueError):
        conjecture2_scan(0)
    # n = 0 is a row of its own: s_0 = 1 = 0!/0!.
    [(record, hit)] = partial_sum_scan(0)
    assert (record.n, record.num, record.q_n, record.g, hit) == (0, 1, 1, 1, False)
    # s_3 = 8/3, so q_3 = 3 != 3! and the scan at max_n = 3 has no row.
    assert corollary3_scan(3) == []


def test_reduced_rows_match_the_fraction_oracle():
    # The scan finds g = gcd(N_n, n!) from its residue table, with no gcd;
    # Fraction reduces N_n/n! by one.
    num, fact, wrong = 1, 1, []
    for record, _ in partial_sum_scan(3000):
        n = record.n
        if n:
            num, fact = n * num + 1, n * fact
        s_n = Fraction(num, fact)
        g = fact // s_n.denominator
        if (record.num, record.q_n, record.g) != (s_n.numerator, s_n.denominator, g):
            wrong.append(n)
    assert wrong == []


def test_rows_run_no_gcd(monkeypatch):
    # Fraction reduces by math.gcd, so no Fraction is built either, nor by the
    # proof of the convergent test.
    monkeypatch.setattr(math, "gcd", None)
    rows = list(cfrac.partial_sum_texts(partial_sum_scan(300)))
    assert [record.n for record, hit, _, _ in rows if hit] == [1, 3]


def count_proofs(monkeypatch):
    """The counts convergent_pairs is called with from now on."""
    counts, pairs = [], cfrac.convergent_pairs
    monkeypatch.setattr(cfrac, "convergent_pairs", lambda n: counts.append(n) or pairs(n))
    return counts


def test_check_convergent_edge(monkeypatch):
    # The scan answers up to MAX_DEPTH with quotients proved only for s_1,
    # s_2 and s_3; one past it is refused by the call, before any row.
    counts = count_proofs(monkeypatch)
    assert conjecture2_scan(enclosure.MAX_DEPTH) == [1, 3]
    assert counts == [2, 3, 4]
    with pytest.raises(DepthCapExceeded, match="depth 10001 exceeds"):
        partial_sum_scan(enclosure.MAX_DEPTH + 1)


def test_convergent_test_leaves_open_only_the_first_rows():
    # q_n >= (n + 1) g rules s_n out; it leaves open n = 1, 2, 3 alone.
    rows = partial_sum_scan(enclosure.MAX_DEPTH)
    assert [r.n for r, _ in rows if r.q_n < (r.n + 1) * r.g] == [1, 2, 3]


def test_scan_column_matches_the_full_table_oracle():
    # Every row looked up in the oracle's convergents, run past 3000!.
    pairs = _oracle_pairs(7700)
    assert pairs[-1][1] > math.factorial(3000)
    table = set(pairs)
    rows = [
        (r.n, r.full_factorial, hit, (r.num, r.q_n) in table)
        for r, hit in partial_sum_scan(3000)
    ]
    assert [n for n, _, hit, oracle in rows if hit != oracle] == []
    assert [n for n, _, hit, _ in rows if hit] == [1, 3]
    assert sum(full for _, full, _, _ in rows) == 300  # q_n = n!, as corollary 3 reads


def test_partial_sums_are_left_endpoints():
    for n in range(1, 30):
        record = partial_sum_record(n)
        assert Fraction(record.num, record.q_n) == partial_sum(n)


def count_comparisons(monkeypatch):
    """The q of each comparison cfrac asks the enclosure for from now on."""
    calls, exceeds = [], enclosure._exceeds
    monkeypatch.setattr(
        cfrac, "_exceeds", lambda a, b, *rest: calls.append(b) or exceeds(a, b, *rest)
    )
    return calls


def test_proved_table_matches_per_convergent_oracle(monkeypatch):
    # One proof covers the whole call; the old per-convergent check
    # |e - p/q| < 1/q^2 stays here as an independent oracle.
    calls = count_comparisons(monkeypatch)
    pairs = convergent_pairs(1500)
    assert len(calls) == 1
    assert [Fraction(p, q) for p, q in pairs] == _recurrence_oracle(1500)
    for p, q in pairs:
        assert Fraction(p, q).denominator == q
        assert compare_distance_to_e(Fraction(p, q), Fraction(1, q * q)) == LESS


# At j = 5000, p and q have more digits than str() converts by default.
@pytest.mark.parametrize("j", [0, 1, 2, 5, 40, 299, 5000])
def test_wrong_quotient_is_refused(monkeypatch, j):
    original = cfrac._partial_quotient
    monkeypatch.setattr(
        cfrac, "_partial_quotient", lambda k: original(k) + (k == j)
    )
    with pytest.raises(AssertionError, match=r"fails \|e - p/q\| < 1/\(2 q\^2\)$"):
        convergents(j + 1)
    monkeypatch.undo()
    assert convergent_pairs(j + 1) == _oracle_pairs(j + 1)


def test_convergent_count_edge(monkeypatch):
    # 13941 convergents are proved within MAX_DEPTH. From 13942 on, the
    # proof priced at q_K <= 4^m (m + 1)!, K = 3m + 1, would start past
    # MAX_DEPTH, so the count is refused before the recurrence runs: the
    # proof for 13942 to 13944 ran at MAX_DEPTH from a start past it, and
    # for 13945 to 20000 the recurrence ran before the proof failed.
    pairs = convergent_pairs(13941)
    assert len(pairs) == 13941
    bound = 1
    for m in range(1, 4647):
        bound *= 4 * (m + 1)
        assert pairs[3 * m + 1][1] <= bound, m  # q_(3m+1) <= 4^m (m + 1)!
    del pairs
    monkeypatch.setattr(cfrac, "_partial_quotient", None)
    for count in (13942, 13945, 2 * enclosure.MAX_DEPTH):
        message = f"^the proof of {count} convergents starts past MAX_DEPTH$"
        with pytest.raises(DepthCapExceeded, match=message):
            convergent_pairs(count)
    with pytest.raises(DepthCapExceeded, match="depth 10001 exceeds"):
        convergent_pairs(2 * enclosure.MAX_DEPTH + 1)


@pytest.mark.parametrize(
    "scan, expected",
    [
        (conjecture2_scan, [1, 3]),
        (lambda n: [row["n"] for row in corollary3_scan(n) if row["violated"]], []),
    ],
    ids=["conjecture2", "corollary3"],
)
def test_scan_proves_each_open_row(monkeypatch, scan, expected):
    # One proof for each row the inequality leaves open, s_1 = [2],
    # s_2 = [2; 2] and s_3 = [2; 1, 2]: of p_4/q_4 = 19/7 for the first two,
    # of p_7/q_7 = 193/71 for the third.
    calls = count_comparisons(monkeypatch)
    assert scan(300) == expected
    assert calls == [7, 7, 71]


def test_partial_sum_scan_checks_before_it_returns(monkeypatch):
    # The depth is refused by the call, before any row is read. The quotients
    # the convergent test needs are proved within a depth of 300.
    monkeypatch.setattr(enclosure, "MAX_DEPTH", 300)
    with pytest.raises(DepthCapExceeded):
        partial_sum_scan(301)
    rows = partial_sum_scan(300)
    assert [record.n for record, hit in rows if hit] == [1, 3]
    with pytest.raises(ValueError):
        partial_sum_scan(-1)
    # The scan steps the recurrence; partial_sum_record reads the enclosure.
    rows = list(partial_sum_scan(300))
    assert [record for record, _ in rows] == [partial_sum_record(n) for n in range(301)]
