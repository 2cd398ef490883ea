"""Convex sequences, the rational enumeration, simplest-rational search,
the slope construction, counterexample generators, 2-good chains."""

from __future__ import annotations

import decimal
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fekete import (
    ErrorTerm,
    FullDomain,
    HorizonExhausted,
    SequencePrefix,
    ThresholdDomain,
    builtin_error_term,
    check_convexity,
    convex_from_error,
    enumerate_rationals,
    linear_error_example,
    rational_slope_sequence,
    scan_violations,
    sequence_to_csv,
    sequence_to_json,
    simplest_rational_in,
    threshold_gap_example,
    two_good_chain,
    zero_error_term,
)

from fekete import model
from fekete.constructions import _simplest_in

from conftest import reference_rational_slope_sequence, tabulate


# --- convex sequence from an error term ------------------------------------------

def test_convex_zero_error_term():
    a = convex_from_error(zero_error_term(6), 6)
    assert set(a.values) == {Fraction(0)}


def test_convex_frozen_values():
    f = ErrorTerm([0, 2, 3, 4])
    a = convex_from_error(f, 4)
    assert a.values == (0, 1, Fraction(5, 2), Fraction(13, 3))


def test_convex_forces_first_value_to_zero():
    f = builtin_error_term("linear", 5, {"c": 1})  # f(1) = 1
    a = convex_from_error(f, 5)
    assert a.value(1) == 0
    assert a.value(2) == 2 * Fraction(2, 4)


def test_convex_horizon_mismatch():
    with pytest.raises(ValueError, match="horizon"):
        convex_from_error(ErrorTerm([0, 1]), 5)


@pytest.mark.parametrize(
    "family,params",
    [
        ("floor_sqrt", None),
        ("linear_over_log", None),
        ("linear", {"c": 2}),
        ("constant", {"c": 5}),
    ],
)
def test_convex_passes_convexity_and_scan(family, params):
    f = builtin_error_term(family, 300, params)
    a = convex_from_error(f, 300)
    assert check_convexity(a) == []
    assert scan_violations(a, f).ok


# --- the digits of a convex prefix in decimal ---------------------------------------

BUILTIN_FAMILIES = [
    ("zero", None),
    ("constant", {"c": 3}),
    ("floor_sqrt", None),
    ("floor_power", {"c": Fraction(3, 2), "delta": Fraction(1, 3)}),
    ("linear_over_log", None),
    ("linear", {"c": Fraction(1, 2)}),
]


def _texts_match_values(prefix):
    """The writers' texts of ``prefix`` are those of a prefix that holds
    its values, which they format one by one."""
    held = SequencePrefix(prefix.values)
    assert sequence_to_json(prefix) == sequence_to_json(held)
    assert sequence_to_csv(prefix) == sequence_to_csv(held)


@pytest.mark.parametrize("family, params", BUILTIN_FAMILIES)
@pytest.mark.parametrize("horizon", [1, 2, 3, 60, 500])
def test_convex_texts_from_decimal_digits_match_values(family, params, horizon):
    f = builtin_error_term(family, horizon, params)
    a = convex_from_error(f, horizon)
    assert a._builders[4] is not None
    _texts_match_values(a)


# non-negative, non-decreasing tables: f(1) and each rise a rational with a
# denominator up to 10**40, zero often
error_rises = st.lists(
    st.tuples(st.integers(0, 10**6) | st.just(0), st.integers(1, 10**40)),
    min_size=1, max_size=30,
)


@given(error_rises)
@example([(1, 10**40 - 1), (0, 1), (1, 10**39 + 3), (5, 7)])  # f(1) > 0
@example([(0, 1), (1, 2**127 - 1), (1, 2**89 - 1), (1, 2**61 - 1)])  # coprime
@settings(max_examples=80, deadline=None)
def test_convex_texts_of_rational_error_terms_match_values(rises):
    values, total = [], Fraction(0)
    for p, q in rises:
        total += Fraction(p, q)
        values.append(total)
    f = ErrorTerm(values)
    _texts_match_values(convex_from_error(f, f.horizon))


def test_convex_writers_format_no_value(monkeypatch):
    def refuse(value):
        raise AssertionError("format_rational called")

    f = builtin_error_term("floor_sqrt", 300)
    held = SequencePrefix(convex_from_error(f, 300).values)
    want = sequence_to_json(held), sequence_to_csv(held)
    a = convex_from_error(f, 300)
    monkeypatch.setattr(model, "format_rational", refuse)
    assert (sequence_to_json(a), sequence_to_csv(a)) == want
    assert a._values is None and a._grid is None  # neither is built to write


def test_convex_writers_leave_the_decimal_context_as_it_was():
    context = decimal.getcontext()
    before = context.prec, context.rounding, dict(context.traps), dict(context.flags)
    sequence_to_json(convex_from_error(builtin_error_term("floor_sqrt", 200), 200))
    assert decimal.getcontext() is context
    assert (context.prec, context.rounding, dict(context.traps), dict(context.flags)) == before


@pytest.mark.parametrize("limit, fits", [(641, False), (642, True), (700, True)])
def test_convex_writers_check_the_digit_limit_as_str_does(limit, fits):
    # at H = 743 the longest part of a floor_sqrt value has 642 digits
    a = convex_from_error(builtin_error_term("floor_sqrt", 743), 743)
    held = SequencePrefix(a.values)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for pieces in (model._sequence_json_pieces, model._sequence_csv_pieces):
            if fits:
                assert "".join(pieces(a)) == "".join(pieces(held))
            else:
                with pytest.raises(ValueError, match="limit") as want:
                    pieces(held)
                with pytest.raises(ValueError) as got:
                    pieces(a)
                assert str(got.value) == str(want.value)
    finally:
        sys.set_int_max_str_digits(saved)


# --- enumeration of the rationals --------------------------------------------------

def test_enumeration_first_terms():
    got = [enumerate_rationals(i) for i in range(1, 8)]
    assert got == [0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2]


def test_enumeration_rejects_zero_index():
    with pytest.raises(ValueError):
        enumerate_rationals(0)


def test_enumeration_distinct_prefix():
    seen = {enumerate_rationals(i) for i in range(1, 10_001)}
    assert len(seen) == 10_000


def _breadth_first_positive_rationals(count):
    """Queue-based oracle for the positive-rational order."""
    from collections import deque

    queue = deque([(1, 1)])
    out = []
    while len(out) < count:
        p, q = queue.popleft()
        out.append(Fraction(p, q))
        queue.append((p, p + q))
        queue.append((p + q, q))
    return out


def test_enumeration_matches_breadth_first_oracle():
    oracle = _breadth_first_positive_rationals(1000)
    for j, expected in enumerate(oracle, start=1):
        assert enumerate_rationals(2 * j) == expected
        assert enumerate_rationals(2 * j + 1) == -expected


def test_enumeration_matches_successor_formula():
    # next(x) = 1 / (2 floor(x) + 1 - x) walks the positive order
    x = Fraction(1)
    for j in range(1, 5000):
        assert enumerate_rationals(2 * j) == x
        x = 1 / (2 * (x.numerator // x.denominator) + 1 - x)
    assert 1 / (2 * 0 + 1 - Fraction(1, 2)) == 2  # the worked instance


# --- simplest rational in an interval ----------------------------------------------

def test_simplest_examples():
    assert simplest_rational_in(0, 1) == Fraction(1, 2)
    assert simplest_rational_in(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)
    assert simplest_rational_in(0, 1, [Fraction(1, 2)]) == Fraction(1, 3)


def test_simplest_negative_and_integer_cases():
    assert simplest_rational_in(-5, 3) == -4  # smallest integer wins the tie
    assert simplest_rational_in(Fraction(-2, 3), Fraction(-1, 3)) == Fraction(-1, 2)
    assert simplest_rational_in(7, 8) == Fraction(15, 2)


def test_simplest_requires_nonempty_interval():
    with pytest.raises(ValueError):
        simplest_rational_in(1, 1)


def test_simplest_arguments_are_exact_rationals():
    with pytest.raises(TypeError):
        simplest_rational_in(0.5, 1)
    with pytest.raises(TypeError):
        simplest_rational_in(0, 1.0)
    with pytest.raises(TypeError):
        simplest_rational_in(0, 1, [0.5])
    assert simplest_rational_in("1/3", "1/2") == Fraction(2, 5)
    assert simplest_rational_in(0, 1, ["1/2"]) == Fraction(1, 3)


def _simplest_oracle(lo, hi, forbidden=frozenset(), max_den=64):
    for q in range(1, max_den + 1):
        p = lo.numerator * q // lo.denominator  # scan numerators from floor(lo*q)
        candidates = []
        while Fraction(p, q) < hi:
            x = Fraction(p, q)
            if lo < x and x.denominator == q and x not in forbidden:
                candidates.append(x)
            p += 1
        if candidates:
            return min(candidates, key=lambda x: x.numerator)
    return None


bounded_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=24)


@given(bounded_rationals, bounded_rationals)
@settings(max_examples=250, deadline=None)
def test_simplest_matches_oracle(x, y):
    if x == y:
        return
    lo, hi = min(x, y), max(x, y)
    got = simplest_rational_in(lo, hi)
    assert lo < got < hi
    assert got == _simplest_oracle(lo, hi)


def _stern_brocot_simplest(lo, hi):
    """The first Stern-Brocot node in (lo, hi), after shifting both ends
    by the integer floor(lo): from the mediant of 0/1 and 1/0, one mediant
    per step towards the interval."""
    shift = lo.numerator // lo.denominator
    lo, hi = lo - shift, hi - shift
    left, right = (0, 1), (1, 0)
    while True:
        node = Fraction(left[0] + right[0], left[1] + right[1])
        if node <= lo:
            left = node.numerator, node.denominator
        elif node >= hi:
            right = node.numerator, node.denominator
        else:
            return node + shift


small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@given(small_rationals, small_rationals, st.integers(1, 400))
@settings(max_examples=400, deadline=None)
@example(Fraction(-5), Fraction(3), 1)
@example(Fraction(-2, 3), Fraction(-1, 3), 300)
def test_integer_continued_fraction_matches_stern_brocot(x, y, k):
    narrow = x, x + Fraction(1, k)
    for lo, hi in ((min(x, y), max(x, y)), narrow):
        if lo < hi:
            assert _simplest_in(lo, hi) == _stern_brocot_simplest(lo, hi)


@given(bounded_rationals, bounded_rationals, st.sets(bounded_rationals, max_size=6))
@settings(max_examples=150, deadline=None)
def test_simplest_avoids_forbidden(x, y, forbidden):
    if x == y:
        return
    lo, hi = min(x, y), max(x, y)
    got = simplest_rational_in(lo, hi, forbidden)
    assert lo < got < hi
    assert got not in forbidden


# --- rational slope construction ----------------------------------------------------

def test_slope_construction_rejects_zero_error_term():
    with pytest.raises(ValueError, match="identically zero"):
        rational_slope_sequence(zero_error_term(100), 3, 100)


def test_slope_construction_linear_family_covers_seven():
    f = builtin_error_term("linear", 500, {"c": 1})
    out = rational_slope_sequence(f, 7, 500)
    horizon = out.b.horizon
    assert horizon <= 500
    # (i) the emitted prefix stays f-subadditive
    assert scan_violations(out.b, f).ok
    # (ii) slopes pairwise distinct: the registry has one entry per index
    assert len(out.slopes) == horizon
    assert sorted(out.slopes.values()) == list(range(1, horizon + 1))
    # (iii) the first seven enumerated rationals are covered by their witnesses
    for i in range(1, 8):
        witness = out.coverage[i]
        assert out.b.slope(witness) == enumerate_rationals(i)
    # shift monotone, and b = a - c n exactly
    assert all(x <= y for x, y in zip(out.c, out.c[1:]))
    for n in range(1, horizon + 1):
        assert out.b.value(n) == out.a.value(n) - out.c[n - 1] * n


def test_slope_construction_covers_zero_first():
    f = builtin_error_term("linear_over_log", 3000)
    out = rational_slope_sequence(f, 1, 3000)
    witness = out.coverage[1]
    assert out.b.slope(witness) == 0


def test_slope_construction_exhausts_on_slow_growth():
    # after pinning slope 0, the next target needs a source slope above
    # a(12)/12 + 1 ~ 1.68, but the source only reaches ~1.44 by 3000
    f = builtin_error_term("linear_over_log", 3000)
    with pytest.raises(HorizonExhausted):
        rational_slope_sequence(f, 2, 3000)


def test_slope_construction_rejects_window_beyond_error_term():
    f = builtin_error_term("linear", 50, {"c": 1})
    with pytest.raises(ValueError, match="window"):
        rational_slope_sequence(f, 2, 100)


def test_slope_construction_json_fields():
    f = builtin_error_term("linear", 200, {"c": 1})
    out = rational_slope_sequence(f, 3, 200)
    payload = out.to_json_dict()
    assert set(payload) == {"b", "c", "coverage", "enumeration"}
    assert payload["enumeration"] == "calkin-wilf-signed"
    assert payload["coverage"]["1"] == out.coverage[1]
    assert len(payload["c"]) == out.b.horizon


def _walk_outcome(walk, f, K, h_max):
    """Everything the walk returns, or the message it is exhausted with."""
    try:
        out = walk(f, K, h_max)
    except HorizonExhausted as exc:
        return "exhausted", str(exc)
    return out.b, out.c, out.slopes, out.coverage, out.a


_linear_slopes = st.integers(1, 16).flatmap(
    lambda q: st.builds(Fraction, st.integers(q, q + q // 2), st.just(q))
)


@given(
    st.one_of(
        st.builds(lambda c: ("linear", {"c": c}), _linear_slopes),
        st.just(("floor_sqrt", {})),
    ),
    st.integers(1, 8),
    st.integers(20, 300),
)
@example(("floor_sqrt", {}), 5, 60)  # exhausted at rational #2
@example(("linear", {"c": Fraction(1)}), 8, 300)  # exhausted after a long walk
@example(("linear", {"c": Fraction(3, 2)}), 7, 300)
@settings(max_examples=50, deadline=None)
def test_slope_walk_matches_set_based_reference(family, K, h_max):
    f = builtin_error_term(family[0], h_max, family[1])
    assert _walk_outcome(rational_slope_sequence, f, K, h_max) == _walk_outcome(
        reference_rational_slope_sequence, f, K, h_max
    )


def test_slope_walk_hashes_linearly_many_fractions(monkeypatch):
    # the walk tests each candidate shift by one registry lookup; a return
    # to building the set of banned shifts at every index hashes O(H^2)
    # Fractions (55,307 here, against 473)
    f = builtin_error_term("linear", 500, {"c": 1})
    calls = 0
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        nonlocal calls
        calls += 1
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    rational_slope_sequence(f, 7, 500)
    assert 0 < calls < 2 * 500


# --- threshold gap example -----------------------------------------------------------

def test_threshold_gap_frozen_values():
    a = threshold_gap_example(3, (5, 20), 19)
    assert a.value(17) == 1 and a.value(18) == 1
    assert a.value(19) == Fraction(19, 5)
    assert all(a.value(n) == 1 for n in range(1, 6))
    assert a.value(6) == Fraction(6, 5)


def test_threshold_gap_full_scan_violation_below_threshold():
    a = threshold_gap_example(3, (5, 20), 19)
    assert a.value(19) - a.value(1) - a.value(18) == Fraction(9, 5)
    report = scan_violations(a)
    assert (1, 18) in {(v.n, v.m) for v in report.violations}
    assert all(min(v.n, v.m) < 3 for v in report.violations)
    assert scan_violations(a, None, ThresholdDomain(3)).ok


def test_threshold_gap_validation():
    with pytest.raises(ValueError):
        threshold_gap_example(1, (5, 20))
    with pytest.raises(ValueError):
        threshold_gap_example(3, (5,))
    with pytest.raises(ValueError):
        threshold_gap_example(3, (2, 20))
    with pytest.raises(ValueError):
        threshold_gap_example(3, (5, 9))  # gap must exceed N + 1
    with pytest.raises(ValueError):
        threshold_gap_example(3, (20, 5))
    with pytest.raises(ValueError):
        threshold_gap_example(3, (5, 20), 25)  # beyond last anchor - 1


# --- linear error example -------------------------------------------------------------

def test_linear_error_example_values_and_scan():
    f = builtin_error_term("linear", 20, {"c": 1})
    a = linear_error_example(f, 1, 20)
    # greedy anchors from the smallest qualifying index, gaps of 2
    anchors = [n for n in range(1, 21) if a.value(n) != 0]
    assert anchors == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]
    for n in anchors:
        assert a.value(n) == f.value(n)
        assert a.slope(n) > Fraction(1, 2)
    assert scan_violations(a, f).ok


def test_linear_error_example_bound_is_exact():
    f = builtin_error_term("linear", 20, {"c": 1})
    with pytest.raises(TypeError):
        linear_error_example(f, 1.0, 20)
    expected = linear_error_example(f, 1, 20)
    assert linear_error_example(f, Fraction(1), 20) == expected
    assert linear_error_example(f, "1", 20) == expected


def test_linear_error_example_needs_anchors():
    with pytest.raises(ValueError, match="anchors"):
        linear_error_example(zero_error_term(30), 1, 30)
    f = builtin_error_term("floor_sqrt", 30)  # f(n)/n <= 1/2 fails eventually
    with pytest.raises(ValueError, match="anchors"):
        linear_error_example(f, 4, 30)


# --- two-good chains --------------------------------------------------------------------

def test_two_good_chain_single_merge():
    chain = two_good_chain(6, 3)
    assert chain.chain == ((3, 3), (6,))
    assert chain.merge_trace == ((3, 3, 6),)
    assert chain.beta == 3


def test_two_good_chain_worked_examples():
    chain = two_good_chain(10, 3)
    assert chain.beta == 4
    assert chain.chain == ((3, 3, 4), (4, 6), (10,))
    chain = two_good_chain(14, 4)
    assert chain.beta == 6
    assert chain.chain == ((4, 4, 6), (6, 8), (14,))


def test_two_good_chain_validation():
    with pytest.raises(ValueError):
        two_good_chain(5, 3)
    with pytest.raises(ValueError):
        two_good_chain(4, 0)


@pytest.mark.parametrize("n", [2, 17, 100, 333, 1000])
def test_two_good_chain_properties_sampled(n):
    for k in sorted({1, 2, 3, n // 4, n // 2}):
        if k < 1 or n < 2 * k:
            continue
        chain = two_good_chain(n, k)
        assert chain.k == k and chain.n == n
        assert k <= chain.beta <= 2 * k - 1
        parts = n // k
        assert chain.chain[0] == tuple(sorted([k] * (parts - 1) + [chain.beta]))
        for multiset in chain.chain:
            assert sum(multiset) == n
            assert multiset[-1] <= 2 * multiset[0]
        for (x, y, merged), before, after in zip(
            chain.merge_trace, chain.chain, chain.chain[1:]
        ):
            assert merged == x + y
            assert x == before[0] and y == before[1]  # two minimal members
            assert sorted(after) == sorted(list(before[2:]) + [merged])


def test_two_good_chain_telescoping_bound():
    # empty mu-band scan => sums along the chain are non-increasing,
    # giving a(n) <= (parts - 1) a(k) + a(beta)
    a = tabulate(lambda n: 5 * n + 3, 60)
    assert scan_violations(a).ok
    for n in (12, 37, 60):
        for k in (1, 3, n // 2):
            chain = two_good_chain(n, k)
            sums = [sum(a.value(x) for x in ms) for ms in chain.chain]
            assert all(later <= earlier for earlier, later in zip(sums, sums[1:]))
            parts = n // k
            assert a.value(n) <= (parts - 1) * a.value(k) + a.value(chain.beta)
