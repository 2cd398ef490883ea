"""Each input rule has one guard, and every public entry runs it at the
call itself: a wrong kind of argument raises there, not at first use."""

from __future__ import annotations

from fractions import Fraction

import pytest

from fekete import (
    IntervalDomain,
    QSequence,
    SequencePrefix,
    builtin_error_term,
    check_convexity,
    check_q_monotone,
    convex_from_error,
    fekete_bracket,
    linear_error_example,
    q_sequence,
    rational_slope_sequence,
    scan_violations,
)

A = SequencePrefix([1, 2, 3, 4, 5, 6])
F = builtin_error_term("linear", 5, {"c": 1})

# (id, the call, its error, a pattern of the guard's message)
WRONG_KIND = [
    ("muband-mu-negative", lambda: IntervalDomain("muband", 1, -1), ValueError, "mu must exceed 1"),
    ("muband-mu-one", lambda: IntervalDomain("muband", 1, 1), ValueError, "mu must exceed 1"),
    ("muband-mu-half", lambda: IntervalDomain("muband", 1, Fraction(1, 2)), ValueError,
     "mu must exceed 1"),
    ("slack-float", lambda: IntervalDomain("oneplus", 1, 1, 1.0), TypeError,
     "slack must be an int"),
    ("slack-bool", lambda: IntervalDomain("oneplus", 1, 1, True), TypeError,
     "slack must be an int"),
    ("convex-prefix-as-f", lambda: convex_from_error(SequencePrefix([1, 2, 3]), 3), TypeError,
     "f must be an ErrorTerm"),
    ("linear-error-prefix-as-f", lambda: linear_error_example(SequencePrefix([1, 2, 3]), 1, 3),
     TypeError, "f must be an ErrorTerm"),
    ("q-sequence-list", lambda: q_sequence([1, 2, 3, 4], 1), TypeError,
     "a must be a SequencePrefix"),
    ("q-monotone-list", lambda: check_q_monotone([1, 2, 3, 4], 1), TypeError,
     "a must be a SequencePrefix"),
    ("convexity-list", lambda: check_convexity([1, 2, 3, 4]), TypeError,
     "a must be a SequencePrefix"),
    ("bracket-list", lambda: fekete_bracket([1, 2, 3, 4], 1), TypeError,
     "a must be a SequencePrefix"),
    ("scan-domain-str", lambda: scan_violations(A, None, "full"), TypeError,
     "domain must be a PairDomain"),
    ("value-float", lambda: A.value(1.0), TypeError, "index must be an int"),
    ("value-bool", lambda: A.value(True), TypeError, "index must be an int"),
    ("slope-float", lambda: A.slope(2.0), TypeError, "index must be an int"),
    ("q-bool", lambda: QSequence(1, (Fraction(1), Fraction(2))).q(True), TypeError,
     "index must be an int"),
]


@pytest.mark.parametrize(
    "call, error, message", [case[1:] for case in WRONG_KIND], ids=[case[0] for case in WRONG_KIND]
)
def test_a_wrong_kind_of_argument_is_refused_by_its_guard(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: convex_from_error(F, 10), "horizon 10"),
        (lambda: linear_error_example(F, 1, 10), "horizon 10"),
        (lambda: rational_slope_sequence(F, 3, 10), "window 10"),
    ],
    ids=["convex", "linear-error", "rational-slopes"],
)
def test_a_window_past_the_error_term_has_one_message(call, what):
    with pytest.raises(ValueError, match=f"^{what} exceeds error-term horizon 5$"):
        call()
