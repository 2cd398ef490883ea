"""Scalar parsing, builtin error-term families, pair domains, serialization."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fekete import (
    ErrorTerm,
    ExplicitDomain,
    FullDomain,
    IntervalDomain,
    MuBandDomain,
    OnePlusDomain,
    SequencePrefix,
    ThresholdDomain,
    builtin_error_term,
    format_rational,
    parse_error_term,
    parse_rational,
    parse_sequence,
    sequence_to_csv,
    sequence_to_json,
    zero_error_term,
)

from conftest import reference_admits

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


# --- rationals ---------------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)
    assert parse_rational(12) == Fraction(12)


@pytest.mark.parametrize("bad", ["1.5", "3/0", "a/b", "", "1/-2", "2e3", None])
def test_parse_rational_rejects(bad):
    with pytest.raises((ValueError, TypeError)):
        parse_rational(bad)


@given(rationals)
def test_rational_round_trip(x):
    y = parse_rational(format_rational(x))
    assert y == x
    assert y.denominator > 0
    assert math.gcd(abs(y.numerator), y.denominator) == 1


# --- sequence and error-term types -------------------------------------------

def test_sequence_prefix_basics():
    a = SequencePrefix(["1", "1/2", 2])
    assert a.horizon == 3
    assert a.value(0) == 0
    assert a.value(2) == Fraction(1, 2)
    assert a.slope(3) == Fraction(2, 3)
    with pytest.raises(IndexError):
        a.value(4)
    with pytest.raises(ValueError):
        SequencePrefix([])


def test_error_term_invariants():
    ErrorTerm([0, 0, 1, 1, 5])
    with pytest.raises(ValueError):
        ErrorTerm([-1, 0, 1])
    with pytest.raises(ValueError):
        ErrorTerm([0, 2, 1])


# --- builtin families ---------------------------------------------------------

def _lol_oracle(n: int) -> int:
    """Independent slow evaluation: largest t with (n+1)**t <= 2**n."""
    t = 0
    while (n + 1) ** (t + 1) <= 2 ** n:
        t += 1
    return t


def test_zero_family():
    assert zero_error_term(5).values == (0, 0, 0, 0, 0)
    assert builtin_error_term("zero", 3).values == (0, 0, 0)


def test_floor_sqrt_family():
    f = builtin_error_term("floor_sqrt", 5)
    assert f.values == (1, 1, 1, 2, 2)


def test_linear_over_log_small_values():
    f = builtin_error_term("linear_over_log", 4)
    assert f.values == tuple(_lol_oracle(n) for n in range(1, 5))
    assert f.values == (1, 1, 1, 1)


def test_linear_over_log_against_integer_oracle():
    f = builtin_error_term("linear_over_log", 300)
    for n in range(1, 301):
        assert f.value(n) == _lol_oracle(n), n


def test_weight_sums_anchored_at_one():
    f = ErrorTerm([2, 3, 3])
    expected = (-2, 0, Fraction(3, 4), Fraction(3, 4) + Fraction(1, 3))
    assert tuple(f.weight_sums()) == expected
    assert f.weights == expected
    assert f.weights is f.weights  # built once per instance


def test_linear_over_log_brackets_every_n():
    # t = floor(n/log2(n+1)) iff (n+1)**t <= 2**n < (n+1)**(t+1)
    f = builtin_error_term("linear_over_log", 5000)
    for n in range(1, 5001):
        t = f.value(n)
        cap = 1 << n
        assert (n + 1) ** t <= cap < (n + 1) ** (t + 1), n


def test_linear_over_log_against_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    f = builtin_error_term("linear_over_log", 9000)
    for n in range(1, 9001, 89):
        exact = mpmath.mpf(n) / mpmath.log(n + 1, 2)
        assert f.value(n) == int(mpmath.floor(exact)), n


def test_linear_family():
    f = builtin_error_term("linear", 6, {"c": Fraction(3, 2)})
    assert f.values == (1, 3, 4, 6, 7, 9)


def test_constant_family():
    f = builtin_error_term("constant", 4, {"c": 5})
    assert f.values == (5, 5, 5, 5)


def test_floor_power_family():
    f = builtin_error_term("floor_power", 9, {"c": 1, "delta": Fraction(1, 2)})
    assert f.values == tuple(math.isqrt(n) for n in range(1, 10))
    g = builtin_error_term("floor_power", 8, {"c": Fraction(3, 2), "delta": Fraction(1, 2)})
    for n in range(1, 9):
        t = g.value(n)
        assert (2 * t) ** 2 <= 9 * n < (2 * (t + 1)) ** 2  # t = floor(3 sqrt(n) / 2)


def test_family_errors():
    with pytest.raises(ValueError):
        builtin_error_term("nope", 5)
    with pytest.raises(ValueError):
        builtin_error_term("linear", 5, {"c": -1})
    with pytest.raises(ValueError):
        builtin_error_term("floor_power", 5, {"c": 1, "delta": Fraction(3, 2)})
    with pytest.raises(ValueError):
        builtin_error_term("constant", 5)  # missing parameter


@pytest.mark.parametrize(
    "family,params",
    [
        ("zero", None),
        ("constant", {"c": 5}),
        ("floor_sqrt", None),
        ("floor_power", {"c": 1, "delta": Fraction(1, 2)}),
        ("linear_over_log", None),
        ("linear", {"c": 2}),
    ],
)
def test_families_monotone_nonnegative_at_scale(family, params):
    # the ErrorTerm constructor enforces both invariants exhaustively
    f = builtin_error_term(family, 100_000, params)
    assert f.horizon == 100_000
    assert f.values[0] >= 0


# --- pair domains --------------------------------------------------------------

def test_admits_examples():
    assert MuBandDomain(Fraction(2), 1).admits(3, 5)
    assert not MuBandDomain(Fraction(3, 2), 1).admits(2, 4)
    assert OnePlusDomain(4).admits(4, 5)
    assert not OnePlusDomain(4).admits(4, 6)
    assert FullDomain().admits(1, 999)
    assert not ThresholdDomain(3).admits(2, 10)
    dom = ExplicitDomain([(5, 3), (7, 7)])
    assert dom.admits(3, 5) and dom.admits(5, 3) and dom.admits(7, 7)
    assert not dom.admits(3, 7)


@pytest.mark.parametrize(
    "domain",
    [
        FullDomain(),
        ThresholdDomain(7),
        MuBandDomain(Fraction(3, 2), 2),
        OnePlusDomain(3),
        ExplicitDomain([(2, 9), (40, 40), (1, 1000)]),
    ],
)
def test_admits_symmetric_exhaustive(domain):
    for n in range(1, 1001):
        for m in range(n, 1001):
            assert domain.admits(n, m) == domain.admits(m, n)


_CLOSED_FORM_DOMAINS = (
    FullDomain(),
    ThresholdDomain(1),
    ThresholdDomain(4),
    MuBandDomain(Fraction(5, 3), 2),
    MuBandDomain(Fraction(101, 100), 9),
    MuBandDomain(Fraction(2), 1),
    MuBandDomain(Fraction(7, 3), 13),
    OnePlusDomain(1),
    OnePlusDomain(2),
    OnePlusDomain(11),
    ExplicitDomain([(3, 5), (10, 40), (2, 2), (30, 31)]),
)


def test_pairs_upto_matches_admits():
    """``admits`` (both orders) and ``pairs_upto`` (by n, then m) agree
    with the closed-form definition of each variant."""
    horizon = 60
    for domain in _CLOSED_FORM_DOMAINS:
        for n in range(-1, horizon + 1):
            for m in range(-1, horizon + 1):
                want = reference_admits(domain, n, m)
                assert domain.admits(n, m) == want, (domain, n, m)
        expected = [
            (n, m)
            for n in range(1, horizon + 1)
            for m in range(n, horizon - n + 1)
            if reference_admits(domain, n, m)
        ]
        assert list(domain.pairs_upto(horizon)) == expected, domain


def test_sum_interval_matches_admits():
    """The per-sum interval holds exactly the smaller members n that the
    closed-form definition admits with s - n."""
    for domain in _CLOSED_FORM_DOMAINS:
        if not isinstance(domain, IntervalDomain):
            continue
        for s in range(2, 121):
            lo, hi = domain.sum_interval(s)
            assert hi == s // 2
            admitted = [n for n in range(1, s // 2 + 1) if reference_admits(domain, n, s - n)]
            assert admitted == list(range(lo, hi + 1)), (domain, s)


def test_domain_json_golden():
    assert FullDomain().to_json_dict() == {"variant": "full"}
    assert ThresholdDomain(1).to_json_dict() == {"variant": "threshold", "N": 1}
    assert ThresholdDomain(7).to_json_dict() == {"variant": "threshold", "N": 7}
    assert MuBandDomain(Fraction(3, 2), 2).to_json_dict() == {
        "variant": "muband", "mu": "3/2", "N": 2,
    }
    assert MuBandDomain("4/2", 1).to_json_dict() == {"variant": "muband", "mu": "2", "N": 1}
    assert OnePlusDomain(4).to_json_dict() == {"variant": "oneplus", "N": 4}
    assert ExplicitDomain([(5, 3), (1, 1)]).to_json_dict() == {
        "variant": "explicit", "pairs": [[1, 1], [3, 5]],
    }


def test_domain_validation():
    with pytest.raises(ValueError):
        MuBandDomain(Fraction(1), 1)
    with pytest.raises(ValueError):
        ThresholdDomain(0)
    with pytest.raises(ValueError):
        ExplicitDomain([(0, 3)])


@pytest.mark.parametrize(
    "fields",
    [
        ("full", 3),
        ("full", 1, Fraction(2)),
        ("threshold", 2, None, 1),
        ("muband", 2),
        ("muband", 2, Fraction(3, 2), 1),
        ("oneplus", 2),
        ("oneplus", 2, Fraction(2), 1),
        ("band", 1),
    ],
)
def test_interval_domain_variant_must_fit_bounds(fields):
    with pytest.raises(ValueError, match="does not fit"):
        IntervalDomain(*fields)


@pytest.mark.parametrize("mu", [1.5, 1.0, True])
def test_interval_domain_rejects_inexact_mu(mu):
    with pytest.raises(TypeError):
        IntervalDomain("muband", 1, mu)
    with pytest.raises(TypeError):
        IntervalDomain("oneplus", 1, mu, 1)


_THRESHOLD_DOMAINS = [
    ThresholdDomain,
    OnePlusDomain,
    lambda N: MuBandDomain(Fraction(3, 2), N),
    lambda N: IntervalDomain("threshold", N),
]


@pytest.mark.parametrize("make", _THRESHOLD_DOMAINS)
@pytest.mark.parametrize("N", [2.5, 1.0, True, False, "3", Fraction(3), None])
def test_domain_threshold_must_be_int(make, N):
    with pytest.raises(TypeError):
        make(N)


@pytest.mark.parametrize("make", _THRESHOLD_DOMAINS)
@pytest.mark.parametrize("N", [0, -1])
def test_domain_threshold_must_be_positive(make, N):
    with pytest.raises(ValueError):
        make(N)


@pytest.mark.parametrize(
    "pairs",
    [[1, 2], [(True, 2)], [(1, False)], [(1, 2, 3)], [(1,)], [(1.0, 2)], [("1", 2)], [None]],
)
def test_explicit_domain_rejects_malformed_pairs(pairs):
    with pytest.raises(ValueError):
        ExplicitDomain(pairs)


# --- serialization --------------------------------------------------------------

def test_parse_sequence_json():
    a = parse_sequence('{"values":["1","1/2","2"]}')
    assert a.values == (1, Fraction(1, 2), 2)
    assert parse_sequence('{"values":["3"],"offset":1}').values == (3,)


def test_parse_sequence_json_errors():
    with pytest.raises(ValueError):
        parse_sequence('{"values":[]}')
    with pytest.raises(ValueError):
        parse_sequence('{"values":["1"],"offset":0}')
    with pytest.raises(ValueError):
        parse_sequence('{"nope":1}')
    with pytest.raises(ValueError):
        parse_sequence('{"values":["1.5"]}')


def test_parse_sequence_csv():
    a = parse_sequence("1,1\n2,3/2")
    assert a.values == (1, Fraction(3, 2))


def test_parse_sequence_csv_errors():
    with pytest.raises(ValueError, match="duplicate"):
        parse_sequence("1,1\n1,2")
    with pytest.raises(ValueError, match="missing"):
        parse_sequence("1,1\n3,2")
    with pytest.raises(ValueError, match="malformed"):
        parse_sequence("x,1")
    with pytest.raises(ValueError):
        parse_sequence("")


def test_parse_sequence_unwraps_construction_output():
    text = '{"b": {"values": ["1", "2"], "offset": 1}, "c": ["0"], "coverage": {}}'
    assert parse_sequence(text).values == (1, 2)


@given(st.lists(rationals, min_size=1, max_size=30))
@settings(max_examples=60)
def test_round_trip_json_and_csv(values):
    a = SequencePrefix(values)
    assert parse_sequence(sequence_to_json(a)) == a
    assert parse_sequence(sequence_to_csv(a)) == a


@pytest.mark.parametrize("parse", [parse_sequence, parse_error_term])
@pytest.mark.parametrize("offset", ["true", "1.0", "0", '"1"', "null", "2"])
def test_parse_rejects_offset_other_than_int_one(parse, offset):
    with pytest.raises(ValueError, match="offset"):
        parse(f'{{"values": ["1", "2"], "offset": {offset}}}')


def test_parse_error_term_forms():
    f = parse_error_term('{"family": "floor_sqrt", "H": 5}')
    assert f.values == (1, 1, 1, 2, 2)
    g = parse_error_term('{"family": "linear", "params": {"c": "3/2"}, "H": 3}')
    assert g.values == (1, 3, 4)
    h = parse_error_term('{"values": ["0", "1", "1"]}')
    assert h.values == (0, 1, 1)
    assert parse_error_term('{"values": ["0", "1", "1"], "offset": 1}') == h
    k = parse_error_term("1,0\n2,2\n3,5/2")
    assert k.values == (0, 2, Fraction(5, 2))
    with pytest.raises(ValueError):
        parse_error_term('{"family": "floor_sqrt"}')


@pytest.mark.parametrize(
    "text",
    [
        '{"family": ["x"], "H": 5}',
        '{"family": {"name": "zero"}, "H": 5}',
        '{"family": null, "H": 5}',
        '{"family": "floor_sqrt", "H": true}',
        '{"family": "floor_sqrt", "H": 5.0}',
        '{"family": "floor_sqrt", "H": "5"}',
    ],
)
def test_parse_error_term_rejects_malformed_descriptor(text):
    with pytest.raises(ValueError):
        parse_error_term(text)
