"""Scalar parsing, builtin error-term families, pair domains, serialization."""

from __future__ import annotations

import math
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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

from fekete import model
from fekete.model import _integer_grid, parse_ascii_int

from conftest import reference_admits, weight_grid

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


# --- rationals ---------------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)
    assert parse_rational(12) == Fraction(12)


# the bytes of a packed literal (b"\x12" is "12") and the hex digits it
# writes "/" and "-" with are no literal
@pytest.mark.parametrize("bad", ["1.5", "3/0", "a/b", "", "1/-2", "2e3", None,
                                 b"12", b"\x12", bytearray(b"12"), "12f5", "e12", "12 34", "-/5"])
def test_parse_rational_rejects(bad):
    with pytest.raises((ValueError, TypeError)):
        parse_rational(bad)


# The grammar of a literal over ASCII digits: the reference for the check
# that ``model._pack`` makes on the packed bytes.
_LITERAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")

# Digits, the marks of a literal, the other hex digits (which
# ``bytes.fromhex`` takes) and the spaces it skips.
_NEAR_LITERAL = "0123456789/+-aAbBcCdDeEfF \t\n\r\x0b\x0c"


@st.composite
def near_literals(draw):
    """Literals with one character changed, added or dropped, and short
    texts over the characters that come close to one."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=_NEAR_LITERAL, max_size=9))
    text = draw(st.from_regex(_LITERAL_RE, fullmatch=True))
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(_NEAR_LITERAL))
    edit = draw(st.sampled_from(["keep", "replace", "insert", "drop"]))
    if edit == "replace":
        return text[:at] + char + text[at + 1:]
    if edit == "insert":
        return text[:at] + char + text[at:]
    return text[:at] + text[at + 1:] if edit == "drop" else text


@given(near_literals())
@example("12f5")  # "/" is packed as the hex digit f
@example("-e1")  # and a "-" as e
@example("1/a")
@example("a/1")
@example("12  34")  # spaces between two bytes, which fromhex skips
@example("12 34")
@example("-/5")
@example("1/0")
@example("0/1")
@example("-0")
@settings(max_examples=1000, deadline=None)
def test_literal_accepts_exactly_the_literal_grammar(text):
    # the packed bytes are checked, not the text: they take what the
    # grammar takes, and give its p and q
    match = _LITERAL_RE.fullmatch(text.strip())
    if match is None:
        with pytest.raises(ValueError, match="^malformed rational"):
            model._literal(text)
    else:
        literal = model._literal(text)
        assert model._literal_pair(literal) == (int(match[1]), int(match[2] or 1))


def test_parse_ascii_int():
    assert parse_ascii_int("0") == 0
    assert parse_ascii_int(" 0042 ") == 42
    assert parse_ascii_int("9" * 30) == int("9" * 30)


@pytest.mark.parametrize("bad", ["1_0", "+2", "-1", "\u0663", "\uff11", "", " ", "1.0", "0x1", "1 1"])
def test_parse_ascii_int_rejects(bad):
    with pytest.raises(ValueError, match="^malformed anchor: .* \\(need ASCII digits\\)$"):
        parse_ascii_int(bad, "anchor")


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
    for make in (ErrorTerm, ErrorTerm._from_ints):  # the integer tables check the same
        with pytest.raises(ValueError, match="^error term must be non-negative$"):
            make([-1, 0, 1])
        with pytest.raises(ValueError, match="^error term must be non-decreasing, drops at index 3$"):
            make([0, 2, 1])
        with pytest.raises(ValueError, match="^empty sequence$"):
            make([])
    with pytest.raises(ValueError, match="drops at index 2"):
        parse_error_term('{"values": ["1/2", "1/3"]}')
    for text in ('{"values": ["-1", "0"]}', "1,-1\n2,0\n"):
        with pytest.raises(ValueError, match="^error term must be non-negative$"):
            parse_error_term(text)
    for text in ('{"values": ["0", "2", "1/1"]}', "1,0\n3,1\n2,2\n"):
        with pytest.raises(ValueError, match="^error term must be non-decreasing, drops at index 3$"):
            parse_error_term(text)
    with pytest.raises(TypeError):
        ErrorTerm([True, 2])
    mixed = ErrorTerm([0, Fraction(1, 2), 1, "3/2"])
    assert mixed.grid == (2, (0, 0, 1, 2, 3))
    assert mixed.values == (0, Fraction(1, 2), 1, Fraction(3, 2))


def test_error_term_is_a_validated_prefix():
    f = ErrorTerm(["1/3", 1, "3/2"])
    assert isinstance(f, SequencePrefix)
    assert f.value(0) == 0
    assert f.value(3) == Fraction(3, 2)
    with pytest.raises(IndexError):
        f.value(f.horizon + 1)
    assert f.grid == _integer_grid([(v.numerator, v.denominator) for v in f.values])
    assert f.grid == (6, (0, 2, 6, 9))
    assert repr(f) == "ErrorTerm(values=(Fraction(1, 3), Fraction(1, 1), Fraction(3, 2)))"
    with pytest.raises(TypeError):
        ErrorTerm([0, 1.0])


def test_error_term_equality_is_table_equality():
    want = ErrorTerm([0, Fraction(1, 2), Fraction(1, 2), 3])
    for text in (
        '{"values": ["0", "2/4", "1/2", "3"], "offset": 1}',
        "1,0\n3,1/2\n2,2/4\n4,03\n",
    ):
        f = parse_error_term(text)
        assert f == want and hash(f) == hash(want)
    sqrt = ErrorTerm([1, 1, 1, 2, 2])
    for f in (
        builtin_error_term("floor_sqrt", 5),
        parse_error_term('{"family": "floor_sqrt", "H": 5}'),
        parse_error_term('{"family": "floor_power", "params": {"c": 1, "delta": "1/2"}, "H": 5}'),
    ):
        assert f == sqrt and hash(f) == hash(sqrt)
    two = builtin_error_term("constant", 3, {"c": 2})
    assert two == builtin_error_term("constant", 3, {"c": "9/4"}) == ErrorTerm([2, 2, 2])
    assert hash(two) == hash(builtin_error_term("constant", 3, {"c": "9/4"}))
    assert zero_error_term(4) == builtin_error_term("zero", 4) == ErrorTerm([0] * 4)
    assert ErrorTerm([0, 1]) != ErrorTerm([0, 2])


@pytest.mark.parametrize(
    "family,params",
    [
        ("zero", None),
        ("constant", {"c": "9/4"}),
        ("floor_sqrt", None),
        ("floor_power", {"c": "3/2", "delta": "1/3"}),
        ("linear_over_log", None),
        ("linear", {"c": "17/16"}),
    ],
)
def test_integer_error_term_equals_fraction_built(family, params):
    f = builtin_error_term(family, 300, params)
    denom, table = f.grid
    assert denom == 1 and all(type(v) is int for v in table)
    ref = ErrorTerm([Fraction(v) for v in table[1:]])
    # the integer table is all the term holds until its values are asked for
    assert weight_grid(f) == weight_grid(ref) and f.grid == ref.grid
    assert [f.value(n) for n in range(301)] == [ref.value(n) for n in range(301)]
    assert f._values is None
    assert f == ref and hash(f) == hash(ref) and repr(f) == repr(ref)
    assert f.values == ref.values and all(type(v) is Fraction for v in f.values)
    for g in (builtin_error_term(family, 300, params), f):  # before and after values
        back = pickle.loads(pickle.dumps(g))
        assert type(back) is ErrorTerm and back == ref and hash(back) == hash(ref)
        assert back.grid == ref.grid and weight_grid(back) == weight_grid(ref)


def test_parse_error_term_integer_tables():
    # entries all written as integers (q == 1) give an integer table
    for text in ('{"values": ["0", "1", "1/1", 4]}', "1,0\n2,1\n3,1/1\n4,04\n"):
        f = parse_error_term(text)
        assert f.grid == (1, (0, 0, 1, 1, 4)) and f._values is None
        assert f == ErrorTerm([0, 1, 1, 4]) and weight_grid(f) == weight_grid(ErrorTerm([0, 1, 1, 4]))
    # a rational table keeps its reduced values, and so its weight grid
    text = '{"values": ["0", "2/4", "2/2", "9/2"]}'
    f = parse_error_term(text)
    ref = ErrorTerm([0, Fraction(1, 2), 1, Fraction(9, 2)])
    assert f.values == ref.values and weight_grid(f) == weight_grid(ref)


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
    # D_W = lcm(1*1, 1*4, 1*9); Wt[k] = 36 * W(k-1), at the index of a(k)
    assert weight_grid(f) == (36, (0, -72, 0, 27, 39))


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
    with pytest.raises(ValueError, match=re.escape("unknown error-term family: 'nope'")):
        builtin_error_term("nope", 5)
    out_of_range = "parameter out of range: c must be >= 0"
    for family, params in [
        ("constant", {"c": -1}),
        ("linear", {"c": Fraction(-1, 3)}),
        ("floor_power", {"c": -1, "delta": Fraction(1, 2)}),
        ("floor_power", {"c": -1, "delta": Fraction(3, 2)}),  # c is checked first
    ]:
        with pytest.raises(ValueError, match=re.escape(out_of_range)):
            builtin_error_term(family, 5, params)
    with pytest.raises(ValueError, match=re.escape("parameter out of range: delta must be in (0, 1]")):
        builtin_error_term("floor_power", 5, {"c": 1, "delta": Fraction(3, 2)})
    with pytest.raises(ValueError, match=re.escape("parameter out of range: delta must be in (0, 1]")):
        builtin_error_term("floor_power", 5, {"c": 1, "delta": 0})
    with pytest.raises(ValueError, match=re.escape("family 'constant' expects parameters ['c'], got []")):
        builtin_error_term("constant", 5)  # missing parameter
    for build in (lambda h: builtin_error_term("floor_sqrt", h), zero_error_term):
        with pytest.raises(ValueError, match="^horizon must be positive$"):
            build(0)


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
        for top in (0, 1, 2, 3, 7, horizon):
            expected = [
                (n, m)
                for n in range(1, top + 1)
                for m in range(n, top - n + 1)
                if reference_admits(domain, n, m)
            ]
            assert list(domain.pairs_upto(top)) == expected, (domain, top)


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


@pytest.mark.parametrize("index", ["0_1", "+1", "\u0661", "-1", "1.0", "0x1", "1 1", "\uff11"])
@pytest.mark.parametrize("parse", [parse_sequence, parse_error_term])
def test_csv_index_is_ascii_digits(parse, index):
    with pytest.raises(ValueError, match="malformed index"):
        parse(f"{index},5\n2,7")


def test_csv_index_padding_and_leading_zeros():
    assert parse_sequence(" 02 ,7\n 1,5").values == (5, 7)
    with pytest.raises(ValueError, match="positive"):
        parse_sequence("00,5")


def test_parse_sequence_unwraps_construction_output():
    text = '{"b": {"values": ["1", "2"], "offset": 1}, "c": ["0"], "coverage": {}}'
    assert parse_sequence(text).values == (1, 2)


@given(st.lists(rationals, min_size=1, max_size=30))
@settings(max_examples=60)
def test_round_trip_json_and_csv(values):
    a = SequencePrefix(values)
    assert parse_sequence(sequence_to_json(a)) == a
    assert parse_sequence(sequence_to_csv(a)) == a


@pytest.mark.parametrize("value, fits", [
    (Fraction(10**1000 - 1), True),  # 1000 digits, within two bits of 3322
    (Fraction(-(10**1000 - 1), 7), True),  # the sign is not a digit
    (Fraction(10**1000), False),
    (Fraction(1, 10**1000 + 1), False),
])
def test_serialisers_check_the_digit_limit_before_their_first_piece(value, fits):
    # a stream that would fail midway raises when it is made, so a writer
    # that takes its first piece before opening its output writes nothing
    a = SequencePrefix([1, value, 2])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        for pieces in (model._sequence_json_pieces, model._sequence_csv_pieces):
            if fits:
                assert "".join(pieces(a)) in (sequence_to_json(a), sequence_to_csv(a))
            else:
                with pytest.raises(ValueError, match="limit"):
                    pieces(a)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("parse", [parse_sequence, parse_error_term])
@pytest.mark.parametrize("offset", ["true", "1.0", "0", '"1"', "null", "2"])
def test_parse_rejects_offset_other_than_int_one(parse, offset):
    with pytest.raises(ValueError, match="offset"):
        parse(f'{{"values": ["1", "2"], "offset": {offset}}}')


@pytest.mark.parametrize("offset", ["true", "1.0", "0", '"1"', "null", "2"])
def test_family_descriptor_rejects_offset_other_than_int_one(offset):
    with pytest.raises(ValueError, match="offset"):
        parse_error_term(f'{{"family": "zero", "H": 3, "offset": {offset}}}')


def test_parse_error_term_forms():
    f = parse_error_term('{"family": "floor_sqrt", "H": 5}')
    assert f.values == (1, 1, 1, 2, 2)
    g = parse_error_term('{"family": "linear", "params": {"c": "3/2"}, "H": 3}')
    assert g.values == (1, 3, 4)
    h = parse_error_term('{"values": ["0", "1", "1"]}')
    assert h.values == (0, 1, 1)
    assert parse_error_term('{"values": ["0", "1", "1"], "offset": 1}') == h
    assert parse_error_term('{"family": "floor_sqrt", "H": 5, "offset": 1}') == f
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


@pytest.mark.parametrize("params", ["[1]", '"c"', "2", "null"])
def test_family_descriptor_params_must_be_an_object(params):
    with pytest.raises(ValueError, match="^'params' must be an object$"):
        parse_error_term(f'{{"family": "constant", "params": {params}, "H": 3}}')
