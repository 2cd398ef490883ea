"""Prefixes read by ``parse_sequence``, on their integer grid, against the
same prefixes built from ``Fraction``s: values, scan reports, brackets,
deficits, convexity defects and JSON text must all be equal, and equal
to Fraction references.  Convex prefixes, whose grid comes from
``ErrorTerm._weights``, are held to the same prefixes built from their
values, and each of their representations is built only when used.  The
fixed-point image of a prefix bounds its exact values, and a clean convex
prefix is certified on it without its grid."""

from __future__ import annotations

import itertools
import json
import math
import pickle
import random
import sys
import tracemalloc
import unicodedata
from fractions import Fraction
from unittest import mock

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fekete import (
    ErrorTerm,
    ExplicitDomain,
    FullDomain,
    MuBandDomain,
    OnePlusDomain,
    SequencePrefix,
    ThresholdDomain,
    builtin_error_term,
    check_convexity,
    check_q_monotone,
    convex_from_error,
    fekete_bracket,
    format_rational,
    g_deficit,
    parse_error_term,
    parse_sequence,
    q_sequence,
    scan_violations,
    sequence_to_json,
    smoothed,
    zero_error_term,
)
from fekete import checker, model

from conftest import brute_force_scan, reference_q, weight_grid

# A few slopes to draw from, so that a(k)/k often ties across k.
_SLOPE_POOL = (Fraction(-1, 3), Fraction(0), Fraction(1, 2), Fraction(2))


@st.composite
def written_rational(draw, value: Fraction):
    """One token for ``value``: a bare JSON int, or p/q written unreduced,
    with an optional '+' and leading zeros."""
    if value.denominator == 1 and draw(st.booleans()):
        return int(value)
    k = draw(st.integers(1, 4))
    p, q = value.numerator * k, value.denominator * k
    sign = "-" if p < 0 else draw(st.sampled_from(["", "+"]))
    num = sign + "0" * draw(st.integers(0, 2)) + str(abs(p))
    if q == 1 and draw(st.booleans()):
        return num
    return f"{num}/{q}"


@st.composite
def written_prefixes(draw):
    """(values, JSON text, CSV text) of one random rational prefix."""
    horizon = draw(st.integers(1, 20))
    values = []
    for n in range(1, horizon + 1):
        if draw(st.booleans()):
            values.append(draw(st.sampled_from(_SLOPE_POOL)) * n)
        else:
            values.append(Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 12))))
    tokens = [draw(written_rational(v)) for v in values]
    json_text = json.dumps({"values": tokens, "offset": 1})
    rows = [f"{n},{t}" for n, t in enumerate(tokens, start=1)]
    csv_text = "\n".join(draw(st.permutations(rows))) + "\n"
    return values, json_text, csv_text


def _error_terms(horizon: int, increments: list[int]):
    """None, an integer f, and a rational f whose denominators (primes
    above every drawn denominator) never divide the prefix's grid."""
    rational, total = [], Fraction(0)
    for n in range(horizon):
        total += Fraction(increments[n % len(increments)], (127, 131)[n % 2])
        rational.append(total)
    return (None, builtin_error_term("floor_sqrt", horizon), ErrorTerm(rational))


def _domains(horizon: int):
    pairs = [(n, m) for n in range(1, horizon) for m in range(n, horizon - n + 1) if (n * m) % 3]
    return (FullDomain(), ThresholdDomain(2), MuBandDomain(Fraction(3, 2), 1),
            OnePlusDomain(1), ExplicitDomain(pairs))


def reference_bracket(a: SequencePrefix, N: int):
    """min_slope, argmin and the samples' (k, bound), from Fraction slopes."""
    slopes = [v / k for k, v in enumerate(a.values, start=1)]
    horizon, half = a.horizon, a.horizon // 2
    argmin = min(range(N, horizon + 1), key=lambda k: slopes[k - 1])
    candidates = {N, argmin}
    if half >= N:
        candidates.add(min(range(N, half + 1), key=lambda k: slopes[k - 1]))
    samples = []
    for k in sorted(c for c in candidates if c <= half):
        window = max((abs(a.values[j - 1]) for j in range(k + 1, 2 * k)), default=0)
        samples.append((k, slopes[k - 1] + Fraction(window) / horizon))
    return slopes[argmin - 1], argmin, samples


@given(written_prefixes(), st.lists(st.integers(0, 3), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_parsed_grid_matches_fraction_prefix(written, increments):
    values, json_text, csv_text = written
    reference = SequencePrefix(values)
    horizon = reference.horizon
    error_terms = _error_terms(horizon, increments)
    for text in (json_text, csv_text):
        parsed = parse_sequence(text)
        assert parsed.horizon == horizon
        assert [parsed.value(n) for n in range(horizon + 1)] == [Fraction(0), *values]
        grid = parsed.grid
        for f in error_terms:
            for domain in _domains(horizon):
                report = scan_violations(parsed, f, domain)
                assert report == scan_violations(reference, f, domain)
                assert report == brute_force_scan(reference, f, domain)
        assert parsed.grid == grid  # scaling onto f worked on a copy
        for N in range(1, horizon + 1):
            bracket = fekete_bracket(parsed, N)
            assert bracket == fekete_bracket(reference, N)
            min_slope, argmin, samples = reference_bracket(reference, N)
            assert (bracket.min_slope, bracket.argmin_k) == (min_slope, argmin)
            assert [(s.k, s.bound) for s in bracket.eq8_samples] == samples
        for f in error_terms:
            for n in range(1, horizon // 2 + 1):
                for m in range(n, horizon - n + 1):
                    assert g_deficit(parsed, f, n, m) == g_deficit(reference, f, n, m)
        assert parsed.values == reference.values
        assert parsed == reference and hash(parsed) == hash(reference)


@given(written_prefixes())
@settings(max_examples=150, deadline=None)
def test_parsed_convexity_and_json_match_fraction_forms(written):
    values, json_text, csv_text = written
    payload = {"values": [format_rational(v) for v in values], "offset": 1}
    want_json = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    want_defects = [
        n for n in range(2, len(values)) if values[n - 2] + values[n] - 2 * values[n - 1] < 0
    ]
    assert sequence_to_json(SequencePrefix(values)) == want_json
    for text in (json_text, csv_text):
        parsed = parse_sequence(text)
        if len(values) >= 3:
            assert check_convexity(parsed) == want_defects
            assert parsed._values is None  # decided on the grid, nothing reduced
        assert sequence_to_json(parsed) == want_json


@st.composite
def error_terms(draw):
    """(f, H): an error term of horizon H or a little more, with leading
    zeros or with f(1) > 0, and non-integer rational steps."""
    horizon = draw(st.integers(1, 24))
    leading = draw(st.integers(0, horizon))
    values = [Fraction(0)] * leading
    total = Fraction(0)
    for _ in range(horizon + draw(st.integers(0, 4)) - leading):
        low = 0 if values and values[-1] else 1  # the first non-zero step
        total += Fraction(draw(st.integers(low, 5)), draw(st.integers(1, 9)))
        values.append(total)
    return ErrorTerm(values), horizon


@given(error_terms(), st.lists(st.integers(0, 3), min_size=1, max_size=5))
@example((ErrorTerm([Fraction(1, 7), Fraction(1), Fraction(1)]), 3), [1])  # 7 only in f(1)
@example((ErrorTerm([0, 0, 0, Fraction(2, 3), Fraction(5, 6), 1, 1]), 7), [0, 2])
@example((ErrorTerm([0] * 9), 9), [1])
@example((ErrorTerm([0, Fraction(1, 2), Fraction(5, 7)]), 2), [1])  # 7 only in f(H + 1)
@settings(max_examples=150, deadline=None)
def test_convex_grid_matches_prefix_of_its_values(drawn, increments):
    f, horizon = drawn
    a = convex_from_error(f, horizon)
    built = SequencePrefix(convex_from_error(f, horizon).values)
    for err in (None, f, *_error_terms(horizon, increments)[1:]):
        for domain in _domains(horizon):
            assert scan_violations(a, err, domain) == scan_violations(built, err, domain)
    for N in range(1, horizon + 1):
        assert fekete_bracket(a, N) == fekete_bracket(built, N)
    for N in range(1, (horizon - 2) // 2 + 1):
        assert check_q_monotone(a, N) == check_q_monotone(built, N)
    if horizon >= 3:
        assert check_convexity(a) == check_convexity(built)
    for err in (None, f):
        for n in range(1, horizon // 2 + 1):
            for m in range(n, horizon - n + 1):
                assert g_deficit(a, err, n, m) == g_deficit(built, err, n, m)
    assert a._values is None  # every consumer above worked on the grid
    assert a.grid[0] == weight_grid(ErrorTerm(f.values[:horizon]))[0]
    for n_lo in range(1, horizon // 2 + 1):  # reports values: reduces them
        assert q_sequence(a, n_lo) == q_sequence(built, n_lo)
    assert a == built and hash(a) == hash(built)


def test_convex_grid_of_a_longer_error_term_stops_at_the_horizon():
    f = builtin_error_term("floor_sqrt", 400)
    short = builtin_error_term("floor_sqrt", 50)
    assert convex_from_error(f, 50).grid == convex_from_error(short, 50).grid
    assert convex_from_error(f, 50).grid[0] == weight_grid(short)[0] < weight_grid(f)[0]


def test_convex_grid_of_a_longer_error_term_reduces_none_of_its_values():
    # the cut is one pass over f's integer grid, with no Fraction built
    f = builtin_error_term("floor_sqrt", 50)
    denom, _ = convex_from_error(f, 40).grid
    assert f._values is None
    assert denom == weight_grid(ErrorTerm(f.values[:40]))[0]


def test_prefixes_of_horizon_one_build_every_representation():
    # W(0) = -f(1) reads f(1), so a one-value g still cuts f at f(1)
    f = ErrorTerm([Fraction(2, 3)])
    cases = ((lambda: smoothed(SequencePrefix([5]), f), Fraction(7)),  # 5 + 3 * 2/3
             (lambda: smoothed(parse_sequence("1,5\n"), f), Fraction(7)),
             (lambda: convex_from_error(f, 1), Fraction(0)))  # 1 * W(1)
    for make, want in cases:
        denom, table = make().grid
        assert table[0] == 0 and [Fraction(x, denom) for x in table[1:]] == [want]
        assert make().values == (want,)
        lo, hi = make()._fixed_point()
        assert lo[0] == hi[0] == 0 and lo[1] <= want * _SCALE <= hi[1]


def _raise(*args, **kwargs):
    raise AssertionError("built although unused")


def test_writing_a_convex_prefix_builds_no_grid(monkeypatch):
    f = builtin_error_term("floor_sqrt", 60)
    want = sequence_to_json(SequencePrefix(convex_from_error(f, 60).values))
    fresh = builtin_error_term("floor_sqrt", 60)
    monkeypatch.setattr(model.ErrorTerm, "_weights", _raise)
    monkeypatch.setattr(model, "_integer_grid", _raise)
    a = convex_from_error(fresh, 60)
    assert sequence_to_json(a) == want
    assert a._grid is None


def test_scanning_a_convex_prefix_reduces_no_value(monkeypatch):
    f = builtin_error_term("floor_sqrt", 60)
    built = SequencePrefix(convex_from_error(f, 60).values)
    want = [scan_violations(built, None, d) for d in _domains(60)]
    monkeypatch.setattr(model.ErrorTerm, "weight_sums", _raise)
    a = convex_from_error(f, 60)
    assert [scan_violations(a, None, d) for d in _domains(60)] == want
    assert scan_violations(a, f).ok
    assert a._values is None
    with pytest.raises(AssertionError, match="unused"):
        a.values


def test_convex_parsed_and_error_term_prefixes_pickle():
    f = builtin_error_term("floor_sqrt", 30)
    for prefix in (convex_from_error(f, 30), parse_sequence("1,1/2\n2,4/6\n"), f):
        copy = pickle.loads(pickle.dumps(prefix))
        assert type(copy) is type(prefix) and copy == prefix


_SCALE = 1 << model._IMAGE_BITS


@st.composite
def imaged_prefixes(draw):
    """(a, f, source): a prefix of each source its image is built from,
    with f the error term of a convex or smoothed prefix and None
    otherwise, and source the prefix smoothed, else None: ``Fraction``
    values, unreduced parsed pairs (negative values and integers among
    them), convex prefixes of integer and rational error terms, with
    leading zeros and longer than the horizon, and the smoothing of a
    parsed or a convex prefix, with f longer or shorter than it."""
    kind = draw(st.sampled_from(
        ("values", "parsed", "convex", "convex-int", "smoothed-parsed", "smoothed-convex")
    ))
    if kind == "smoothed-convex":
        f, horizon = draw(error_terms())
        source = convex_from_error(f, horizon)
        return smoothed(source, f), f, source
    if kind.startswith("convex"):
        f, horizon = draw(error_terms())
        if kind == "convex-int":
            f = ErrorTerm._from_ints([v.numerator // v.denominator for v in f.values])
        return convex_from_error(f, horizon), f, None
    values = draw(st.lists(
        st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**6)),
        min_size=1, max_size=24,
    ))
    if kind == "values":
        return SequencePrefix(values), None, None
    k = draw(st.integers(1, 7))
    tokens = [f"{v.numerator * k}/{v.denominator * k}" for v in values]
    parsed = parse_sequence(json.dumps({"values": tokens}))
    if kind == "smoothed-parsed":
        f, _ = draw(error_terms())
        return smoothed(parsed, f), f, parsed
    return parsed, None, None


def _smoothed_text(text, f):
    source = parse_sequence(text)
    return smoothed(source, f), f, source


@given(imaged_prefixes())
@example((convex_from_error(model.zero_error_term(9), 9), model.zero_error_term(9), None))
@example((parse_sequence("1,-3/2\n2,4/2\n3,-7\n"), None, None))
@example(_smoothed_text("1,1\n2,-5/3\n3,7\n", ErrorTerm([Fraction(1, 3)] * 3)))
@settings(max_examples=200, deadline=None)
def test_image_bounds_the_prefix(drawn):
    a, f, source = drawn
    lo, hi = a._fixed_point()
    assert a._grid is None and len(lo) == len(hi) == a.horizon + 1 and lo[0] == hi[0] == 0
    exact = [a.value(n) * _SCALE for n in range(1, a.horizon + 1)]
    assert all(lo[n] <= x <= hi[n] for n, x in enumerate(exact, start=1))
    if source is not None:  # g(k) = a(k) - 3k W(k-1): a's ends, 3k E[k] further apart
        lo_a, hi_a = source._fixed_point()
        misses = f.weight_bounds[1]
        width = [hi_a[n] - lo_a[n] + 3 * n * misses[n] for n in range(1, a.horizon + 1)]
        assert [hi[n] - lo[n] for n in range(1, a.horizon + 1)] == width
        tight = [not w for w in width]
    elif f is None:  # one quotient per value: its floor and ceiling
        tight = [x.denominator == 1 for x in exact]
    else:  # equal bounds up to the first inexact floor of 2**K f(x) / x^2, 1 < x
        floors = [(v * _SCALE / (x * x)).denominator == 1
                  for x, v in enumerate(f.values[: a.horizon], start=1)]
        tight = [all(floors[1:n]) for n in range(1, a.horizon + 1)]
    assert [lo[n] == hi[n] for n in range(1, a.horizon + 1)] == tight
    assert a._fixed_point() is a._image  # built once and kept


@given(error_terms())
@example((model.zero_error_term(12), 12))
@settings(max_examples=150, deadline=None)
def test_weight_bounds_bracket_the_weight_sums(drawn):
    f, _ = drawn
    for term in (f, ErrorTerm._from_ints([v.numerator // v.denominator for v in f.values])):
        lows, misses = term.weight_bounds
        sums = [w * _SCALE for w in term.weight_sums()]
        assert len(lows) == len(misses) == term.horizon + 2 and lows[0] == misses[0] == 0
        for k, w in enumerate(sums, start=1):  # W(k - 1) sits at index k
            assert lows[k] <= w <= lows[k] + misses[k]
        # E counts the inexact floors of 2**K f(x) / x^2 for 1 < x < k
        inexact = [(v * _SCALE / (x * x)).denominator != 1
                   for x, v in enumerate(term.values, start=1)]
        assert misses[2:] == [sum(inexact[1:x]) for x in range(1, term.horizon + 1)]
        if not any(term.values):
            assert not any(misses) and not any(lows)


_NONZERO_FAMILIES = [
    ("constant", {"c": 3}),
    ("floor_sqrt", {}),
    ("floor_power", {"c": 2, "delta": Fraction(1, 2)}),
    ("linear_over_log", {}),
    ("linear", {"c": Fraction(1, 2)}),
]


@pytest.mark.parametrize("family, params", _NONZERO_FAMILIES)
def test_clean_convex_scans_build_no_grid(monkeypatch, family, params):
    f = builtin_error_term(family, 300, params)
    monkeypatch.setattr(model.ErrorTerm, "_weights", _raise)
    monkeypatch.setattr(model, "_integer_grid", _raise)
    monkeypatch.setattr(checker, "_scaled_tables", _raise)
    a = convex_from_error(f, 300)
    full = scan_violations(a, f, FullDomain())
    band = scan_violations(a, f, MuBandDomain(Fraction(3, 2), 1))
    assert full.ok and full.pairs_checked == 150 * 150
    assert band.ok and band.pairs_checked == sum(
        s // 2 - -(-2 * s // 5) + 1 for s in range(2, 301) if -(-2 * s // 5) <= s // 2
    )
    assert a._grid is None and a._certified == (f, ())


@pytest.mark.parametrize("family, params", _NONZERO_FAMILIES[:4])  # linear,1/2 breaks at (1, 1)
def test_clean_band_scans_of_the_smoothed_prefix_build_no_grid(monkeypatch, family, params):
    # G's band check on a fresh parsed and a fresh convex prefix decides on
    # the image of g alone, with the report of a Fraction-built twin
    f = builtin_error_term(family, 300, params)
    text = sequence_to_json(convex_from_error(f, 300))
    domain = MuBandDomain(2, 1)
    want = scan_violations(smoothed(SequencePrefix(convex_from_error(f, 300).values), f), None, domain)
    assert want.ok and want.pairs_checked == sum(min(n, 300 - 2 * n) + 1 for n in range(1, 151))
    monkeypatch.setattr(model.ErrorTerm, "_weights", _raise)
    monkeypatch.setattr(model, "_integer_grid", _raise)
    monkeypatch.setattr(checker, "_scaled_tables", _raise)
    fresh = builtin_error_term(family, 300, params)
    for a in (parse_sequence(text), convex_from_error(fresh, 300)):
        g = smoothed(a, fresh)
        assert scan_violations(g, None, domain) == want
        assert a._grid is None and g._grid is None


_TINY = Fraction(1, 2**70)


@pytest.mark.parametrize("bump", [0, 1, -1])
def test_smoothed_prefix_decides_margins_below_its_image_on_the_grid(bump):
    # f = 1/3 past f(1) makes every floor of 2**K f(x) / x^2 inexact, so
    # g's image is at least 3k E[k] = 3k (k - 2) wide.  g(k) = 7k/4,
    # bumped by 2**-70 at k = 17: each pair ties, or breaks or clears by
    # far less than that, and slopes differ by less, so the grid decides
    f = ErrorTerm([0] + [Fraction(1, 3)] * 29)
    weights = list(f.weight_sums())
    target = [Fraction(7, 4) * k + bump * _TINY * (k == 17) for k in range(1, 31)]
    values = [v + 3 * k * weights[k - 1] for k, v in enumerate(target, start=1)]
    text = "".join(f"{k},{2 * v.numerator}/{2 * v.denominator}\n" for k, v in enumerate(values, 1))
    twin = SequencePrefix(target)
    for make in (lambda: SequencePrefix(values), lambda: parse_sequence(text)):
        g = smoothed(make(), f)
        assert g._fixed_point() is not None
        for N in (1, 2, 9, 17, 18):
            assert fekete_bracket(g, N) == fekete_bracket(twin, N)
        g = smoothed(make(), f)
        for domain in (FullDomain(), MuBandDomain(2, 1), ThresholdDomain(3)):
            assert scan_violations(g, None, domain) == brute_force_scan(twin, None, domain)
        assert g._grid is not None
        assert g.values == twin.values


def test_parsed_prefix_builds_its_grid_on_first_use(monkeypatch):
    built = []
    real = model._integer_grid

    def counting(pairs):
        built.append(len(pairs))
        return real(pairs)

    monkeypatch.setattr(model, "_integer_grid", counting)
    a = parse_sequence("1,1/2\n2,4/6\n3,3\n")
    assert built == [] and a._grid is None
    assert a.grid == (6, (0, 3, 4, 18)) and built == [3]
    assert a.grid is a.grid and built == [3]


# --- parsed text: the image from leading digits --------------------------------

# zeros of other Unicode decimal scripts, which int() and the parser accept
_OTHER_ZEROS = ("٠", "०", "０")


@st.composite
def literals(draw):
    """(token, value, q): one value as ``parse_sequence`` reads it, with p and
    q of 0 to 80 digits, so that each side of the image's cut, and a
    numerator far longer or far shorter than the denominator, come up;
    with signs, '+', leading zeros, bare integers, JSON ints and other
    Unicode digits."""
    p = draw(st.integers(0, 80).flatmap(lambda d: st.integers(0, 10**d)))
    q = draw(st.integers(0, 80).flatmap(lambda d: st.integers(1, 10**d + 1)))
    sign = draw(st.sampled_from(["", "+", "-"]))
    value = Fraction(-p if sign == "-" else p, q)
    if q == 1 and draw(st.booleans()):
        return int(value), value, q
    num = "0" * draw(st.integers(0, 3)) + str(p)
    den = str(q)
    zero = draw(st.sampled_from(("0", *_OTHER_ZEROS)))
    if zero != "0":  # write the digits in another script
        digits = {ord("0") + i: chr(ord(zero) + i) for i in range(10)}
        num, den = num.translate(digits), den[0] + den[1:].translate(digits)
    token = sign + num if q == 1 and draw(st.booleans()) else f"{sign}{num}/{den}"
    return token, value, q


@given(literals())
@example(("-0/7", Fraction(0), 7))
@example(("000/1", Fraction(0), 1))
@example((f"{10**40}/{10**40}", Fraction(1), 10**40))
@example((f"{10**60 + 1}/{10**59 + 3}", Fraction(10**60 + 1, 10**59 + 3), 10**59 + 3))
@example((f"-{10**70 - 1}/{10**23 + 9}", -Fraction(10**70 - 1, 10**23 + 9), 10**23 + 9))
@example((f"+7/{10**79 + 1}", Fraction(7, 10**79 + 1), 10**79 + 1))
@example((f"{2**300}/{3**180}", Fraction(2**300, 3**180), 3**180))
@example((f"{10**45}/1", Fraction(10**45), 1))
@settings(max_examples=500, deadline=None)
def test_text_image_bounds_each_literal(drawn):
    token, value, q = drawn
    literal = model._literal(token)
    # a held literal is an int or packed, and gives back p and q as written
    assert type(literal) in (int, model._Packed)
    assert model._literal_pair(literal) == (value * q, q)
    lo, hi = model._text_image([literal])
    assert lo[0] == hi[0] == 0
    assert lo[1] <= value * _SCALE <= hi[1] and hi[1] - lo[1] <= 2
    # p and q as written, leading zeros dropped
    long_p, long_q = len(str(abs(value * q)).lstrip("0")), len(str(q))
    cut = max(0, long_p - long_q) + 22
    if not long_p or q == 1 or max(long_p, long_q) <= cut:
        # read in full: one quotient, exact when it is an integer
        assert (lo[1] == hi[1]) == ((value * _SCALE).denominator == 1)
    else:
        assert lo[1] < hi[1]


def _ascii_text(token) -> str:
    """The text of a token in ASCII digits, stripped, signs and zeros as
    written."""
    return "".join(str(unicodedata.digit(c)) if c.isdecimal() else c for c in str(token).strip())


def _image_of_text(text: str) -> tuple[list[int], list[int]]:
    """The image ``_text_image`` defines, read from the ASCII text of one
    literal: for p/q, the floor and ceiling of the bounds that the first
    max(0, Lp - Lq) + 22 digits of |p| and q give, and for an integer or
    a zero, of the value itself."""
    negative, body = text[0] == "-", text.lstrip("+-")
    num, slash, den = body.partition("/")
    digits, q = num.lstrip("0"), int(den or 1)
    if not slash or not digits:
        value = Fraction(int(num), q) * _SCALE
        low, high = math.floor(value), math.ceil(value)
    else:
        cut = max(0, len(digits) - len(den)) + 22
        drop_p, drop_q = max(0, len(digits) - cut), max(0, len(den) - cut)
        top_p, top_q = int(digits[:len(digits) - drop_p]), int(den[:len(den) - drop_q])
        scale = Fraction(10**drop_p, 10**drop_q) * _SCALE
        low = math.floor(scale * Fraction(top_p, top_q + (drop_q > 0)))
        high = math.ceil(scale * Fraction(top_p + (drop_p > 0), top_q))
    if negative:
        low, high = -high, -low
    return [0, low], [0, high]


@given(literals())
@example(("0" * 30 + "123/7", Fraction(123, 7), 7))  # zeros past the leading bytes read
@example(("-" + "0" * 41 + "5/3", Fraction(-5, 3), 3))
@example(("0" * 30 + "1" * 40 + "/" + "3" * 40, Fraction(int("1" * 40), int("3" * 40)),
          int("3" * 40)))
@example(("-12/5", Fraction(-12, 5), 5))  # an odd count of digits and signs
@example(("-12/56", Fraction(-12, 56), 56))
@example(("12/345", Fraction(12, 345), 345))
@example(("+0", Fraction(0), 1))
@example(("-7/1", Fraction(-7), 1))
@example((f"-{'9' * 45}/{'1' * 3}", Fraction(-int("9" * 45), 111), 111))
@settings(max_examples=500, deadline=None)
def test_packed_literal_reads_as_its_text(drawn):
    # p, q and the image of a packed literal are those of its text
    token, _, _ = drawn
    literal = model._literal(token)
    text = _ascii_text(token)
    num, _, den = text.partition("/")
    assert model._literal_pair(literal) == (int(num), int(den or 1))
    assert model._text_image([literal]) == _image_of_text(text)
    assert model._literal(literal) is literal  # held as it is


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_packed_literal_keeps_the_digit_limit():
    # the zero that pads an odd count is not a digit of the literal: a part
    # of exactly the limit converts, one digit more raises int()'s error,
    # whether the literal is read alone or packed by the JSON reader
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for text in ("-" + "1" * 640, "+" + "1" * 640, "1" * 640 + "/3", "-1/" + "7" * 640):
            num, _, den = text.partition("/")
            assert model._literal_pair(model._literal(text)) == (int(num), int(den or 1))
            assert parse_sequence(json.dumps({"values": [text]}))._exact(1) == [
                (int(num), int(den or 1))]
        for text in ("-" + "1" * 641, "1" * 641 + "/3", "1/" + "7" * 641):
            with pytest.raises(ValueError, match="Exceeds the limit"):
                model._literal(text)
            with pytest.raises(ValueError, match="Exceeds the limit"):
                parse_sequence(json.dumps({"values": ["1", text]}))
    finally:
        sys.set_int_max_str_digits(previous)


@st.composite
def text_prefixes(draw):
    """(values, JSON text): prefixes whose literals run past the image's
    cut, unreduced; with slopes that tie exactly (a(k) = c*k) and values
    that agree with c*k far past the cut, so that only exact values tell
    the candidates apart."""
    horizon = draw(st.integers(1, 16))
    c = Fraction(draw(st.integers(-(10**40), 10**40)), draw(st.integers(1, 10**40)))
    tiny = Fraction(1, 10 ** draw(st.integers(25, 60)))
    values = []
    for k in range(1, horizon + 1):
        kind = draw(st.sampled_from(("tie", "near", "free")))
        if kind == "tie":
            values.append(c * k)
        elif kind == "near":
            values.append(c * k + draw(st.integers(-2, 2)) * tiny)
        else:
            values.append(Fraction(draw(st.integers(-(10**30), 10**30)),
                                   draw(st.integers(1, 10**30))))
    scale = draw(st.integers(1, 10**5))
    tokens = [int(v) if v.denominator == 1 and draw(st.booleans())
              else f"{v.numerator * scale}/{v.denominator * scale}" for v in values]
    return values, json.dumps({"values": tokens})


# A long slope, and values within 10**-40 of c * k: the image of each
# value is about 10**-19 wide, so only exact values tell these apart.
_C, _TINY = Fraction(10**30 + 7, 10**29 + 1), Fraction(1, 10**40)
_BUMPED = [_C * k + k * k * _TINY + (3 * _TINY if k == 5 else 0) for k in range(1, 10)]


@given(text_prefixes(), st.lists(st.integers(0, 3), min_size=1, max_size=5))
@example(([_C * k for k in range(1, 9)],
          json.dumps({"values": [f"{(10**30 + 7) * k}/{10**29 + 1}" for k in range(1, 9)]})),
         [1])
@example(([_C * k for k in range(1, 9)],  # tied slopes, each written over its own denominator
          json.dumps({"values": [f"{(10**30 + 7) * k * (k + 1)}/{(10**29 + 1) * (k + 1)}"
                                 for k in range(1, 9)]})),
         [1])
@example((_BUMPED,  # slopes rising by 10**-40, one negative second difference
          json.dumps({"values": [f"{v.numerator}/{v.denominator}" for v in _BUMPED]})),
         [1])
@settings(max_examples=120, deadline=None)
def test_text_prefix_decides_as_its_values(drawn, increments):
    # every decision starts from freshly read text, as the CLI's does
    values, text = drawn
    reference = SequencePrefix(values)
    horizon = reference.horizon
    for f in _error_terms(horizon, increments):
        for domain in _domains(horizon):
            want = brute_force_scan(reference, f, domain)
            assert scan_violations(parse_sequence(text), f, domain) == want
    for N in range(1, horizon + 1):
        parsed = parse_sequence(text)
        with _conversions() as converting:
            bracket = fekete_bracket(parsed, N)
        assert parsed._grid is None and not converting.called  # from the text alone
        assert bracket == fekete_bracket(reference, N)
        min_slope, argmin, samples = reference_bracket(reference, N)
        assert (bracket.min_slope, bracket.argmin_k) == (min_slope, argmin)
        assert [(s.k, s.bound) for s in bracket.eq8_samples] == samples
    parsed = parse_sequence(text)
    with _conversions() as converting:
        got = _slopes_and_convexity(parsed)
    assert parsed._grid is None and not converting.called
    assert got == _slopes_and_convexity(reference) == _reference_slopes_and_convexity(values)


def _slopes_and_convexity(a):
    """The window maxima and their rises from every start, and the
    convexity defects (None below three values), of ``a``."""
    half = a.horizon // 2
    return ([q_sequence(a, n).values for n in range(1, half + 1)],
            [check_q_monotone(a, N) for N in range(1, half)],
            check_convexity(a) if a.horizon >= 3 else None)


def _reference_slopes_and_convexity(values):
    """``_slopes_and_convexity`` of the prefix of ``values``, in Fractions
    from the definitions."""
    half = len(values) // 2
    qs = [tuple(reference_q(SequencePrefix(values), n)) for n in range(1, half + 1)]
    rises = [[N + i for i, (x, y) in enumerate(zip(q, q[1:])) if x < y]
             for N, q in zip(range(1, half), qs)]
    convex = [n for n in range(2, len(values)) if values[n - 2] + values[n] < 2 * values[n - 1]]
    return qs, rises, convex if len(values) >= 3 else None


def test_wide_denominator_file_is_decided_without_a_grid(monkeypatch):
    # 300 values p/q with random 600-bit odd p and q: the grid's D, the lcm
    # of the q, would have about 180 kbit, so slopes, window maxima,
    # convexity and the bracket are decided on the image and the literals
    rng = random.Random(300)
    pairs = [(rng.choice((1, -1)) * (rng.getrandbits(600) | 1), rng.getrandbits(600) | 1)
             for _ in range(300)]
    values = [Fraction(p, q) for p, q in pairs]
    a = parse_sequence(json.dumps({"values": [f"{p}/{q}" for p, q in pairs]}))
    monkeypatch.setattr(model, "_integer_grid", _raise)
    q = reference_q(SequencePrefix(values), 1)
    assert list(q_sequence(a, 1).values) == q
    assert check_q_monotone(a, 1) == [n for n, (x, y) in enumerate(zip(q, q[1:]), 1) if x < y]
    assert check_convexity(a) == [n for n in range(2, 300) if values[n - 2] + values[n] < 2 * values[n - 1]]
    bracket = fekete_bracket(a, 1)
    min_slope, argmin, samples = reference_bracket(SequencePrefix(values), 1)
    assert (bracket.min_slope, bracket.argmin_k) == (min_slope, argmin)
    assert [(s.k, s.bound) for s in bracket.eq8_samples] == samples
    assert a._grid is None


def _conversions():
    """A patch that counts the conversions of a parsed text to pairs."""
    return mock.patch.object(model, "_literal_pairs", wraps=model._literal_pairs)


def test_text_is_converted_once_on_first_exact_use():
    a = parse_sequence('{"values": ["1/2", "4/6", 3]}')
    with _conversions() as converting:
        assert a._exact(2, 3) == [(4, 6), (3, 1)]
        assert a.value(2) == Fraction(2, 3) and not converting.called
        assert a.grid == (6, (0, 3, 4, 18)) and a.values == (Fraction(1, 2), Fraction(2, 3), 3)
    converting.assert_called_once_with([model._literal(t) for t in ("1/2", "4/6", 3)])
    assert a._exact(1, 2, 3) == [(1, 2), (4, 6), (3, 1)]



def _read(prefix, accessor):
    """What ``accessor`` gives of ``prefix``, for every index it takes."""
    indices = range(1, prefix.horizon + 1)
    if accessor == "values":
        return prefix.values
    if accessor == "grid":
        return prefix.grid
    if accessor == "image":
        return prefix._fixed_point()
    if accessor == "exact":
        return prefix._exact(*indices)
    return [prefix.value(n) for n in range(prefix.horizon + 1)]


@given(written_prefixes(), st.lists(st.integers(0, 3), min_size=1, max_size=5))
@example(([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)],
          json.dumps({"values": ["2/4", "4/6", "+06/8"]}), "1,2/4\n3,6/8\n2,04/6\n"), [1])
@settings(max_examples=40, deadline=None)
def test_accessor_order_does_not_matter(written, increments):
    # every prefix kind gives the same rationals whatever accessor it is
    # first asked through, and its image, when it has one, brackets them
    values, json_text, csv_text = written
    horizon = len(values)
    ints = list(itertools.accumulate(increments[n % len(increments)] for n in range(horizon)))
    f = ErrorTerm._from_ints(ints)
    weights = [-Fraction(ints[0]), Fraction(0)]  # W(0), W(1), ..., W(H)
    for x in range(2, horizon + 1):
        weights.append(weights[-1] + Fraction(ints[x - 1], x * x))
    kinds = {
        "fractions": (lambda: SequencePrefix(values), values),
        "json": (lambda: parse_sequence(json_text), values),
        "csv": (lambda: parse_sequence(csv_text), values),
        "integer term": (lambda: ErrorTerm._from_ints(ints), [Fraction(x) for x in ints]),
        "convex": (lambda: convex_from_error(f, horizon),
                   [n * weights[n] for n in range(1, horizon + 1)]),
    }
    smoothed_values = [v - 3 * k * weights[k - 1] for k, v in enumerate(values, start=1)]
    for name, text in (("json", json_text), ("csv", csv_text)):  # with an exact builder
        kinds[f"smoothed {name}"] = (lambda text=text: smoothed(parse_sequence(text), f),
                                     smoothed_values)
    kinds["smoothed fractions"] = (lambda: smoothed(SequencePrefix(values), f), smoothed_values)
    for name, (make, want) in kinds.items():
        pairs = None
        for order in itertools.permutations(("values", "grid", "image", "exact", "value")):
            prefix = make()
            got = {accessor: _read(prefix, accessor) for accessor in order}
            assert list(got["values"]) == want, (name, order)
            denom, table = got["grid"]
            assert table[0] == 0 and [Fraction(x, denom) for x in table[1:]] == want, (name, order)
            assert got["value"] == [0, *want], (name, order)
            assert [Fraction(p, q) for p, q in got["exact"]] == want, (name, order)
            assert pairs in (None, got["exact"]), (name, order)  # the same pairs, as written
            assert prefix._exact(*range(horizon, 0, -1)) == got["exact"][::-1], (name, order)
            pairs = got["exact"]
            if got["image"] is not None:
                lo, hi = got["image"]
                assert len(lo) == len(hi) == horizon + 1 and lo[0] == hi[0] == 0
                assert all(lo[n] <= v * _SCALE <= hi[n] for n, v in enumerate(want, start=1)), (
                    name, order)

@given(written_prefixes(), st.lists(st.integers(0, 3), min_size=1, max_size=5),
       st.sampled_from(("text", "pairs", "grid")))
@example(([Fraction(-7, 2), Fraction(5), Fraction(1, 3)],
          json.dumps({"values": ["-014/4", 5, "+2/6"]}), "1,-7/2\n2,05\n3,1/3\n"), [1], "text")
@settings(max_examples=120, deadline=None)
def test_g_deficit_of_a_parsed_prefix_in_each_state(written, increments, state):
    # holding its text, its pairs or its grid, a parsed prefix gives the
    # deficits of the prefix built from Fractions and of the finite form
    # summed term by term; from text or pairs it builds no grid
    values, json_text, csv_text = written
    reference = SequencePrefix(values)
    horizon = reference.horizon
    none, family, rational = _error_terms(horizon, increments)
    rational_file = "".join(  # unreduced, read back as a file is
        f"{x},{3 * v.numerator}/{3 * v.denominator}\n" for x, v in enumerate(rational.values, 1)
    )
    error_terms = (none, zero_error_term(horizon), family, parse_error_term(rational_file))

    def finite_form(f, n, m):
        s = n + m
        plain = reference.value(s) - reference.value(n) - reference.value(m)
        if f is None:
            return plain
        tail_n = sum((f.value(x) / (x * x) for x in range(n, s)), Fraction(0))
        tail_m = sum((f.value(x) / (x * x) for x in range(m, s)), Fraction(0))
        return plain - 3 * n * tail_n - 3 * m * tail_m

    pairs = [(n, m) for n in range(1, horizon // 2 + 1) for m in range(n, horizon - n + 1)]
    for f in error_terms:
        want = {(n, m): finite_form(f, n, m) for n, m in pairs}
        assert {(n, m): g_deficit(reference, f, n, m) for n, m in pairs} == want
        for text in (json_text, csv_text):
            parsed = parse_sequence(text)
            with _conversions() as converting:
                if state == "pairs":
                    parsed.values  # converts the text and builds no grid
                elif state == "grid":
                    parsed.grid
                for _ in range(2):  # the second pass reuses the smoothed prefix
                    assert {(n, m): g_deficit(parsed, f, n, m) for n, m in pairs} == want
            held = {"text": converting.call_count == 0, "pairs": converting.call_count == 1,
                    "grid": parsed._grid is not None}
            assert held[state]
            if state != "grid":
                assert parsed._grid is None and smoothed(parsed, f)._grid is None


@given(written_prefixes(), st.lists(st.integers(0, 3), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_bracket_of_the_smoothing_of_a_parsed_prefix_builds_no_grid(written, increments):
    # g's image narrows the candidates and g's exact builder decides them,
    # from literals: neither grid is built, and the bracket is the twin's
    values, json_text, csv_text = written
    horizon = len(values)
    for f in _error_terms(horizon, increments)[1:]:
        twin = smoothed(SequencePrefix(values), f)
        want = [fekete_bracket(twin, N) for N in range(1, horizon + 1)]
        min_slope, argmin, samples = reference_bracket(twin, 1)
        assert (want[0].min_slope, want[0].argmin_k) == (min_slope, argmin)
        assert [(s.k, s.bound) for s in want[0].eq8_samples] == samples
        for text in (json_text, csv_text):
            parsed = parse_sequence(text)
            g = smoothed(parsed, f)
            with _conversions() as converting:
                assert [fekete_bracket(g, N) for N in range(1, horizon + 1)] == want
            assert parsed._grid is None and g._grid is None and not converting.called


def _weight_passes():
    """A patch that records the ``top`` of each ``ErrorTerm._weights`` pass."""
    return mock.patch.object(ErrorTerm, "_weights", autospec=True, side_effect=ErrorTerm._weights)


def test_g_deficit_makes_one_weight_pass_per_call_or_one_per_sweep():
    # on a parsed prefix each call cuts f once at n + m and builds no grid;
    # a convex or Fraction-built prefix gives g no exact builder, so the
    # sweep reads g's grid, built once (one pass, after the convex grid's)
    f = builtin_error_term("floor_sqrt", 60)
    values = convex_from_error(f, 60).values
    pairs = [(n, m) for n in range(1, 31) for m in range(n, 61 - n)]
    want = [g_deficit(SequencePrefix(values), f, n, m) for n, m in pairs]
    parsed = parse_sequence(sequence_to_json(SequencePrefix(values)))
    with _weight_passes() as passes, mock.patch.object(model, "_integer_grid", _raise):
        for (n, m), deficit in zip(pairs, want):
            assert g_deficit(parsed, f, n, m) == deficit
            assert passes.call_args.args[1] == n + m
    assert passes.call_count == len(pairs)
    assert parsed._grid is None and smoothed(parsed, f)._grid is None
    for make, builds in ((lambda: convex_from_error(f, 60), 2), (lambda: SequencePrefix(values), 1)):
        a = make()
        with _weight_passes() as passes:
            assert [g_deficit(a, f, n, m) for n, m in pairs] == want
        assert passes.call_count == builds


def test_q_sequence_of_the_smoothing_of_a_parsed_prefix_reads_its_maxima_at_once():
    # g's exact builder makes one pass over f per call: the window maxima
    # are found on g's image, with no grid, and read in one call, not one
    # per window
    f = builtin_error_term("floor_sqrt", 80)
    values = convex_from_error(f, 80).values
    want = q_sequence(smoothed(SequencePrefix(values), f), 1)
    g = smoothed(parse_sequence(sequence_to_json(SequencePrefix(values))), f)
    with _weight_passes() as passes:
        assert q_sequence(g, 1) == want
    assert passes.call_count == 1 and g._grid is None


def test_clean_scan_of_a_large_file_holds_its_text_only():
    # The H=4000 floor_sqrt convex file: 13.8 MB of JSON.  Read as ints it
    # held 6.9 MB and peaked at 20.6 MB (the decoded strings and the ints
    # at once); kept as the decoded strings it held a little over the
    # file's size.  Packed two digits a byte it holds about 0.54 times the
    # file (the literals, one bytes header per value and the image) and
    # peaks a little above that.
    f = builtin_error_term("floor_sqrt", 4000)
    text = sequence_to_json(convex_from_error(f, 4000))
    size = len(text)
    with _conversions() as converting:
        tracemalloc.start()
        try:
            a = parse_sequence(text)
            report = scan_violations(a, f, MuBandDomain(Fraction(3, 2), 1))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert report.ok and a._grid is None and not converting.called, "the clean scan built the grid"
    assert held <= 0.6 * size and peak <= 0.65 * size, (held, peak, size)
