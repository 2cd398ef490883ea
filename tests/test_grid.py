"""Prefixes read by ``parse_sequence`` onto the integer grid, against the
same prefixes built from ``Fraction``s: values, scan reports, brackets,
deficits, convexity defects and JSON text must all be equal, and equal
to Fraction references.  Convex prefixes, whose grid comes from
``ErrorTerm.weight_grid``, are held to the same prefixes built from their
values, and each of their two representations is built only when used."""

from __future__ import annotations

import json
import pickle
from fractions import Fraction

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
    parse_sequence,
    q_sequence,
    scan_violations,
    sequence_to_json,
)
from fekete import model

from conftest import brute_force_scan

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
    assert a.grid[0] == ErrorTerm(f.values[:horizon]).weight_grid[0]
    for n_lo in range(1, horizon // 2 + 1):  # reports values: reduces them
        assert q_sequence(a, n_lo) == q_sequence(built, n_lo)
    assert a == built and hash(a) == hash(built)


def test_convex_grid_of_a_longer_error_term_stops_at_the_horizon():
    f = builtin_error_term("floor_sqrt", 400)
    short = builtin_error_term("floor_sqrt", 50)
    assert convex_from_error(f, 50).grid == convex_from_error(short, 50).grid
    assert convex_from_error(f, 50).grid[0] == short.weight_grid[0] < f.weight_grid[0]


def _raise(*args, **kwargs):
    raise AssertionError("built although unused")


def test_writing_a_convex_prefix_builds_no_grid(monkeypatch):
    f = builtin_error_term("floor_sqrt", 60)
    want = sequence_to_json(SequencePrefix(convex_from_error(f, 60).values))
    fresh = builtin_error_term("floor_sqrt", 60)
    monkeypatch.setattr(model.ErrorTerm, "weight_grid", property(_raise))
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
