"""Prefixes read by ``parse_sequence`` onto the integer grid, against the
same prefixes built from ``Fraction``s: values, scan reports, brackets,
deficits, convexity defects and JSON text must all be equal, and equal
to Fraction references."""

from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import given, settings
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
    fekete_bracket,
    format_rational,
    g_deficit,
    parse_sequence,
    scan_violations,
    sequence_to_json,
)

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
