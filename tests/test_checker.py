"""Subadditivity scans, windowed slope maxima, convexity."""

from __future__ import annotations

import itertools
import json
import math
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
    Violation,
    ViolationReport,
    builtin_error_term,
    check_convexity,
    check_q_monotone,
    convex_from_error,
    fekete_bracket,
    parse_sequence,
    q_sequence,
    scan_violations,
)

from fekete import checker, model
from fekete.checker import _scaled_tables

from conftest import (
    brute_force_scan,
    ceil_sqrt,
    monotone_rationals,
    reference_admits,
    reference_q,
    tabulate,
    weight_grid,
)


def test_scan_identity_sequence_clean():
    a = tabulate(lambda n: n, 40)
    report = scan_violations(a)
    assert report.ok
    assert report.pairs_checked == sum(40 - 2 * n + 1 for n in range(1, 21))


def test_scan_single_violation():
    report = scan_violations(SequencePrefix([1, 1, 3]))
    assert [(v.n, v.m, v.deficit) for v in report.violations] == [(1, 2, Fraction(1))]
    assert report.pairs_checked == 2


def test_scan_convex_with_matching_error_term():
    f = builtin_error_term("floor_sqrt", 200)
    a = convex_from_error(f, 200)
    assert scan_violations(a, f).ok


def test_scan_requires_long_enough_error_term():
    a = tabulate(lambda n: n, 10)
    with pytest.raises(ValueError, match="horizon"):
        scan_violations(a, ErrorTerm([0] * 5))


def test_scan_rejects_tables_of_the_wrong_type():
    a = SequencePrefix([1, 2, 3])
    # a SequencePrefix that breaks both error-term invariants is not read as one
    for bad_f in (SequencePrefix([-5, -9, 0]), [0, 0, 0], Fraction(0), 0):
        for domain in (FullDomain(), ExplicitDomain([(1, 2)])):
            with pytest.raises(TypeError, match="^f must be an ErrorTerm or None, got "):
                scan_violations(a, bad_f, domain)
    for bad_a in ([1, 2, 3], tuple(a.values), None, "1,2,3"):
        for f in (None, ErrorTerm([0] * 3)):
            with pytest.raises(TypeError, match="^a must be a SequencePrefix, got "):
                scan_violations(bad_a, f)


def test_scan_report_sorted_and_exact():
    # strongly superadditive: every pair violates; order must be (n+m, n)
    a = tabulate(lambda n: n * n, 12)
    report = scan_violations(a)
    keys = [(v.n + v.m, v.n) for v in report.violations]
    assert keys == sorted(keys)
    for v in report.violations:
        assert v.deficit == a.value(v.n + v.m) - a.value(v.n) - a.value(v.m)
        assert v.deficit > 0


@pytest.mark.parametrize(
    "domain",
    [
        FullDomain(),
        ThresholdDomain(3),
        MuBandDomain(Fraction(3, 2), 2),
        OnePlusDomain(2),
        ExplicitDomain([(1, 2), (5, 6), (20, 30)]),
    ],
)
def test_pairs_checked_is_exhaustive(domain):
    horizon = 80
    a = tabulate(lambda n: Fraction(1, n), horizon)  # violations irrelevant here
    report = scan_violations(a, None, domain)
    brute = sum(
        1
        for n in range(1, horizon + 1)
        for m in range(n, horizon - n + 1)
        if reference_admits(domain, n, m)
    )
    assert report.pairs_checked == brute


def test_scan_domain_restriction():
    # a(7) = 10 breaks every pair summing to 7; Threshold(3) keeps only (3, 4)
    a = SequencePrefix([0, 0, 0, 0, 0, 0, 10, 0])
    full = scan_violations(a)
    assert {(v.n, v.m) for v in full.violations} == {(1, 6), (2, 5), (3, 4)}
    restricted = scan_violations(a, None, ThresholdDomain(3))
    assert {(v.n, v.m) for v in restricted.violations} == {(3, 4)}


# --- certified scan against the brute-force reference ----------------------------

_small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


@st.composite
def prefixes(draw):
    """Random, convex (collinear runs included: slopes repeat) and nearly
    convex prefixes, with H from 1 up."""
    horizon = draw(st.integers(1, 36))
    kind = draw(st.sampled_from(("random", "convex", "nearly-convex")))
    if kind == "random":
        return SequencePrefix(draw(st.lists(_small_rationals, min_size=horizon, max_size=horizon)))
    slopes = sorted(draw(st.lists(_small_rationals, min_size=horizon, max_size=horizon)))
    values = []
    y = draw(_small_rationals)
    for slope in slopes:
        y += slope
        values.append(y)
    if kind == "nearly-convex":
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, horizon - 1))
            values[i] += draw(_small_rationals)
    return SequencePrefix(values)


@st.composite
def error_terms(draw, horizon):
    if draw(st.booleans()):
        return None
    steps = draw(st.lists(st.builds(Fraction, st.integers(0, 3), st.integers(1, 3)),
                          min_size=horizon, max_size=horizon))
    values = []
    total = Fraction(0)
    for step in steps:
        total += step
        values.append(total)
    return ErrorTerm(values)


_thresholds = st.integers(1, 14)
domains = st.one_of(
    st.just(FullDomain()),
    st.builds(ThresholdDomain, _thresholds),
    st.builds(
        MuBandDomain,
        st.builds(lambda p, q: 1 + Fraction(p, q), st.integers(1, 12), st.integers(1, 60)),
        _thresholds,
    ),
    st.builds(OnePlusDomain, _thresholds),
    st.builds(ExplicitDomain, st.lists(st.tuples(st.integers(1, 24), st.integers(1, 24)))),
)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_certified_scan_matches_brute_force(data):
    a = data.draw(prefixes())
    f = data.draw(error_terms(a.horizon))
    domain = data.draw(domains)
    assert scan_violations(a, f, domain) == brute_force_scan(a, f, domain)


@pytest.mark.parametrize(
    "domain",
    [
        FullDomain(),
        ThresholdDomain(2),
        MuBandDomain(Fraction(3, 2), 1),
        MuBandDomain(Fraction(101, 100), 5),  # odd sums and small sums admit no pair
        OnePlusDomain(1),
        ExplicitDomain([(1, 1), (1, 2), (4, 9)]),
    ],
)
@pytest.mark.parametrize(
    "a",
    [
        SequencePrefix([5]),
        SequencePrefix([1, 3]),
        SequencePrefix([-1, 1]),
        tabulate(lambda n: n, 40),  # all hull points collinear, zero deficits
        tabulate(lambda n: 3 * n - 7, 40),  # collinear, every pair breaks by 7
        tabulate(lambda n: abs(n - 20), 40),  # two collinear runs
        tabulate(lambda n: max(0, n - 10) * Fraction(1, 3) + (n == 30), 40),
        # convex, but the last sum breaks by the least representable amount
        tabulate(lambda n: Fraction(n == 40, 7), 40),
        tabulate(lambda n: n + Fraction(n == 39, 7), 40),
    ],
)
def test_certified_scan_edge_cases(a, domain):
    for f in (None, ErrorTerm([Fraction(n // 4, 2) for n in range(1, a.horizon + 1)])):
        assert scan_violations(a, f, domain) == brute_force_scan(a, f, domain)


@st.composite
def integer_error_terms(draw, horizon):
    """An integer error term, held as its grid alone, as the builtin
    families are."""
    steps = draw(st.lists(st.integers(0, 3), min_size=horizon, max_size=horizon))
    total, values = 0, []
    for step in steps:
        total += step
        values.append(total)
    return ErrorTerm._from_ints(values)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_repeated_scans_match_brute_force(data):
    # each scan after the first may read the certificates the first kept
    # on a, or must rebuild them for a different error term
    a = data.draw(prefixes())
    kind = data.draw(st.sampled_from(("none", "fraction", "integer")))
    if kind == "none":
        f = twin = None
    else:
        make = error_terms if kind == "fraction" else integer_error_terms
        f = None
        while f is None:
            f = data.draw(make(a.horizon))
        twin = ErrorTerm(f.values)  # equal, but a distinct object
    scans = data.draw(st.lists(
        st.tuples(domains, st.sampled_from(("f", "twin", "none"))), min_size=2, max_size=4
    ))
    for domain, which in scans:
        err = {"f": f, "twin": twin, "none": None}[which]
        assert scan_violations(a, err, domain) == brute_force_scan(a, err, domain)


# Far below the image's resolution of 2**-64: a sum whose margin is this
# small is left to the grid stage.
_TINY = Fraction(1, 2**70)


_margins = st.sampled_from((Fraction(1, 7), 1, Fraction(5, 2)))


def _concave(p, q, knee, margin, horizon):
    """min(p*n, p*knee + q*(n - knee)) + margin for n = 1..horizon, p >= q:
    a concave g with g(0) = 0 is subadditive, so every pair clears f >= 0
    by at least the margin, yet for p > q the prefix is not convex, and
    its minorant certificate can leave sums around the knee."""
    return [min(p * n, p * knee + q * (n - knee)) + margin for n in range(1, horizon + 1)]


@st.composite
def image_cases(draw):
    """(a, error terms) for the image stage: clean prefixes with exactly
    zero deficits, dirty ones, changes below 2**-64 in a or in f, clean
    non-convex prefixes with wide margins, and convex prefixes; held as
    values, parsed from unreduced text, or deferred (convex)."""
    horizon = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(("linear", "tiny", "dirty", "concave", "convex")))
    terms = [None, ErrorTerm([_TINY * (n > 1) for n in range(1, horizon + 1)])]
    if kind == "convex":
        steps = draw(st.lists(st.sampled_from((0, 0, 1, Fraction(1, 3), Fraction(5, 2))),
                              min_size=horizon, max_size=horizon + 4))
        values = [sum(steps[: i + 1]) for i in range(len(steps))]
        if all(v.denominator == 1 for v in map(Fraction, values)):
            f = ErrorTerm._from_ints([int(v) for v in values])
        else:
            f = ErrorTerm(values)
        return convex_from_error(f, horizon), terms + [f]
    if kind == "dirty":
        values = draw(st.lists(_small_rationals, min_size=horizon, max_size=horizon))
    elif kind == "concave":
        p, q = sorted(draw(st.tuples(_small_rationals, _small_rationals)), reverse=True)
        values = _concave(p, q, draw(st.integers(1, horizon)), draw(_margins), horizon)
    else:  # c*n, all zeros included: every deficit on f = None is exactly 0
        c = draw(_small_rationals)
        values = [c * n for n in range(1, horizon + 1)]
        if kind == "tiny":
            for _ in range(draw(st.integers(1, 3))):
                i = draw(st.integers(0, horizon - 1))
                values[i] += draw(st.sampled_from((-1, 1))) * _TINY * draw(st.integers(1, 3))
    terms.append(draw(integer_error_terms(horizon)))
    if draw(st.booleans()):
        k = draw(st.integers(2, 5))  # unreduced p/q, as parse_sequence keeps them
        text = json.dumps({"values": [f"{v.numerator * k}/{v.denominator * k}" for v in values]})
        return parse_sequence(text), terms
    return SequencePrefix(values), terms


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_image_stage_scans_match_brute_force(data):
    a, terms = data.draw(image_cases())
    scans = data.draw(st.lists(st.tuples(domains, st.sampled_from(terms)),
                               min_size=1, max_size=3))
    for domain, f in scans:
        assert scan_violations(a, f, domain) == brute_force_scan(a, f, domain)


@pytest.mark.parametrize("bump, tiny, left", [
    (0, False, ()),  # exactly zero deficits, exact on the image: cleared there
    (1, False, (17,)),  # breaks by 2**-70 at the sum 17 = n + m
    (1, True, ()),  # f(17) takes that back: the grid stage clears the sum
    (2, True, (17,)),  # breaks by 2**-70 after f
    (-1, True, None),  # no violation, but the minorant dips: many sums left
])
def test_grid_stage_decides_margins_below_the_image(bump, tiny, left):
    f = ErrorTerm([_TINY * (n > 1) for n in range(1, 31)]) if tiny else None
    values = [Fraction(7, 4) * n + bump * _TINY * (n == 17) for n in range(1, 31)]
    parsed = parse_sequence("".join(f"{n},{2 * v.numerator}/{2 * v.denominator}\n"
                                    for n, v in enumerate(values, start=1)))
    for a in (SequencePrefix(values), parsed):
        for domain in (FullDomain(), ThresholdDomain(3), MuBandDomain(Fraction(3, 2), 2)):
            assert scan_violations(a, f, domain) == brute_force_scan(a, f, domain)
        assert (a._grid is None) == (bump == 0)  # the image decides alone
        if left is not None:
            assert a._certified == (f, left)


def test_pairs_clear_on_the_image_where_the_minorant_fails():
    # a clean, non-convex prefix with margins far above 2**-64, as a
    # rational-slopes construction has: the image minorant leaves sums,
    # each of their pairs clears on the image, and no grid is built
    values = _concave(Fraction(5, 2), Fraction(3, 4), 25, Fraction(1, 7), 60)
    parsed = parse_sequence(json.dumps({"values": [f"{3 * v.numerator}/{3 * v.denominator}"
                                                   for v in values]}))
    f = builtin_error_term("floor_sqrt", 60)
    for a in (SequencePrefix(values), parsed):
        for err in (None, f):
            lo, hi = a._fixed_point()
            assert checker._certificate_failures(lo, hi, checker._floor_scaled(err, 60),
                                                 range(2, 61))
            for domain in (FullDomain(), MuBandDomain(Fraction(3, 2), 2), ThresholdDomain(4)):
                assert scan_violations(a, err, domain) == brute_force_scan(a, err, domain)
                assert a._certified == (err, ()) and a._grid is None


def test_tight_prefix_certified_on_the_grid():
    # n/3: every deficit is exactly 0 and the image is inexact, so the
    # image leaves sums that only the grid minorant clears; it clears all
    # of them, and no pair reaches the exact stage
    a = parse_sequence(json.dumps({"values": [f"{n}/3" for n in range(1, 2001)]}))
    report = scan_violations(a, None, FullDomain())
    assert report.ok and report.pairs_checked == 1_000_000
    assert a._certified == (None, ()) and a._grid is not None


def test_minorant_built_once_per_prefix_and_error_term(monkeypatch):
    built, scaled = [], []
    real_minorant, real_scaled = checker._lower_minorant, checker._scaled_tables

    def minorant(table_a, top):
        # the grid stage builds its minorant on the table _scaled_tables made
        built.append("grid" if scaled and table_a is scaled[-1][1] else "image")
        return real_minorant(table_a, top)

    def scaled_tables(a, f):
        scaled.append(real_scaled(a, f))
        return scaled[-1]

    monkeypatch.setattr(checker, "_lower_minorant", minorant)
    monkeypatch.setattr(checker, "_scaled_tables", scaled_tables)
    f = builtin_error_term("floor_sqrt", 60)
    a = convex_from_error(f, 60)
    for domain in (FullDomain(), MuBandDomain(Fraction(3, 2), 1), ThresholdDomain(4),
                   OnePlusDomain(1)):
        assert scan_violations(a, f, domain) == brute_force_scan(a, f, domain)
    # one image minorant for all four; a clean prefix is never scaled
    assert built == ["image"] and not scaled and a._grid is None
    twin = ErrorTerm(f.values)
    for err, domain, count in (
        (None, FullDomain(), 3),  # another error term: every sum breaks, so the grid too
        (f, MuBandDomain(2, 3), 4),  # one entry: going back builds it again
        (twin, FullDomain(), 5),  # keyed by identity, not by value
    ):
        assert scan_violations(a, err, domain) == brute_force_scan(a, err, domain)
        assert len(built) == count
    assert built.count("grid") == 1 and len(scaled) == 1
    # neither the kept certificates nor the image travel with the prefix
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a)
    assert copy._certified is None and copy._image is None

    # OnePlus-only scans enumerate and never build the minorant
    b = convex_from_error(f, 60)
    for N in (1, 5, 30):
        assert scan_violations(b, f, OnePlusDomain(N)) == brute_force_scan(b, f, OnePlusDomain(N))
    assert len(built) == 5 and b._certified is None

    # a dirty prefix: the image stage leaves its failing sum to the grid
    # stage, and only that sum is enumerated again
    dirty = tabulate(lambda n: n + Fraction(n == 39, 7), 40)
    for domain in (FullDomain(), MuBandDomain(Fraction(6, 5), 2), OnePlusDomain(19),
                   ThresholdDomain(20)):
        assert scan_violations(dirty, None, domain) == brute_force_scan(dirty, None, domain)
    assert built[5:] == ["image", "grid"] and dirty._certified == (None, (39,))

    # a prefix that holds its grid is certified on the grid alone
    held = tabulate(lambda n: Fraction(n * n, 3), 40)
    held.grid
    assert scan_violations(held, f, FullDomain()) == brute_force_scan(held, f, FullDomain())
    assert built[7:] == ["grid"] and held._image is None


def _monotone_chain_minorant(table_a, top):
    """The lower convex minorant of (n, A[n]), 1 <= n <= top, as the
    rationals minorant(n) for n = 1..top: Andrew's monotone chain with
    integer cross products, every point interpolated on its hull edge."""
    xs, ys = [], []
    for x in range(1, top + 1):
        y = table_a[x]
        while len(xs) >= 2 and (ys[-1] - ys[-2]) * (x - xs[-2]) >= (y - ys[-2]) * (xs[-1] - xs[-2]):
            xs.pop()
            ys.pop()
        xs.append(x)
        ys.append(y)
    out = [Fraction(table_a[1])]
    for (x1, y1), (x2, y2) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        out.extend(Fraction(y1 * (x2 - x1) + (y2 - y1) * (x - x1), x2 - x1)
                   for x in range(x1 + 1, x2 + 1))
    return out


@st.composite
def integer_tables(draw):
    """``(table, top)``: integers A[0..top + 1], random, convex (collinear
    runs included: steps repeat) or nearly convex on 1..top, with top from
    1 up; A[0] and A[top + 1] lie outside the minorant and are drawn freely."""
    top = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("random", "convex", "nearly-convex")))
    ints = st.integers(-50, 50)
    if kind == "random":
        inner = draw(st.lists(ints, min_size=top, max_size=top))
    else:
        steps = sorted(draw(st.lists(st.integers(-6, 6), min_size=top, max_size=top)))
        inner = list(itertools.accumulate(steps, initial=draw(ints)))[1:]
        if kind == "nearly-convex":
            for _ in range(draw(st.integers(1, 3))):
                inner[draw(st.integers(0, top - 1))] += draw(st.integers(-3, 3))
    return [draw(ints), *inner, draw(ints)], top


@given(integer_tables())
@settings(max_examples=400, deadline=None)
@example(([0] * 42, 40))  # the zero family's image
@example((list(range(42)), 40))  # a(n) = n: every point collinear
@example(([0, 0, 1, 0, 1], 3))  # one dent: the hull skips n = 2
def test_lower_minorant_matches_the_monotone_chain(case):
    table, top = case
    num, width = checker._lower_minorant(table, top)
    reference = _monotone_chain_minorant(table, top)
    assert [Fraction(num[x], 1 if width is None else width[x])
            for x in range(1, top + 1)] == reference
    # a table is convex exactly when it is its own minorant, and only then
    # skips the hull
    assert (width is None) == (reference == table[1:top + 1])


def _scaled_tables_reference(a, f):
    """Earlier form: an LCM step for every denominator."""
    horizon = a.horizon
    denom = 1
    for v in a.values:
        denom = denom * v.denominator // math.gcd(denom, v.denominator)
    if f is not None:
        for v in f.values[:horizon]:
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
    table_a = [0] + [v.numerator * (denom // v.denominator) for v in a.values]
    table_f = [0] * (horizon + 1)
    if f is not None:
        for s in range(1, horizon + 1):
            fv = f.values[s - 1]
            table_f[s] = fv.numerator * (denom // fv.denominator)
    return denom, table_a, table_f


def _same_rationals(denom, table, ref_denom, ref_table):
    return [Fraction(x, denom) for x in table] == [Fraction(x, ref_denom) for x in ref_table]


def test_scaled_tables_match_reference():
    f = builtin_error_term("floor_sqrt", 300)
    a = convex_from_error(f, 300)
    built = SequencePrefix(a.values)  # the same rationals, built from values
    longer = ErrorTerm([Fraction(n, 7) for n in range(1, 401)])
    # a prefix built from values sits on the least common denominator
    cases = [
        (built, f),
        (built, None),
        (built, longer),
        (tabulate(lambda n: Fraction(n * n + 1, n % 13 + 1), 120), longer),
        (SequencePrefix([Fraction(1, 6), Fraction(-5, 4)]), None),
    ]
    for seq, err in cases:
        assert _scaled_tables(seq, err) == _scaled_tables_reference(seq, err)
    # a convex prefix sits on the denominator of f's weight sums, widened
    # only by the error term's own grid; its tables hold the same rationals
    w_denom = weight_grid(f)[0]
    for err in (f, None, longer):
        denom, table_a, table_f = _scaled_tables(a, err)
        ref_denom, ref_a, ref_f = _scaled_tables_reference(a, err)
        assert denom == (w_denom if err is None else math.lcm(w_denom, err.grid[0]))
        assert _same_rationals(denom, table_a, ref_denom, ref_a)
        assert _same_rationals(denom, table_f, ref_denom, ref_f)
    # f's grid covers all of f, so a denominator met only past the prefix's
    # horizon widens D; the tables still hold the same rationals
    tail = ErrorTerm([Fraction(n, 7) for n in range(1, 301)] + [Fraction(13158, 307)])
    for seq in (built, a):
        denom, table_a, table_f = _scaled_tables(seq, tail)
        ref_denom, ref_a, ref_f = _scaled_tables_reference(seq, tail)
        assert denom == 307 * (ref_denom if seq is built else w_denom)
        assert _same_rationals(denom, table_a, ref_denom, ref_a)
        assert _same_rationals(denom, table_f, ref_denom, ref_f)
        assert scan_violations(seq, tail) == scan_violations(seq, ErrorTerm(tail.values[:300]))


def test_scans_read_the_cached_grids(monkeypatch):
    f = ErrorTerm([Fraction(n // 3, 5) for n in range(1, 61)])
    a = tabulate(lambda n: Fraction(n * n % 17, 3), 50)
    grids = a.grid, f.grid

    def rebuilt(pairs):
        raise AssertionError("a grid was built again")

    monkeypatch.setattr(model, "_integer_grid", rebuilt)
    monkeypatch.setattr(checker, "_integer_grid", rebuilt, raising=False)  # an imported copy
    first = scan_violations(a, f)
    assert scan_violations(a, f) == first
    assert scan_violations(a, f, MuBandDomain(2, 1)).pairs_checked
    assert a.grid is grids[0] and f.grid is grids[1]


def test_report_json_shape():
    report = scan_violations(SequencePrefix([1, 1, 3]))
    payload = report.to_json_dict()
    assert json.dumps(payload)  # serialisable
    assert payload["pairs_checked"] == 2
    assert payload["domain"] == {"variant": "full"}
    assert payload["violations"] == [{"n": 1, "m": 2, "deficit": "1"}]


_deficits = st.one_of(
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40)),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 30)),
)


@given(
    domains,
    st.integers(0, 10 ** 6),
    st.lists(
        st.tuples(st.integers(1, 10 ** 4), st.integers(1, 10 ** 4), _deficits), max_size=6
    ),
)
@example(MuBandDomain(Fraction(3, 2), 2), 5, [(2, 3, Fraction(-7, 3)), (3, 4, Fraction(2))])
@example(ExplicitDomain([(1, 2), (3, 3)]), 0, [])
@example(FullDomain(), 1, [(1, 1, Fraction(1, 2))])
@settings(max_examples=300, deadline=None)
def test_report_json_text_is_the_dumped_dict(domain, pairs_checked, raw):
    violations = tuple(Violation(n, m, d) for n, m, d in raw)
    report = ViolationReport(domain, pairs_checked, violations)
    dumped = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert report.to_json_text() == dumped


# --- q sequence -----------------------------------------------------------------

def test_q_sequence_identity():
    qs = q_sequence(tabulate(lambda n: n, 30), 1)
    assert set(qs.values) == {Fraction(1)}
    assert qs.n_lo == 1 and qs.n_hi == 15


def test_q_sequence_direct_max():
    qs = q_sequence(SequencePrefix([2, 1]), 1)
    assert qs.q(1) == 2


def test_q_sequence_window_definition():
    a = tabulate(lambda n: Fraction((n * 7) % 11, n), 40)
    qs = q_sequence(a, 3)
    for n in range(3, 21):
        assert qs.q(n) == max(a.slope(j) for j in range(n, 2 * n + 1))


def test_q_sequence_ceil_sqrt_non_increasing():
    qs = q_sequence(tabulate(ceil_sqrt, 100), 1)
    assert all(x >= y for x, y in zip(qs.values, qs.values[1:]))


def test_q_sequence_horizon_too_small():
    with pytest.raises(ValueError):
        q_sequence(SequencePrefix([1]), 1)


def test_check_q_monotone_identity():
    assert check_q_monotone(tabulate(lambda n: n, 20), 1) == []


def test_check_q_monotone_spike():
    a = SequencePrefix([0, 0, 10, 0, 0, 0, 0, 0])
    increases = check_q_monotone(a, 1)
    assert increases == [1]  # q(1) = 0 < q(2) = 10/3


def test_check_q_monotone_cross_check_with_one_plus_scan():
    candidates = [
        tabulate(ceil_sqrt, 120),
        tabulate(lambda n: min(n, 17), 120),
        tabulate(lambda n: Fraction(7, 3), 120),
    ]
    shifts = monotone_rationals(120, seed=5)
    base = tabulate(ceil_sqrt, 120)
    candidates.append(
        SequencePrefix([base.value(n) - shifts[n - 1] * n for n in range(1, 121)])
    )
    for a in candidates:
        for N in (1, 2, 5):
            assert scan_violations(a, None, OnePlusDomain(N)).ok
            assert check_q_monotone(a, N) == []


# slopes as runs of one value drawn from a small pool: ties, constant runs,
# negative slopes and plateaus of the window maximum all come up often
_slope_runs = st.lists(
    st.tuples(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), st.integers(1, 5)),
    min_size=1,
    max_size=12,
)


@given(
    st.one_of(
        _slope_runs.map(lambda runs: [s for s, k in runs for _ in range(k)]).filter(
            lambda slopes: len(slopes) >= 2
        ),
        st.lists(_small_rationals, min_size=2, max_size=40).map(
            lambda vals: [v / j for j, v in enumerate(vals, start=1)]
        ),
    ),
    st.integers(2, 5),
)
@settings(max_examples=300, deadline=None)
def test_q_sequence_matches_slice_reference(slopes, scale):
    a = SequencePrefix([s * j for j, s in enumerate(slopes, start=1)])
    # the same values read from unreduced p/q text: a grid with D > 1
    written = [f"{v.numerator * scale}/{v.denominator * scale}" for v in a.values]
    parsed = parse_sequence(json.dumps({"values": written}))
    assert parsed.grid[0] > 1
    horizon = a.horizon
    for n_lo in range(1, horizon // 2 + 1):  # n_lo = H//2 leaves one window
        want = reference_q(a, n_lo)
        rises = [n_lo + i for i in range(len(want) - 1) if want[i] < want[i + 1]]
        for prefix in (a, parsed):
            qs = q_sequence(prefix, n_lo)
            assert qs.n_lo == n_lo and list(qs.values) == want
            if 2 * (n_lo + 1) <= horizon:
                assert check_q_monotone(prefix, n_lo) == rises


@pytest.mark.parametrize(
    "family, params, first_rise",
    [("floor_sqrt", None, 1), ("linear", {"c": Fraction(1, 100)}, 49)],
)
def test_check_q_monotone_closed_form_on_convex_prefix(family, params, first_rise):
    # a(n) = n*W(n) with W non-decreasing, so q(n) = a(2n)/(2n) = W(2n); at
    # H = 4000 the slice-and-max form needed minutes.  floor(x/100) is 0
    # below 100, so W and q are flat there.
    horizon = 4000
    f = builtin_error_term(family, horizon, params)
    a = convex_from_error(f, horizon)
    w = tuple(f.weight_sums())
    for N in (1, 7):
        want = [n for n in range(N, horizon // 2) if w[2 * n] < w[2 * n + 2]]
        assert check_q_monotone(a, N) == want
        assert want == list(range(max(N, first_rise), horizon // 2))
    assert q_sequence(a, 1999).values == (w[3998], w[4000])


@pytest.mark.parametrize("call", [q_sequence, check_q_monotone, fekete_bracket])
@pytest.mark.parametrize("threshold", [True, False, 1.0, 2.0, Fraction(1), "1", None])
def test_thresholds_must_be_ints(call, threshold):
    a = tabulate(lambda n: n, 20)
    with pytest.raises(TypeError, match="must be an int"):
        call(a, threshold)


@pytest.mark.parametrize("call", [q_sequence, check_q_monotone, fekete_bracket])
def test_thresholds_out_of_range_stay_value_errors(call):
    a = tabulate(lambda n: n, 20)
    for threshold in (0, -1, 21):
        with pytest.raises(ValueError):
            call(a, threshold)


# --- convexity --------------------------------------------------------------------

def test_convexity_square():
    assert check_convexity(tabulate(lambda n: n * n, 30)) == []


def test_convexity_spike():
    assert check_convexity(SequencePrefix([0, 1, 0])) == [2]


def test_convexity_requires_three_points():
    with pytest.raises(ValueError):
        check_convexity(SequencePrefix([1, 2]))


def test_convex_from_error_second_difference_identity():
    f = builtin_error_term("floor_sqrt", 80)
    a = convex_from_error(f, 80)
    assert check_convexity(a) == []
    for n in range(2, 80):
        second = a.value(n - 1) + a.value(n + 1) - 2 * a.value(n)
        fn = f.value(n) if n > 1 else Fraction(0)
        assert second == f.value(n + 1) / (n + 1) - (n - 1) * fn / (n * n)


# --- monotone shift closure ----------------------------------------------------

@given(st.integers(0, 2 ** 30))
@settings(max_examples=25, deadline=None)
def test_monotone_shift_preserves_subadditivity(seed):
    horizon = 50
    f = builtin_error_term("floor_sqrt", horizon)
    a = convex_from_error(f, horizon)
    assert scan_violations(a, f).ok
    c = monotone_rationals(horizon, seed)
    b = SequencePrefix([a.value(n) - c[n - 1] * n for n in range(1, horizon + 1)])
    assert scan_violations(b, f).ok


def test_q_outside_its_windows_raises_index_error():
    qs = q_sequence(tabulate(lambda n: n, 12), 2)
    assert (qs.n_lo, qs.n_hi) == (2, 6)
    for n in (1, 7):
        with pytest.raises(IndexError, match=f"^index {n} outside 2..6$"):
            qs.q(n)
