"""Slope brackets, the smoothing-transform deficit, chain certificates."""

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
    chain_coverage_failures,
    convex_from_error,
    enumerate_rationals,
    fekete_bracket,
    find_split,
    g_deficit,
    linear_error_example,
    mu_chain_certificate,
    parse_sequence,
    rational_slope_sequence,
    scan_violations,
    smoothed,
    threshold_gap_example,
    two_good_chain,
    zero_error_term,
)
from fekete import limits, model

from conftest import (
    brute_force_scan,
    ceil_sqrt,
    monotone_rationals,
    reference_admits,
    tabulate,
    weight_grid,
)


# --- brackets -------------------------------------------------------------------

def test_bracket_identity_sequence():
    br = fekete_bracket(tabulate(lambda n: n, 50), 1)
    assert br.min_slope == 1
    assert br.argmin_k == 1


def test_bracket_ceil_sqrt():
    br = fekete_bracket(tabulate(ceil_sqrt, 100), 1)
    assert br.min_slope == Fraction(1, 10)
    assert br.argmin_k == 100
    # every emitted sample has a complete window and n = H >= 2k
    for s in br.eq8_samples:
        assert s.n == 100 and 2 * s.k <= 100


def test_bracket_min_matches_brute_force():
    a = tabulate(lambda n: Fraction((n * 13) % 29 + 1, 1), 64)
    for N in (1, 3, 10):
        br = fekete_bracket(a, N)
        brute = min((a.slope(k), k) for k in range(N, 65))
        assert br.min_slope == brute[0]
        assert a.slope(br.argmin_k) == brute[0]


def test_bracket_threshold_excludes_small_k():
    # slopes below the threshold are smaller than anything above it
    a = SequencePrefix([Fraction(1, 100), Fraction(1, 10), 3, 4, 5, 6])
    assert fekete_bracket(a, 1).min_slope == Fraction(1, 100)
    assert fekete_bracket(a, 3).min_slope == 1
    gap = threshold_gap_example(3, (5, 20), 19)
    br = fekete_bracket(gap, 3)
    assert br.min_slope == min(gap.slope(k) for k in range(3, 20))


def test_bracket_validation():
    with pytest.raises(ValueError):
        fekete_bracket(SequencePrefix([1, 2]), 3)


def test_eq8_bound_holds_for_subadditive_prefixes():
    for a in (
        tabulate(ceil_sqrt, 120),
        tabulate(lambda n: min(n, 20), 120),
        tabulate(lambda n: 3 * n + 1, 120),
    ):
        assert scan_violations(a).ok
        horizon = a.horizon
        for k in range(1, horizon // 2 + 1):
            window = max(
                (abs(a.value(j)) for j in range(k + 1, 2 * k)), default=Fraction(0)
            )
            assert a.slope(horizon) <= a.slope(k) + window / horizon


# --- smoothing-transform deficit ---------------------------------------------

def test_g_deficit_zero_error_term_is_plain_deficit():
    a = tabulate(lambda n: Fraction((n * 5) % 17, 3), 60)
    zero = ErrorTerm([0] * 60)
    for n in range(1, 31):
        for m in range(n, 61 - n):
            plain = a.value(n + m) - a.value(n) - a.value(m)
            assert g_deficit(a, None, n, m) == plain
            assert g_deficit(a, zero, n, m) == plain
    assert smoothed(a, None) is a
    assert smoothed(a, zero).values == a.values


def test_g_deficit_frozen_example():
    f = ErrorTerm([0, 2, 3, 4])
    a = convex_from_error(f, 4)
    assert a.values == (0, 1, Fraction(5, 2), Fraction(13, 3))
    assert g_deficit(a, f, 2, 2) == Fraction(-23, 3)


def test_g_deficit_nonpositive_on_band_for_subadditive_input():
    f = builtin_error_term("linear_over_log", 200)
    a = convex_from_error(f, 200)
    assert scan_violations(a, f).ok
    for n in range(1, 101):
        for m in range(n, min(2 * n, 200 - n) + 1):
            assert g_deficit(a, f, n, m) <= 0


@st.composite
def _error_terms_positive_at_one(draw):
    """Non-decreasing rational error terms with f(1) > 0."""
    ratios = st.fractions(min_value=0, max_value=20, max_denominator=12)
    first = draw(ratios.filter(lambda v: v > 0))
    steps = draw(st.lists(ratios, min_size=1, max_size=13))
    values = [first]
    for step in steps:
        values.append(values[-1] + step)
    return ErrorTerm(values)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_weight_sums_against_term_by_term_forms(data):
    f = data.draw(_error_terms_positive_at_one())
    horizon = f.horizon
    a = SequencePrefix(data.draw(st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=9),
        min_size=horizon, max_size=horizon,
    )))

    def series(lo, hi):  # sum(f(x)/x^2 for lo <= x < hi)
        return sum((f.value(x) / (x * x) for x in range(lo, hi)), Fraction(0))

    # every pair, so (1, 1) and the pairs (1, m) are always included
    for n in range(1, horizon // 2 + 1):
        for m in range(n, horizon - n + 1):
            plain = a.value(n + m) - a.value(n) - a.value(m)
            expected = plain - 3 * n * series(n, n + m) - 3 * m * series(m, n + m)
            assert g_deficit(a, f, n, m) == expected, (n, m)
    conv = convex_from_error(f, horizon)
    for n in range(1, horizon + 1):
        assert conv.value(n) == n * series(2, n + 1), n


_F_DENOMS = (1, 2, 9, 127, 131)


@st.composite
def _rational_error_terms(draw, min_size=1):
    """Non-decreasing error terms with f(1) > 0 over the denominators
    ``_F_DENOMS``, whose primes 127 and 131 no x^2 of a short table
    supplies, so that D_W is far from lcm(x^2)."""
    step = st.builds(Fraction, st.integers(0, 40), st.sampled_from(_F_DENOMS))
    values = [draw(step.filter(lambda v: v > 0))]
    for inc in draw(st.lists(step, min_size=min_size - 1, max_size=13)):
        values.append(values[-1] + inc)
    return ErrorTerm(values)


@given(_rational_error_terms())
@settings(max_examples=100, deadline=None)
def test_weight_grid_matches_weights(f):
    denom, grid = weight_grid(f)
    weights = tuple(f.weight_sums())
    assert len(grid) == f.horizon + 2 and grid[0] == 0
    for k in range(1, f.horizon + 2):
        assert Fraction(grid[k], denom) == weights[k - 1], k
    for x, v in enumerate(f.values, start=1):
        assert denom % (v.denominator * x * x) == 0


@given(st.integers(0, 6), _rational_error_terms())
@settings(max_examples=100, deadline=None)
def test_weight_grid_leaves_zero_terms_out_of_the_lcm(zeros, tail):
    f = ErrorTerm([0] * zeros + list(tail.values))
    denom, grid = weight_grid(f)
    weights = tuple(f.weight_sums())
    for k in range(1, f.horizon + 2):
        assert Fraction(grid[k], denom) == weights[k - 1], k
    assert denom == math.lcm(
        *(v.denominator * x * x for x, v in enumerate(f.values, start=1) if v)
    )


def test_weight_grid_of_the_zero_term_is_on_one():
    assert weight_grid(zero_error_term(50)) == (1, (0,) * 52)
    # floor(n/4) is zero below 4
    assert weight_grid(builtin_error_term("linear", 6, {"c": Fraction(1, 4)}))[0] == 3600


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_g_deficit_on_grids_against_term_by_term_form(data):
    f = data.draw(_rational_error_terms(min_size=2))
    horizon = data.draw(st.integers(2, f.horizon))  # often shorter than f
    kind = data.draw(st.sampled_from(("convex", "foreign")))
    if kind == "convex":  # D divides D_W
        values = list(convex_from_error(f, horizon).values)
    else:  # odd denominators and a(1) over 137: neither of D, D_W divides the other
        values = [Fraction(data.draw(st.integers(-30, 30).filter(bool)), 137)]
        values += data.draw(st.lists(
            st.builds(Fraction, st.integers(-60, 60), st.sampled_from((1, 3, 137))),
            min_size=horizon - 1, max_size=horizon - 1,
        ))
    a = SequencePrefix(values)
    # the same values written unreduced: the parsed grid's D is not the least one
    scale = data.draw(st.integers(2, 4))
    written = [f"{v.numerator * scale}/{v.denominator * scale}" for v in values]
    parsed = parse_sequence(json.dumps({"values": written}))
    w_denom = weight_grid(f)[0]
    if kind == "convex":
        assert w_denom % a.grid[0] == 0
    else:
        assert w_denom % a.grid[0] and a.grid[0] % w_denom

    def series(lo, hi):  # sum(f(x)/x^2 for lo <= x < hi)
        return sum((f.value(x) / (x * x) for x in range(lo, hi)), Fraction(0))

    for n in range(1, horizon // 2 + 1):
        for m in range(n, horizon - n + 1):
            plain = a.value(n + m) - a.value(n) - a.value(m)
            expected = plain - 3 * n * series(n, n + m) - 3 * m * series(m, n + m)
            for prefix in (a, parsed):
                assert g_deficit(prefix, f, n, m) == expected, (n, m)
                assert g_deficit(prefix, None, n, m) == plain, (n, m)


def test_g_deficit_validation(monkeypatch):
    a = tabulate(lambda n: n, 10)
    # a parsed prefix is rejected before any of its literals is converted
    parsed = parse_sequence(json.dumps({"values": [f"{n}/1" for n in range(1, 11)]}))

    def converting(literal):
        raise AssertionError(f"converted {literal!r}")

    monkeypatch.setattr(model, "_literal_pair", converting)
    for prefix in (a, parsed):
        with pytest.raises(ValueError, match=r"need 1 <= n <= m, got \(3, 2\)"):
            g_deficit(prefix, None, 3, 2)
        with pytest.raises(ValueError, match=r"pair \(5, 6\) exceeds sequence horizon 10"):
            g_deficit(prefix, None, 5, 6)
        with pytest.raises(ValueError, match=r"pair \(2, 3\) exceeds error-term horizon 4"):
            g_deficit(prefix, ErrorTerm([0] * 4), 2, 3)
    assert parsed._values is None and parsed._grid is None  # nothing converted
    assert smoothed(a, ErrorTerm([0] * 4)).horizon == 4
    # a table that is not an ErrorTerm is rejected, not read as one
    for bad_f in (SequencePrefix([0] * 10), [0] * 10, Fraction(0), 0):
        with pytest.raises(TypeError, match="f must be an ErrorTerm or None"):
            smoothed(a, bad_f)
        with pytest.raises(TypeError, match="f must be an ErrorTerm or None"):
            g_deficit(a, bad_f, 2, 3)
    for bad_a in ([1] * 10, tuple(a.values), None, "1,2,3"):
        for f in (None, ErrorTerm([0] * 10)):
            with pytest.raises(TypeError, match="a must be a SequencePrefix"):
                smoothed(bad_a, f)
            with pytest.raises(TypeError, match="a must be a SequencePrefix"):
                g_deficit(bad_a, f, 2, 3)


def _finite_form(a, f, n, m):
    """G(n+m) - G(n) - G(m) with the tails cancelled, summed term by term."""
    s = n + m

    def series(lo):  # sum(f(x)/x^2 for lo <= x < s)
        return sum((f.value(x) / (x * x) for x in range(lo, s)), Fraction(0))

    plain = a.value(s) - a.value(n) - a.value(m)
    return plain - 3 * n * series(n) - 3 * m * series(m)


def _smoothing_domains(horizon: int):
    pairs = [(n, m) for n in range(1, horizon) for m in range(n, horizon - n + 1) if (n + m) % 3]
    return (FullDomain(), ThresholdDomain(2), MuBandDomain(2, 1), OnePlusDomain(2),
            ExplicitDomain(pairs))


@st.composite
def _smoothing_inputs(draw):
    """(f, H, a-values or None for the convex prefix of f): f of horizon H
    or a little more, with leading zeros or none, and non-integer steps."""
    horizon = draw(st.integers(1, 16))
    leading = draw(st.integers(0, horizon))
    values = [Fraction(0)] * leading
    total = Fraction(0)
    for _ in range(horizon + draw(st.integers(0, 3)) - leading):
        total += Fraction(draw(st.integers(0, 5)), draw(st.sampled_from((1, 2, 7, 127))))
        values.append(total)
    if draw(st.booleans()):
        return ErrorTerm(values), horizon, None
    a_values = draw(st.lists(
        st.builds(Fraction, st.integers(-60, 60), st.sampled_from((1, 3, 137))),
        min_size=horizon, max_size=horizon,
    ))
    return ErrorTerm(values), horizon, a_values


@given(_smoothing_inputs(), st.integers(2, 4))
@example((ErrorTerm([0, 0, 0, Fraction(1, 7), 1, 1, 2]), 7, None), 2)
@example((ErrorTerm([0, 0, 1, 1, 1, 2, 2, 3, 3]), 7, None), 3)
@example((ErrorTerm([0] * 8), 8, [Fraction(k % 5, 3) for k in range(8)]), 2)
@settings(max_examples=120, deadline=None)
def test_band_check_is_one_scan_of_the_smoothed_prefix(drawn, scale):
    f, horizon, a_values = drawn
    built = convex_from_error(f, horizon) if a_values is None else SequencePrefix(a_values)
    # the same values written unreduced: the parsed grid's D is not the least one
    written = [f"{v.numerator * scale}/{v.denominator * scale}" for v in built.values]
    parsed = parse_sequence(json.dumps({"values": written}))
    pairs = [(n, m) for n in range(1, horizon // 2 + 1) for m in range(n, horizon - n + 1)]
    want = {pair: _finite_form(built, f, *pair) for pair in pairs}

    def tail(lo):  # sum(f(x)/x^2 for lo <= x <= H)
        return sum((f.value(x) / (x * x) for x in range(lo, horizon + 1)), Fraction(0))

    # g is G with both the tails and S cut at H: g(k) = a(k) + 3k (T_H(k) - T_H(2))
    want_g = tuple(built.value(k) + 3 * k * (tail(k) - tail(2)) for k in range(1, horizon + 1))
    for a in (built, parsed):
        g = smoothed(a, f)
        assert g.horizon == horizon
        for pair in pairs:
            assert g_deficit(a, f, *pair) == want[pair], pair
        for domain in _smoothing_domains(horizon):
            admitted = [pair for pair in pairs if reference_admits(domain, *pair)]
            bad = tuple(Violation(n, m, want[n, m]) for n, m in admitted if want[n, m] > 0)
            expected = ViolationReport(domain, len(admitted), tuple(
                sorted(bad, key=lambda v: (v.n + v.m, v.n))
            ))
            assert scan_violations(g, None, domain) == expected, domain
        assert g.values == want_g


def test_one_error_term_smooths_equal_and_different_prefixes_in_any_order():
    horizon = 24
    pairs = [(n, m) for n in range(1, horizon // 2 + 1) for m in range(n, horizon - n + 1, 3)]
    reference_f = builtin_error_term("floor_sqrt", horizon)
    convex = convex_from_error(reference_f, horizon)
    unreduced = [f"{3 * v.numerator}/{3 * v.denominator}" for v in convex.values]
    prefixes = {
        "convex": lambda f: convex_from_error(f, horizon),
        "equal": lambda f: SequencePrefix(convex.values),
        "parsed": lambda f: parse_sequence(json.dumps({"values": unreduced})),
        "other": lambda f: tabulate(lambda n: Fraction(n * n % 7, 5), horizon),
    }
    want = {
        name: [_finite_form(make(reference_f), reference_f, n, m) for n, m in pairs]
        for name, make in prefixes.items()
    }
    for order in itertools.permutations(prefixes):
        f = builtin_error_term("floor_sqrt", horizon)
        made = {name: prefixes[name](f) for name in order}
        for name in order + order[::-1]:
            got = [g_deficit(made[name], f, n, m) for n, m in pairs]
            assert got == want[name], (order, name)


def _never(*args):
    raise AssertionError("values compared or hashed")


def test_repeated_calls_share_one_smoothed_grid(monkeypatch):
    builds = []
    deferred = SequencePrefix._deferred_prefix.__func__

    def counting(cls, horizon, values, grid, *builders, **named):
        def counted():
            builds.append(horizon)
            return grid()
        return deferred(cls, horizon, values, counted, *builders, **named)

    monkeypatch.setattr(SequencePrefix, "_deferred_prefix", classmethod(counting))
    f = builtin_error_term("floor_sqrt", 40)
    a = tabulate(lambda n: Fraction(n * n % 11, 3), 40)
    twin = tabulate(lambda n: Fraction(n * n % 11, 3), 40)
    pairs = [(n, m) for n in range(1, 21) for m in range(n, 41 - n)]

    def sweep(prefix):
        return [g_deficit(prefix, f, n, m) for n, m in pairs]

    # the cache keys on identity alone: no value is ever compared or hashed
    monkeypatch.setattr(SequencePrefix, "__eq__", _never)
    monkeypatch.setattr(SequencePrefix, "__hash__", _never)
    first = sweep(a)
    assert sweep(a) == first and smoothed(a, f) is smoothed(a, f)
    assert len(builds) == 1
    assert sweep(twin) == first  # an equal but distinct prefix replaces the entry
    assert len(builds) == 2
    assert sweep(a) == first  # one entry: going back builds again
    assert len(builds) == 3
    assert g_deficit(a, None, 3, 4) == a.value(7) - a.value(3) - a.value(4)
    assert len(builds) == 3


def test_an_error_term_holding_a_smoothed_prefix_pickles_compares_and_hashes():
    f = builtin_error_term("floor_sqrt", 30)
    fresh = builtin_error_term("floor_sqrt", 30)
    a = convex_from_error(f, 30)
    before = g_deficit(a, f, 5, 9)
    assert smoothed(a, f) is smoothed(a, f)
    copy = pickle.loads(pickle.dumps(f))
    assert type(copy) is ErrorTerm and copy == f == fresh
    assert hash(copy) == hash(f) == hash(fresh)
    assert f != SequencePrefix(f.values) and f.values == SequencePrefix(f.values).values
    assert g_deficit(a, copy, 5, 9) == before
    assert smoothed(a, copy) is not smoothed(a, f)


# --- chain certificates ---------------------------------------------------------

def test_certificate_depths_and_bounds():
    c2 = mu_chain_certificate(Fraction(2), 1, 10)
    assert (c2.k, c2.N1, c2.N2) == (2, 5, 1)
    c32 = mu_chain_certificate(Fraction(3, 2), 1, 10)
    assert (c32.k, c32.N1, c32.N2) == (4, 4, 2)
    c3 = mu_chain_certificate(Fraction(3), 1, 10)
    assert (c3.k, c3.N1, c3.N2) == (2, 1, 1)
    c11 = mu_chain_certificate(Fraction(11, 10), 1, 100)
    assert (c11.k, c11.N1, c11.N2) == (15, 24, 10)


def test_certificate_depth_is_smallest_satisfying_k():
    # the double inequality admits a run of consecutive k; the certificate
    # uses the smallest (matching the worked instances k=2 for mu=2 and
    # k=4 for mu=3/2)
    for mu in (Fraction(11, 10), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(7, 4)):
        cert = mu_chain_certificate(mu, 1, 50)
        ks = [
            k
            for k in range(1, 60)
            if (1 + mu) ** (k - 1) <= 2 ** (k + 1) < (1 + mu) ** k
        ]
        assert ks and ks == list(range(ks[0], ks[-1] + 1))
        assert cert.k == ks[0]


def test_certificate_chains_follow_recurrences():
    mu = Fraction(3, 2)
    cert = mu_chain_certificate(mu, 1, 7)
    assert cert.u == (7, 14, 28, 56, 112)
    v = [7]
    for _ in range(4):
        v.append(v[-1] + (mu.numerator * v[-1]) // mu.denominator)
    assert cert.v == tuple(v)


def test_certificate_doubling_covered_from_analytic_bound():
    for mu in (Fraction(11, 10), Fraction(3, 2), Fraction(2), Fraction(3)):
        probe = mu_chain_certificate(mu, 1, 1)
        start = max(probe.N1, probe.N2)
        for n in range(start, start + 50):
            assert mu_chain_certificate(mu, 1, n).doubling_covered


def _least_depth(mu):
    return next(k for k in itertools.count(1) if 2 ** (k + 1) < (1 + mu) ** k)


def test_certificate_depth_bound(monkeypatch):
    # the depth comes from a float estimate settled by exact powers; a
    # mu whose least k exceeds the bound is refused, whichever decides it
    monkeypatch.setattr(limits, "MAX_CHAIN_DEPTH", 15)
    for p in range(1050, 1200):
        mu = Fraction(p, 1000)
        if _least_depth(mu) <= 15:
            assert mu_chain_certificate(mu, 1, 3).k == _least_depth(mu), mu
        else:
            with pytest.raises(ValueError, match="deeper than 15"):
                mu_chain_certificate(mu, 1, 3)


@pytest.mark.parametrize("scale", [1, 0.8, 1.25])
def test_certificate_depth_and_n1_match_their_definitions(monkeypatch, scale):
    # the exact powers settle the depth one level at a time from the float
    # estimate, here also from one several levels too deep or too shallow,
    # and N1 = ceil((1 + mu)**k / mu / ((1 + mu)**k - 2**(k+1))) reuses them
    log1p = math.log1p
    monkeypatch.setattr(math, "log1p", lambda x: scale * log1p(x))
    for mu in (
        Fraction(101, 100), Fraction(11, 10), Fraction(3, 2), Fraction(7, 4), Fraction(2),
        Fraction(3), Fraction(7, 2), Fraction(5), Fraction(100),
    ):
        k = _least_depth(mu)
        power = (1 + mu) ** k
        cert = mu_chain_certificate(mu, 1, 1)
        assert (cert.k, cert.N1) == (k, math.ceil(power / mu / (power - 2 ** (k + 1)))), mu


def test_certificate_depth_bound_is_exact_at_the_limit():
    # the least p/q with k <= MAX_CHAIN_DEPTH, so k = MAX_CHAIN_DEPTH there
    # and (p - 1)/q is refused: (1 + mu)/2 against 2**(1/MAX_CHAIN_DEPTH)
    depth, q = limits.MAX_CHAIN_DEPTH, 10**12
    p = int((2 * 2 ** (1 / depth) - 1) * q)
    while (p + q) ** depth <= 2 * (2 * q) ** depth:
        p += 1
    while (p - 1 + q) ** depth > 2 * (2 * q) ** depth:
        p -= 1
    assert mu_chain_certificate(Fraction(p, q), 1, 1).k == depth
    with pytest.raises(ValueError, match=f"deeper than {depth}"):
        mu_chain_certificate(Fraction(p - 1, q), 1, 1)


def test_certificate_validation():
    with pytest.raises(ValueError):
        mu_chain_certificate(Fraction(1), 1, 5)
    with pytest.raises(ValueError):
        mu_chain_certificate(Fraction(1, 2), 1, 5)


def test_mu_arguments_are_exact_rationals():
    # Fraction(1.1) would certify 2476979795053773/2251799813685248
    with pytest.raises(TypeError):
        mu_chain_certificate(1.1, 1, 1)
    with pytest.raises(TypeError):
        find_split(14, 7, 7, 2.0)
    for mu in (Fraction(11, 10), "11/10"):
        assert mu_chain_certificate(mu, 1, 24) == mu_chain_certificate(Fraction(11, 10), 1, 24)
    assert mu_chain_certificate(2, 1, 10) == mu_chain_certificate(Fraction(2), 1, 10)
    for mu in (2, "2", Fraction(2)):
        assert find_split(14, 7, 7, mu) == (7, 7)


_LINE = tabulate(lambda n: n, 10)
_SQRT = builtin_error_term("floor_sqrt", 10)

# Every integer argument of these calls, with the other arguments valid.
_INT_ARGUMENTS = {
    "mu_chain_certificate.N": lambda x: mu_chain_certificate(2, x, 3),
    "mu_chain_certificate.n": lambda x: mu_chain_certificate(2, 1, x),
    "find_split.z": lambda x: find_split(x, 1, 5, 2),
    "find_split.lo": lambda x: find_split(7, x, 5, 2),
    "find_split.hi": lambda x: find_split(7, 1, x, 2),
    "g_deficit.n": lambda x: g_deficit(_LINE, None, x, 2),
    "g_deficit.m": lambda x: g_deficit(_LINE, None, 1, x),
    "threshold_gap_example.N": lambda x: threshold_gap_example(x, [5, 12]),
    "threshold_gap_example.anchor": lambda x: threshold_gap_example(3, [5, x, 40]),
    "two_good_chain.n": lambda x: two_good_chain(x, 2),
    "two_good_chain.k": lambda x: two_good_chain(9, x),
    "builtin_error_term.horizon": lambda x: builtin_error_term("zero", x),
    "zero_error_term.horizon": lambda x: zero_error_term(x),
    "convex_from_error.horizon": lambda x: convex_from_error(_SQRT, x),
    "linear_error_example.horizon": lambda x: linear_error_example(_SQRT, 1, x),
    "enumerate_rationals.i": lambda x: enumerate_rationals(x),
    "rational_slope_sequence.K": lambda x: rational_slope_sequence(_SQRT, x, 10),
    "rational_slope_sequence.h_max": lambda x: rational_slope_sequence(_SQRT, 1, x),
}


@pytest.mark.parametrize("bad", [True, 1.0, Fraction(1), "1", None])
@pytest.mark.parametrize("call", _INT_ARGUMENTS.values(), ids=_INT_ARGUMENTS.keys())
def test_integer_arguments_must_be_ints(call, bad):
    with pytest.raises(TypeError, match="must be an int"):
        call(bad)


def test_integer_arguments_out_of_range_stay_value_errors():
    out_of_range = {
        "mu_chain_certificate.N": 0, "mu_chain_certificate.n": 0,
        "find_split.lo": 6, "find_split.hi": 0,
        "g_deficit.n": 0, "g_deficit.m": 10,
        "threshold_gap_example.N": 1, "threshold_gap_example.anchor": 4,
        "two_good_chain.n": 3, "two_good_chain.k": 0,
        "builtin_error_term.horizon": 0, "zero_error_term.horizon": 0,
        "convex_from_error.horizon": 11, "linear_error_example.horizon": 0,
        "enumerate_rationals.i": 0,
        "rational_slope_sequence.K": 0, "rational_slope_sequence.h_max": 11,
    }
    for name, value in out_of_range.items():
        with pytest.raises(ValueError):
            _INT_ARGUMENTS[name](value)
    for horizon in (True, 5.0, Fraction(5), "5"):
        with pytest.raises(TypeError, match="must be an int"):
            threshold_gap_example(3, [5, 12], horizon)
    assert threshold_gap_example(3, [5, 12], None) == threshold_gap_example(3, [5, 12], 11)


# --- splits ----------------------------------------------------------------------

def test_find_split_examples():
    assert find_split(14, 7, 7, Fraction(2)) == (7, 7)
    assert find_split(7, 3, 4, Fraction(2)) == (3, 4)
    assert find_split(10, 3, 3, Fraction(2)) is None


def _split_oracle(z, lo, hi, mu):
    for x in range(lo, hi + 1):
        y = z - x
        if x <= y and y * mu.denominator <= mu.numerator * x:
            return x, y
    return None


@given(
    st.integers(2, 400),
    st.integers(1, 60),
    st.integers(0, 30),
    st.fractions(min_value=Fraction(17, 16), max_value=4, max_denominator=16),
)
@settings(max_examples=300, deadline=None)
def test_find_split_matches_scan_oracle(z, lo, span, mu):
    hi = lo + span
    assert find_split(z, lo, hi, mu) == _split_oracle(z, lo, hi, mu)


def test_chain_coverage_reduction_matches_per_z_scan():
    for mu in (Fraction(2), Fraction(3), Fraction(3, 2)):
        probe = mu_chain_certificate(mu, 1, 1)
        start = max(probe.N1, probe.N2)
        for n in range(start, start + 12):
            cert = mu_chain_certificate(mu, 1, n)
            brute = set()
            for i in range(cert.k):
                for z in range(cert.u[i + 1], cert.v[i + 1] + 1):
                    if find_split(z, cert.u[i], cert.v[i], mu) is None:
                        brute.add((i, z))
            assert set(chain_coverage_failures(cert)) == brute
            assert not brute


def test_chain_coverage_detects_gaps():
    # a forged certificate with a hole: level-0 range reaches past what a
    # single base element can split
    from fekete.limits import MuChainCertificate

    forged = MuChainCertificate(
        mu=Fraction(3, 2),
        N=1,
        k=1,
        N1=1,
        N2=2,
        n=10,
        u=(10, 20),
        v=(10, 26),  # true v_1 is 25: z = 26 > (1 + mu) * 10 cannot split
        doubling_covered=True,
    )
    assert chain_coverage_failures(forged) == [(0, 26)]


@pytest.mark.parametrize(
    "mu, u, v, expected",
    [
        # the lower end alone: z_min = 9 lies above z* = 6, so no z is
        # tested on its own, and u_0 = 5 exceeds z_min // 2 = 4
        (Fraction(3), (5, 9), (5, 9), [(0, 9)]),
        # the small-z test alone: both ends split, z = 3 does not
        (Fraction(3, 2), (1, 2), (2, 4), [(0, 3)]),
    ],
)
def test_chain_coverage_reports_the_lower_end_and_a_small_z(mu, u, v, expected):
    from fekete.limits import MuChainCertificate

    forged = MuChainCertificate(mu, 1, 1, 1, 2, u[0], u, v, False)
    assert chain_coverage_failures(forged) == expected
    for i, z in expected:  # no split in the per-z scan of the definition
        assert not any(x <= z - x <= mu * x for x in range(u[i], v[i] + 1))


def test_smoothing_an_integer_table_has_no_image_and_scans_as_brute_force():
    # an integer table (read from integer CSV, n**2: superadditive) holds
    # its grid and no image, so its smoothing has none either: every pair
    # is decided on the grid
    a = model.parse_error_term("".join(f"{n},{n * n}\n" for n in range(1, 41)))
    f = builtin_error_term("floor_power", 40, {"c": 2, "delta": Fraction(1, 2)})
    g = smoothed(a, f)
    assert a._fixed_point() is None and g._fixed_point() is None
    for domain in (FullDomain(), MuBandDomain(Fraction(3, 2), 2), OnePlusDomain(1)):
        report = scan_violations(g, None, domain)
        assert report.violations and report == brute_force_scan(g, None, domain)
    sums = list(f.weight_sums())
    assert g.values == tuple(a.value(k) - 3 * k * sums[k - 1] for k in range(1, 41))
