"""Slope brackets, the smoothing-transform deficit, chain certificates."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fekete import (
    ErrorTerm,
    SequencePrefix,
    builtin_error_term,
    chain_coverage_failures,
    convex_from_error,
    fekete_bracket,
    find_split,
    g_deficit,
    mu_chain_certificate,
    scan_violations,
    threshold_gap_example,
)

from conftest import ceil_sqrt, monotone_rationals, tabulate


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


def test_g_deficit_validation():
    a = tabulate(lambda n: n, 10)
    with pytest.raises(ValueError):
        g_deficit(a, None, 3, 2)
    with pytest.raises(ValueError):
        g_deficit(a, None, 5, 6)
    with pytest.raises(ValueError):
        g_deficit(a, ErrorTerm([0] * 4), 2, 3)


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
