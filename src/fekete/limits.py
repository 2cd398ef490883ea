"""Certified limit information from finite prefixes: slope brackets, the
error-smoothing transform as a prefix of its own, and doubling-chain
certificates for band-restricted subadditivity.

Brackets compare slopes in integers: on the fixed-point image of a
parsed or convex prefix first, with exact values only where the image
cannot decide, and on the grid (``SequencePrefix.grid``) for any other
prefix.  The smoothing transform has one code path: ``smoothed(a, f)``
is the prefix g(k) = a(k) - 3k * W(k-1), built as the convex prefix is;
its deficit on a pair, ``g_deficit``, reads three values (of a parsed
``a``, with three weight sums and no table), and its band check is a
plain scan of that prefix, on its image when ``a`` has one.  A
``Fraction`` is built only for a reported value.

Nothing here asserts a limit value (a prefix cannot; the limit may even be
minus infinity).  Every output is an exact, finitely-checkable witness:
an upper bound with the index attaining it, window-bound samples, or a
chain whose inequalities were verified as stated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .constructions import _weighted
from .model import (
    ErrorTerm,
    SequencePrefix,
    _coerce,
    _require_int,
    _require_prefix_and_term,
    format_rational,
)

__all__ = [
    "Eq8Sample",
    "LimitBracket",
    "MuChainCertificate",
    "chain_coverage_failures",
    "fekete_bracket",
    "find_split",
    "g_deficit",
    "mu_chain_certificate",
    "smoothed",
]


@dataclass(frozen=True)
class Eq8Sample:
    """One window-bound sample: a(n)/n <= bound for every extension that is
    subadditive above the bracket's threshold, where
    bound = a(k)/k + max(|a(k+1)|, ..., |a(2k-1)|) / n."""

    n: int
    k: int
    bound: Fraction


@dataclass(frozen=True)
class LimitBracket:
    """Certified upper-bound data for the limiting slope of any
    threshold-subadditive extension of a prefix."""

    N: int
    min_slope: Fraction
    argmin_k: int
    eq8_samples: tuple[Eq8Sample, ...]

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "min_slope": format_rational(self.min_slope),
            "argmin_k": self.argmin_k,
            "eq8_samples": [
                {"n": s.n, "k": s.k, "bound": format_rational(s.bound)}
                for s in self.eq8_samples
            ],
        }


def _least_slope(lo, hi, first: int, last: int, exact) -> int:
    """The first k in [first, last] minimising a(k)/k.

    lo[k] <= a(k) * S <= hi[k] at one scale S > 0, and ``exact(k)`` is
    a(k) as an integer pair (p, q), q >= 1.  With b the first k minimising
    hi[k]/k, only the k with lo[k]/k <= hi[b]/b can attain the least
    slope, and their exact slopes decide in order of k.  On the grid (lo
    is hi) b is the answer.
    """
    best = first
    for k in range(first + 1, last + 1):
        if hi[k] * best < hi[best] * k:
            best = k
    if lo is hi:
        return best
    top, bound = hi[best], best
    candidates = [k for k in range(first, last + 1) if lo[k] * bound <= top * k]
    best = candidates[0]
    low_num, low_den = exact(best)
    for k in candidates[1:]:
        num, den = exact(k)
        if den == low_den:  # one denominator: no big product
            below = num * best < low_num * k
        else:
            below = num * low_den * best < low_num * den * k
        if below:
            best, low_num, low_den = k, num, den
    return best


def _largest_abs(lo, hi, first: int, last: int, exact) -> tuple[int, int]:
    """max(|a(j)| for first <= j <= last) as a pair (p, q), (0, 1) if the
    range is empty; arguments as for ``_least_slope``.  As max(lo[j],
    -hi[j]) <= |a(j)| * S <= max(hi[j], -lo[j]), only the j whose upper
    end reaches the largest lower end can attain it; exact values decide.
    """
    if first > last:
        return 0, 1
    if lo is hi:  # the grid: a(j) = lo[j] / D
        return max(map(abs, lo[first:last + 1])), exact(first)[1]
    floor = max(max(lo[j], -hi[j]) for j in range(first, last + 1))
    best = 0, 1
    for j in range(first, last + 1):
        if max(hi[j], -lo[j]) >= floor:
            num, den = exact(j)
            if abs(num) * best[1] > best[0] * den:
                best = abs(num), den
    return best


def fekete_bracket(a: SequencePrefix, N: int) -> LimitBracket:
    """Minimum slope over N <= k <= H, with window-bound samples at n = H.

    ``min_slope`` is an exact upper bound on the limiting slope of any
    sequence extending the prefix that is subadditive for pairs above the
    threshold.  Samples are emitted for k in {N, argmin} restricted to
    k <= H//2, where the window [k+1, 2k-1] lies inside the horizon and
    n = H satisfies n >= 2k; an empty window contributes 0.

    A parsed or convex prefix without its grid narrows each argmin and
    window maximum on its fixed-point image and decides among the few
    indices left by exact values (``SequencePrefix._exact``: a parsed
    prefix's exact builder reads one literal, so it builds no grid).  Any
    other prefix compares slopes on its grid, its own image, by cross
    products.
    """
    _require_int(N, "threshold")
    horizon = a.horizon
    if not 1 <= N <= horizon:
        raise ValueError(f"threshold {N} outside 1..{horizon}")
    image = a._fixed_point(from_values=False)
    if image is None:
        denom, table = a.grid
        lo = hi = table

        def exact(k):
            return table[k], denom
    else:
        lo, hi = image
        exact = functools.cache(a._exact)  # the ranges below share candidates
    argmin = _least_slope(lo, hi, N, horizon, exact)
    half = horizon // 2
    candidates = {N, argmin}
    if half >= N:
        candidates.add(_least_slope(lo, hi, N, half, exact))
    samples = []
    for k in sorted(c for c in candidates if c <= half):
        num, den = exact(k)
        top, top_den = _largest_abs(lo, hi, k + 1, 2 * k - 1, exact)
        if top_den != den:
            num, top, den = num * top_den, top * den, den * top_den
        # a(k)/k + max|a(j)|/H
        bound = Fraction(num * horizon + top * k, den * k * horizon)
        samples.append(Eq8Sample(n=horizon, k=k, bound=bound))
    num, den = exact(argmin)
    return LimitBracket(N, Fraction(num, den * argmin), argmin, tuple(samples))


def smoothed(a: SequencePrefix, f: ErrorTerm | None) -> SequencePrefix:
    """The smoothing transform of ``a`` by ``f``, up to its finite part:
    the prefix g(1..H'), H' = min(a.horizon, f.horizon), with

        g(k) = a(k) - 3k * W(k-1),  W(j) = sum(f(x)/x^2 for 1 < x <= j),

    with W(0) = -f(1) as in ``ErrorTerm.weight_sums``.  The paper's G(k) =
    a(k) + 3k * sum(f(x)/x^2 for x >= k) is g(k) + 3k * S, S = sum(f(x)/x^2
    for x > 1), so G and g have the same deficit G(n+m) - G(n) - G(m) on
    every pair, and ``scan_violations(smoothed(a, f), None, domain)``
    checks G's subadditivity on the domain.  ``smoothed(a, None)`` is
    ``a``.

    g is ``constructions._weighted(f, a, -3, 0, H')``.  ``f`` keeps the
    last prefix it smoothed, found by the identity of ``a`` (never by
    comparing values), so repeated calls with the same (a, f) share one.
    """
    _require_prefix_and_term(a, f)
    if f is None:
        return a
    cached = f.__dict__.get("_smoothed")
    if cached is None or cached[0] is not a:
        cached = f._smoothed = a, _weighted(f, a, -3, 0, min(a.horizon, f.horizon))
    return cached[1]


def g_deficit(
    a: SequencePrefix, f: ErrorTerm | None, n: int, m: int
) -> Fraction:
    """Deficit G(n+m) - G(n) - G(m) of the smoothing transform G(n) = a(n)
    + 3n * T(n), where T(n) is the infinite tail sum of f(x)/x^2 from x =
    n on.

    The tails cancel algebraically, leaving the finite form

        [a(n+m) - a(n) - a(m)]
            - 3n * sum(f(x)/x^2 for n <= x < n+m)
            - 3m * sum(f(x)/x^2 for m <= x < n+m)

    which is g(n+m) - g(n) - g(m) for the prefix g = ``smoothed(a, f)``:
    three entries of its grid when g holds one; for an ``a`` with an
    exact builder and no grid (a parsed file: one literal each), three
    of its values ``a._exact(k) = (p, q)`` and, from one pass of
    ``f._weights(n + m)`` that holds no table, the three Wt[k], as g(k) =
    (p * D_W - 3k * Wt[k] * q) / (q * D_W); else three ``_exact`` values
    of g, from its grid, built once from that of ``a``.  The deficit is
    reduced to a ``Fraction`` once.  ``f=None`` gives ``a``'s deficit.
    """
    g = smoothed(a, f)
    _require_int(n, "n")
    _require_int(m, "m")
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got ({n}, {m})")
    s = n + m
    if s > a.horizon:
        raise ValueError(f"pair ({n}, {m}) exceeds sequence horizon {a.horizon}")
    if f is not None and s > f.horizon:
        raise ValueError(f"pair ({n}, {m}) exceeds error-term horizon {f.horizon}")
    if g._grid is not None:  # one read of the grid held
        denom, table = g._grid
        return Fraction(table[s] - table[n] - table[m], denom)
    if g is not a and a._grid is None and a._builders[3] is not None:  # one value alone
        w_denom, sums = f._weights(s)
        w = {k: x for k, x in enumerate(sums, start=1) if k in (n, m, s)}

        def exact(k):
            p, q = a._exact(k)
            return p * w_denom - 3 * k * w[k] * q, q * w_denom
    else:
        exact = g._exact
    (x_s, d_s), (x_n, d_n), (x_m, d_m) = exact(s), exact(n), exact(m)
    if d_s == d_n == d_m:  # one grid: no products
        return Fraction(x_s - x_n - x_m, d_s)
    return Fraction(x_s, d_s) - Fraction(x_n, d_n) - Fraction(x_m, d_m)


@dataclass(frozen=True)
class MuChainCertificate:
    """Doubling chain u (u_{i+1} = 2 u_i) against the growth chain v
    (v_{i+1} = v_i + floor(mu * v_i)) from a common base n.

    k is the smallest depth with (1+mu)^(k-1) <= 2^(k+1) < (1+mu)^k, N1
    the analytic base bound above which the growth chain provably overtakes
    the doubled chain, and N2 the threshold from which consecutive pairs
    (n, n+1) fall inside the mu-band.  ``doubling_covered`` records the
    directly verified comparison 2 u_k <= v_k for this base.
    """

    mu: Fraction
    N: int
    k: int
    N1: int
    N2: int
    n: int
    u: tuple[int, ...]
    v: tuple[int, ...]
    doubling_covered: bool

    def to_json_dict(self) -> dict:
        return {
            "mu": format_rational(self.mu),
            "N": self.N,
            "k": self.k,
            "N1": self.N1,
            "N2": self.N2,
            "n": self.n,
            "u": list(self.u),
            "v": list(self.v),
            "doubling_covered": self.doubling_covered,
        }


def mu_chain_certificate(mu, N: int, n: int) -> MuChainCertificate:
    """Build the chain certificate for growth factor ``mu`` from base ``n``.

    ``mu`` is an exact rational (Fraction, int or ``p/q`` string); floats
    raise TypeError."""
    mu = _coerce(mu)
    _require_int(N, "threshold")
    _require_int(n, "base")
    if mu <= 1:
        raise ValueError("mu must exceed 1")
    if N < 1 or n < 1:
        raise ValueError("threshold and base must be positive")
    base = 1 + mu
    k = 1
    power = base  # (1 + mu) ** k
    while 2 ** (k + 1) >= power:
        k += 1
        power *= base
    assert power / base <= 2 ** (k + 1) < power
    gap = power - 2 ** (k + 1)
    n1 = math.ceil((power / mu) / gap)
    n2 = max(N, math.ceil(1 / (mu - 1)))
    u = [n]
    v = [n]
    for _ in range(k):
        u.append(2 * u[-1])
        v.append(v[-1] + math.floor(mu * v[-1]))
    return MuChainCertificate(
        mu=mu,
        N=N,
        k=k,
        N1=n1,
        N2=n2,
        n=n,
        u=tuple(u),
        v=tuple(v),
        doubling_covered=2 * u[-1] <= v[-1],
    )


def find_split(z: int, lo: int, hi: int, mu) -> tuple[int, int] | None:
    """Smallest x in [lo, hi] with x + y = z and x <= y <= mu * x, or None.

    The feasible x range is [ceil(z/(1+mu)), z//2] intersected with
    [lo, hi], so the answer is a closed-form endpoint comparison.  ``mu``
    must be an exact rational; floats raise TypeError.
    """
    mu = _coerce(mu)
    _require_int(z, "z")
    _require_int(lo, "lo")
    _require_int(hi, "hi")
    if mu <= 1:
        raise ValueError("mu must exceed 1")
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    x_min = max(lo, math.ceil(Fraction(z) / (1 + mu)))
    x_max = min(hi, z // 2)
    if x_min > x_max:
        return None
    return x_min, z - x_min


def chain_coverage_failures(cert: MuChainCertificate) -> list[tuple[int, int]]:
    """Exact whole-interval split coverage check for a chain certificate.

    For every level i, every z in [u_{i+1}, v_{i+1}] must split as
    z = x + y with x in [u_i, v_i] and x <= y <= mu x.  The per-z
    conditions reduce to endpoints: u_i <= z//2 is hardest at the smallest
    z, ceil(z/(1+mu)) <= v_i at the largest, and ceil(z/(1+mu)) <= z//2
    holds outright once z >= 3(1+mu)/(mu-1); the finitely many z below
    that bound are tested directly.  Returns (level, z) witnesses, empty
    when every z is covered.
    """
    mu = cert.mu
    z_star = math.ceil(3 * (1 + mu) / (mu - 1))
    failures = set()
    for i in range(cert.k):
        lo, hi = cert.u[i], cert.v[i]
        z_min, z_max = cert.u[i + 1], cert.v[i + 1]
        if lo > z_min // 2:
            failures.add((i, z_min))
        if math.ceil(Fraction(z_max) / (1 + mu)) > hi:
            failures.add((i, z_max))
        for z in range(z_min, min(z_max, z_star - 1) + 1):
            if find_split(z, lo, hi, mu) is None:
                failures.add((i, z))
    return sorted(failures)
