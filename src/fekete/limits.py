"""Certified limit information from finite prefixes: slope brackets, the
error-smoothing transform as a prefix of its own, and doubling-chain
certificates for band-restricted subadditivity.

Brackets compare slopes in integers, on ``SequencePrefix._bounds``.  The
smoothing transform has one code path: ``smoothed(a, f)`` is the prefix
g(k) = a(k) - 3k * W(k-1), built as the convex prefix is; its deficit on
a pair, ``g_deficit``, reads three of its exact values, and its band
check and bracket are those of any prefix, on its image when ``a`` has
one.  A ``Fraction`` is built only for a reported value.

Nothing here asserts a limit value (a prefix cannot; the limit may even be
minus infinity).  Every output is an exact, finitely-checkable witness:
an upper bound with the index attaining it, window-bound samples, or a
chain whose inequalities were verified as stated.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _EXPORTS
from .model import (
    ErrorTerm,
    SequencePrefix,
    _record,
    _require_int,
    _require_mu,
    _require_prefix_and_term,
    _slope_below,
    _weighted,
    format_rational,
)

__all__ = list(_EXPORTS["limits"])


@_record
class Eq8Sample:
    """One window-bound sample: a(n)/n <= bound for every extension that is
    subadditive above the bracket's threshold, where
    bound = a(k)/k + max(|a(k+1)|, ..., |a(2k-1)|) / n."""

    n: int
    k: int
    bound: Fraction


@_record
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


def _least_slope(bounds, first: int, last: int) -> int:
    """The first k in [first, last] minimising a(k)/k, for the ``bounds``
    of ``SequencePrefix._bounds``: one scan, each k held against the least
    so far (``_slope_below``, after a test that settles a falling slope)."""
    lo, hi, _ = bounds
    best = first
    for k in range(first + 1, last + 1):
        if hi[k] * best < lo[best] * k or _slope_below(bounds, k, best):
            best = k
    return best


def _largest_abs(bounds, first: int, last: int) -> tuple[int, int]:
    """max(|a(j)| for first <= j <= last) as a pair (p, q), (0, 1) if the
    range is empty; ``bounds`` as for ``_least_slope``.  As max(lo[j],
    -hi[j]) <= |a(j)| * S <= max(hi[j], -lo[j]), only the j whose upper
    end reaches the largest lower end can attain it; exact values decide.
    """
    lo, hi, exact = bounds
    floor = max(max(lo[first:last + 1], default=0), -min(hi[first:last + 1], default=0))
    best = 0, 1
    for j in range(first, last + 1):
        if hi[j] >= floor or -lo[j] >= floor:
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

    Each argmin and window maximum is decided on ``a._bounds()``, so a
    parsed prefix or its smoothing builds no grid.
    """
    _require_prefix_and_term(a)
    _require_int(N, "threshold")
    horizon = a.horizon
    if not 1 <= N <= horizon:
        raise ValueError(f"threshold {N} outside 1..{horizon}")
    bounds = a._bounds()
    exact = bounds[2]
    argmin = _least_slope(bounds, N, horizon)
    half = horizon // 2
    candidates = {N, argmin}
    if half >= N:
        candidates.add(_least_slope(bounds, N, half))
    samples = []
    for k in sorted(c for c in candidates if c <= half):
        num, den = exact(k)
        top, top_den = _largest_abs(bounds, k + 1, 2 * k - 1)
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

    g is ``model._weighted(f, a, H')``.  ``f`` keeps the
    last prefix it smoothed, found by the identity of ``a`` (never by
    comparing values), so repeated calls with the same (a, f) share one.
    """
    _require_prefix_and_term(a, f)
    if f is None:
        return a
    cached = f.__dict__.get("_smoothed")
    if cached is None or cached[0] is not a:
        cached = f._smoothed = a, _weighted(f, a, min(a.horizon, f.horizon))
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

    which is g(n+m) - g(n) - g(m) for the prefix g = ``smoothed(a, f)``,
    from ``g._exact(n+m, n, m)``: for a parsed ``a``, three literals and
    one ``f._weights`` pass, with no table built.  The deficit is reduced
    to a ``Fraction`` once.  ``f=None`` gives ``a``'s deficit.
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
    if g._grid is not None:  # read at once: through _exact a sweep pays ~1 us a call
        denom, table = g._grid
        return Fraction(table[s] - table[n] - table[m], denom)
    (x_s, d_s), (x_n, d_n), (x_m, d_m) = g._exact(s, n, m)
    if d_s == d_n == d_m:  # one grid: no products
        return Fraction(x_s - x_n - x_m, d_s)
    return Fraction(x_s, d_s) - Fraction(x_n, d_n) - Fraction(x_m, d_m)


@_record
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
        payload = {name: getattr(self, name) for name in self.__match_args__}
        return {**payload, "mu": format_rational(self.mu), "u": list(self.u), "v": list(self.v)}


# The deepest chain ``mu_chain_certificate`` builds.  Its depth k grows
# like 2*ln(2)/(mu - 1) as mu falls to 1: 13,863 levels, printed in 58 MB,
# at mu = 10001/10000.
MAX_CHAIN_DEPTH = 2000


def mu_chain_certificate(mu, N: int, n: int) -> MuChainCertificate:
    """Build the chain certificate for growth factor ``mu`` from base ``n``.

    ``mu`` is an exact rational (Fraction, int or ``p/q`` string); floats
    raise TypeError.  A mu whose depth k exceeds ``MAX_CHAIN_DEPTH`` (mu
    below about 1 + 1/1443) raises ValueError."""
    mu = _require_mu(mu)
    _require_int(N, "threshold")
    _require_int(n, "base")
    if N < 1 or n < 1:
        raise ValueError("threshold and base must be positive")
    p, q = mu.numerator, mu.denominator
    # k is the least k with k*r > 1, r = log2((1 + mu)/2).  The double r,
    # from log1p((mu - 1)/2) correctly rounded (1 for mu >= 3, where k <=
    # 2), is within 1e-15 of r relatively: it refuses a mu past the bound
    # with no power built, else puts k within one, and exact powers settle k
    r = math.log1p((p - q) / (2 * q) if p < 3 * q else 1.0) / math.log(2)
    too_deep = f"mu is too close to 1: its chain is deeper than {MAX_CHAIN_DEPTH}"
    if MAX_CHAIN_DEPTH * r < 1 - 1e-9:
        raise ValueError(too_deep)
    # k is short while 2**(k+1) >= (1 + mu)**k, that is high <= 2 * low
    # for the pair high, low = (p + q)**k, (2q)**k, built once and then
    # stepped with k by one exact division or multiplication each
    k = int(1 / r) + 1
    high, low = (p + q) ** k, (2 * q) ** k
    while k > 1:
        below = high // (p + q), low // (2 * q)
        if below[0] <= 2 * below[1]:
            break
        k, (high, low) = k - 1, below
    while k <= MAX_CHAIN_DEPTH and high <= 2 * low:
        k, high, low = k + 1, high * (p + q), low * (2 * q)
    if k > MAX_CHAIN_DEPTH:
        raise ValueError(too_deep)
    # (1 + mu)**k = high / q**k exceeds 2**(k+1) by gap = (high - 2 *
    # low) / q**k, and N1 = ceil((1 + mu)**k / mu / gap)
    n1 = -(-high * q // (p * (high - 2 * low)))
    n2 = max(N, -(-q // (p - q)))  # ceil(1 / (mu - 1))
    u, v = [n], [n]
    for _ in range(k):
        u.append(2 * u[-1])
        v.append(v[-1] + v[-1] * p // q)
    return MuChainCertificate(mu, N, k, n1, n2, n, tuple(u), tuple(v), 2 * u[-1] <= v[-1])


def find_split(z: int, lo: int, hi: int, mu) -> tuple[int, int] | None:
    """Smallest x in [lo, hi] with x + y = z and x <= y <= mu * x, or None.

    The feasible x range is [ceil(z/(1+mu)), z//2] intersected with
    [lo, hi], so the answer is a closed-form endpoint comparison.  ``mu``
    must be an exact rational; floats raise TypeError.
    """
    mu = _require_mu(mu)
    _require_int(z, "z")
    _require_int(lo, "lo")
    _require_int(hi, "hi")
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return _least_split(z, lo, hi, mu.numerator, mu.denominator)


def _least_split(z: int, lo: int, hi: int, p: int, q: int) -> tuple[int, int] | None:
    """``find_split(z, lo, hi, p/q)`` for valid arguments, in integers."""
    x_min = max(lo, -(-z * q // (p + q)))
    return (x_min, z - x_min) if x_min <= min(hi, z // 2) else None


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
    p, q = cert.mu.numerator, cert.mu.denominator
    z_star = -(-3 * (p + q) // (p - q))  # ceil(3(1 + mu)/(mu - 1))
    failures = set()
    for i in range(cert.k):
        lo, hi = cert.u[i], cert.v[i]
        z_min, z_max = cert.u[i + 1], cert.v[i + 1]
        if lo > z_min // 2:
            failures.add((i, z_min))
        if -(-z_max * q // (p + q)) > hi:  # ceil(z_max/(1 + mu))
            failures.add((i, z_max))
        for z in range(z_min, min(z_max, z_star - 1) + 1):
            if _least_split(z, lo, hi, p, q) is None:
                failures.add((i, z))
    return sorted(failures)
