"""Certified limit information from finite prefixes: slope brackets, the
exact finite form of the error-smoothing transform, and doubling-chain
certificates for band-restricted subadditivity.

Nothing here asserts a limit value (a prefix cannot; the limit may even be
minus infinity).  Every output is an exact, finitely-checkable witness:
an upper bound with the index attaining it, window-bound samples, or a
chain whose inequalities were verified as stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import ErrorTerm, SequencePrefix, _coerce, format_rational

__all__ = [
    "Eq8Sample",
    "LimitBracket",
    "MuChainCertificate",
    "chain_coverage_failures",
    "fekete_bracket",
    "find_split",
    "g_deficit",
    "mu_chain_certificate",
]


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


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


def fekete_bracket(a: SequencePrefix, N: int) -> LimitBracket:
    """Minimum slope over N <= k <= H, with window-bound samples at n = H.

    ``min_slope`` is an exact upper bound on the limiting slope of any
    sequence extending the prefix that is subadditive for pairs above the
    threshold.  Samples are emitted for k in {N, argmin} restricted to
    k <= H//2, where the window [k+1, 2k-1] lies inside the horizon and
    n = H satisfies n >= 2k; an empty window contributes 0.
    """
    horizon = a.horizon
    if not 1 <= N <= horizon:
        raise ValueError(f"threshold {N} outside 1..{horizon}")
    slopes = a.slopes()
    argmin = N
    min_slope = slopes[N - 1]
    for k in range(N + 1, horizon + 1):
        if slopes[k - 1] < min_slope:
            min_slope = slopes[k - 1]
            argmin = k
    half = horizon // 2
    candidates = {N, argmin}
    if half >= N:
        inner = min(range(N, half + 1), key=lambda k: slopes[k - 1])
        candidates.add(inner)
    samples = []
    for k in sorted(c for c in candidates if c <= half):
        window = max(
            (abs(a.value(j)) for j in range(k + 1, 2 * k)), default=Fraction(0)
        )
        samples.append(Eq8Sample(n=horizon, k=k, bound=slopes[k - 1] + window / horizon))
    return LimitBracket(N, min_slope, argmin, tuple(samples))


def g_deficit(
    a: SequencePrefix, f: ErrorTerm | None, n: int, m: int
) -> Fraction:
    """Deficit of the smoothing transform G(n) = a(n) + 3n * T(n), where
    T(n) is the infinite tail sum of f(x)/x^2 from x = n on.

    G(n+m) - G(n) - G(m) is returned in the finite form where the tails
    cancel algebraically:

        [a(n+m) - a(n) - a(m)]
            - 3n * sum(f(x)/x^2 for n <= x < n+m)
            - 3m * sum(f(x)/x^2 for m <= x < n+m)

    so the value is exactly computable even though G itself is not.
    """
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got ({n}, {m})")
    s = n + m
    if s > a.horizon:
        raise ValueError(f"pair ({n}, {m}) exceeds sequence horizon {a.horizon}")
    plain = a.value(s) - a.value(n) - a.value(m)
    if f is None:
        return plain
    if s > f.horizon:
        raise ValueError(f"pair ({n}, {m}) exceeds error-term horizon {f.horizon}")
    weights = f.weights
    return (
        plain
        - 3 * n * (weights[s - 1] - weights[n - 1])
        - 3 * m * (weights[s - 1] - weights[m - 1])
    )


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
    n1 = _ceil((power / mu) / gap)
    n2 = max(N, _ceil(1 / (mu - 1)))
    u = [n]
    v = [n]
    for _ in range(k):
        u.append(2 * u[-1])
        v.append(v[-1] + _floor(mu * v[-1]))
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
    if mu <= 1:
        raise ValueError("mu must exceed 1")
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    x_min = max(lo, _ceil(Fraction(z) / (1 + mu)))
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
    z_star = _ceil(3 * (1 + mu) / (mu - 1))
    failures = set()
    for i in range(cert.k):
        lo, hi = cert.u[i], cert.v[i]
        z_min, z_max = cert.u[i + 1], cert.v[i + 1]
        if lo > z_min // 2:
            failures.add((i, z_min))
        if _ceil(Fraction(z_max) / (1 + mu)) > hi:
            failures.add((i, z_max))
        for z in range(z_min, min(z_max, z_star - 1) + 1):
            if find_split(z, lo, hi, mu) is None:
                failures.add((i, z))
    return sorted(failures)
