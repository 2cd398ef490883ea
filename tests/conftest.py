"""Shared corpus builders for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from fekete import SequencePrefix, Violation, ViolationReport


def tabulate(fn, horizon: int) -> SequencePrefix:
    return SequencePrefix([fn(n) for n in range(1, horizon + 1)])


def ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def ceil_cbrt_sq(n: int) -> int:
    """ceil(n ** (2/3)): smallest t with t**3 >= n**2."""
    target = n * n
    t = round(target ** (1 / 3))
    while t ** 3 < target:
        t += 1
    while t >= 1 and (t - 1) ** 3 >= target:
        t -= 1
    return t


def monotone_rationals(horizon: int, seed: int) -> list[Fraction]:
    """Deterministic non-decreasing rationals for shift tests."""
    rng = random.Random(seed)
    out = []
    total = Fraction(0)
    for _ in range(horizon):
        total += Fraction(rng.randrange(0, 7), rng.randrange(1, 9))
        out.append(total)
    return out


def reference_admits(domain, n: int, m: int) -> bool:
    """Whether ``domain`` admits {n, m}, from each variant's definition.

    Written from the report shape alone, in Fraction arithmetic, so it
    shares no code with the domains' own interval bounds.
    """
    n, m = min(n, m), max(n, m)
    spec = domain.to_json_dict()
    variant = spec["variant"]
    if variant == "explicit":
        return [n, m] in spec["pairs"]
    if n < spec.get("N", 1):
        return False
    if variant == "muband":
        return m <= Fraction(spec["mu"]) * n
    if variant == "oneplus":
        return m - n <= 1
    assert variant in ("full", "threshold"), variant
    return True


def reference_q(a: SequencePrefix, n_lo: int) -> list[Fraction]:
    """q(n) = max of a(j)/j over n <= j <= 2n for n in [n_lo, H//2], one
    slice and one max per n, straight from the definition."""
    slopes = [Fraction(v) / j for j, v in enumerate(a.values, start=1)]
    return [max(slopes[n - 1 : 2 * n]) for n in range(n_lo, a.horizon // 2 + 1)]


def brute_force_scan(a, f, domain):
    """Every pair n <= m, n + m <= H that the closed-form definition of the
    domain admits, decided in Fractions."""
    admitted = [
        (n, m)
        for n in range(1, a.horizon + 1)
        for m in range(n, a.horizon - n + 1)
        if reference_admits(domain, n, m)
    ]
    bad = []
    for n, m in admitted:
        deficit = a.value(n + m) - a.value(n) - a.value(m)
        if f is not None:
            deficit -= f.value(n + m)
        if deficit > 0:
            bad.append(Violation(n, m, deficit))
    bad.sort(key=lambda v: (v.n + v.m, v.n))
    return ViolationReport(domain=domain, pairs_checked=len(admitted), violations=tuple(bad))
