"""Shared corpus builders for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from fekete import (
    HorizonExhausted,
    SequencePrefix,
    Violation,
    ViolationReport,
    convex_from_error,
    enumerate_rationals,
    format_rational,
    simplest_rational_in,
)
from fekete.constructions import ConstructionOutput


def tabulate(fn, horizon: int) -> SequencePrefix:
    return SequencePrefix([fn(n) for n in range(1, horizon + 1)])


def weight_grid(f) -> tuple[int, tuple[int, ...]]:
    """``(D_W, Wt)`` of the whole error term as a table: Wt[0] = 0 and the
    stream of ``f._weights(H + 1)``, so Wt[k] = D_W * W(k-1), k = 1..H+1."""
    denom, sums = f._weights(f.horizon + 1)
    return denom, (0, *sums)


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


def reference_rational_slope_sequence(f, K: int, h_max: int) -> ConstructionOutput:
    """The slope walk of ``rational_slope_sequence`` in its set-based form:
    for every index x the set of every banned shift, slope(x) - s over the
    registered slopes s, is built and handed to ``simplest_rational_in``,
    O(H) subtractions and hashes per index."""
    source = convex_from_error(f, h_max)
    slope = [Fraction(0)] + list(source.slopes())  # 1-based

    n0 = next((x for x in range(2, h_max + 1) if f.values[x - 1] > 0), None)
    if n0 is None:
        raise ValueError("f identically zero within the window")

    c = [None] * (h_max + 1)
    slope_index = {}

    def assign(x, cx):
        c[x] = cx
        slope_index[slope[x] - cx] = x

    prev = Fraction(0)
    for x in range(1, n0 + 1):
        banned = {slope[x] - s for s in slope_index}
        cx = simplest_rational_in(prev, 1, banned)
        assign(x, cx)
        prev = cx

    coverage = {}
    n_cur = n0
    for i in range(1, K + 1):
        target = enumerate_rationals(i)
        hit = slope_index.get(target)
        if hit is not None:
            coverage[i] = hit
            continue
        floor_c = c[n_cur]
        needed = target + floor_c
        n_next = next(
            (x for x in range(n_cur + 1, h_max + 1) if slope[x] > needed), None
        )
        if n_next is None:
            raise HorizonExhausted(
                f"cannot place rational #{i} ({format_rational(target)}) within "
                f"{h_max}: needs a source slope above {float(needed):.6g}, "
                f"maximum available is {float(slope[h_max]):.6g}"
            )
        c_next = slope[n_next] - target
        prev = floor_c
        for x in range(n_cur + 1, n_next):
            banned = {slope[x] - s for s in slope_index}
            banned.add(slope[x] - target)
            cx = simplest_rational_in(prev, c_next, banned)
            assign(x, cx)
            prev = cx
        assign(n_next, c_next)
        coverage[i] = n_next
        n_cur = n_next

    c_final = tuple(c[1 : n_cur + 1])
    b_values = [
        source.values[x - 1] - c_final[x - 1] * x for x in range(1, n_cur + 1)
    ]
    return ConstructionOutput(
        b=SequencePrefix(b_values),
        c=c_final,
        slopes=dict(slope_index),
        coverage=coverage,
        a=SequencePrefix(source.values[:n_cur]),
    )
