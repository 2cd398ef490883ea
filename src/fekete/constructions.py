"""Generators for the package's explicit sequences: the convex sequence
driven by an error term, the monotone-shift construction whose slopes walk
an enumeration of the rationals, threshold and oscillation counterexamples,
and 2-good merge chains.

Every construction is deterministic; rerunning with the same arguments
reproduces the output byte for byte.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import ErrorTerm, SequencePrefix, _coerce, format_rational

__all__ = [
    "ConstructionOutput",
    "HorizonExhausted",
    "TwoGoodChain",
    "convex_from_error",
    "enumerate_rationals",
    "linear_error_example",
    "rational_slope_sequence",
    "simplest_rational_in",
    "threshold_gap_example",
    "two_good_chain",
]

ENUMERATION_TAG = "calkin-wilf-signed"


class HorizonExhausted(ValueError):
    """The construction window ended before the required index appeared."""


def convex_from_error(f: ErrorTerm, horizon: int) -> SequencePrefix:
    """The convex sequence a(n) = n * sum(f(i)/i^2 for 1 < i <= n), that
    is n * W(n) with W streamed from ``f.weight_sums()``, so a(1) = 0.

    For any non-negative non-decreasing f the output is non-negative,
    convex (second difference f(n+1)/(n+1) - (n-1) f(n)/n^2 >= 0), and
    passes the full-domain f-scan.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if horizon > f.horizon:
        raise ValueError(
            f"horizon mismatch: need f up to {horizon}, have {f.horizon}"
        )
    sums = zip(range(horizon + 1), f.weight_sums())
    return SequencePrefix(x * w for x, w in sums if x)  # skips W(0)


def _calkin_wilf(j: int) -> Fraction:
    """The j-th positive rational in breadth-first order of the mediant tree
    rooted at 1/1 (left child p/(p+q), right child (p+q)/q)."""
    p = q = 1
    for bit in bin(j)[3:]:
        if bit == "0":
            q = p + q
        else:
            p = p + q
    return Fraction(p, q)


def enumerate_rationals(i: int) -> Fraction:
    """Bijective enumeration of the rationals: 0 first, then for j >= 1 the
    j-th positive rational of the breadth-first mediant order at position
    2j and its negation at position 2j + 1."""
    if i < 1:
        raise ValueError("enumeration index starts at 1")
    if i == 1:
        return Fraction(0)
    j, odd = divmod(i, 2)
    value = _calkin_wilf(j)
    return -value if odd else value


def _simplest_in(lo: Fraction, hi: Fraction) -> Fraction:
    """Minimal-denominator rational in the open interval (lo, hi), ties on
    denominator 1 broken by the smaller numerator (the only denominator
    that can tie)."""
    smallest_int = lo.numerator // lo.denominator + 1  # smallest integer > lo
    if smallest_int < hi:
        return Fraction(smallest_int)
    whole = lo.numerator // lo.denominator
    if lo == whole:
        # interval (whole, hi) with hi - whole <= 1: answer is whole + 1/t
        span = hi - whole
        t = span.denominator // span.numerator + 1
        return whole + Fraction(1, t)
    inner = _simplest_in(1 / (hi - whole), 1 / (lo - whole))
    return whole + 1 / inner


def simplest_rational_in(lo, hi, forbidden: Iterable = ()) -> Fraction:
    """Deterministic pick from the open interval (lo, hi): the minimal-
    denominator rational (ties to the smaller numerator), found by mediant
    descent; when the candidate is forbidden the search recurses into
    (lo, candidate).  A finite forbidden set can never empty an open
    rational interval, so this always returns.  Every argument must be an
    exact rational; floats raise TypeError."""
    lo = _coerce(lo)
    hi = _coerce(hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    banned = {_coerce(x) for x in forbidden}
    candidate = _simplest_in(lo, hi)
    while candidate in banned:
        candidate = _simplest_in(lo, candidate)
    return candidate


@dataclass
class ConstructionOutput:
    """A constructed prefix b with its witness data: the subtracted
    monotone sequence c, the registry of slopes b(x)/x (all pairwise
    distinct), the coverage map from enumeration index to the index whose
    slope equals that rational, and the convex source sequence."""

    b: SequencePrefix
    c: tuple[Fraction, ...]
    slopes: dict[Fraction, int]
    coverage: dict[int, int]
    a: SequencePrefix
    enumeration: str = ENUMERATION_TAG

    def to_json_dict(self) -> dict:
        return {
            "b": {
                "values": [format_rational(v) for v in self.b.values],
                "offset": 1,
            },
            "c": [format_rational(v) for v in self.c],
            "coverage": {str(i): n for i, n in sorted(self.coverage.items())},
            "enumeration": self.enumeration,
        }


def rational_slope_sequence(f: ErrorTerm, K: int, h_max: int) -> ConstructionOutput:
    """Monotone-shift construction b(n) = a(n) - c(n) * n whose slopes are
    pairwise distinct rationals hitting the first K enumerated rationals in
    order, while keeping b f-subadditive.

    The shift c starts strictly increasing inside (0, 1) over 1..n0, where
    n0 is the first index with f > 0 (f(1) counts as 0).  The walk then
    takes each enumerated rational r in turn: if r already sits among the
    slopes it is recorded; otherwise the construction waits for the first
    index where the source slope a(x)/x exceeds c + r, pins the slope there
    to exactly r, and fills the intermediate c values with the simplest
    fresh rationals inside the monotone corridor.  Raises
    :class:`HorizonExhausted` when the source slope cannot reach the next
    target inside ``h_max``; with a summable sum of f(n)/n^2 that is the
    expected outcome, since the source slope stays bounded.
    """
    if K < 1:
        raise ValueError("K must be positive")
    if h_max < 1:
        raise ValueError("window must be positive")
    if h_max > f.horizon:
        raise ValueError(f"window {h_max} exceeds error-term horizon {f.horizon}")
    source = convex_from_error(f, h_max)
    slope = [Fraction(0)] + list(source.slopes())  # 1-based

    n0 = next((x for x in range(2, h_max + 1) if f.values[x - 1] > 0), None)
    if n0 is None:
        raise ValueError("f identically zero within the window")

    c: list[Fraction | None] = [None] * (h_max + 1)
    slope_index: dict[Fraction, int] = {}

    def assign(x: int, cx: Fraction) -> None:
        c[x] = cx
        slope_index[slope[x] - cx] = x

    prev = Fraction(0)
    for x in range(1, n0 + 1):
        banned = {slope[x] - s for s in slope_index}
        cx = simplest_rational_in(prev, 1, banned)
        assign(x, cx)
        prev = cx

    coverage: dict[int, int] = {}
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

    emitted = n_cur
    c_final = tuple(c[1 : emitted + 1])
    b_values = [
        source.values[x - 1] - c_final[x - 1] * x for x in range(1, emitted + 1)
    ]
    return ConstructionOutput(
        b=SequencePrefix(b_values),
        c=c_final,
        slopes=dict(slope_index),
        coverage=coverage,
        a=SequencePrefix(source.values[:emitted]),
    )


def threshold_gap_example(
    N: int, anchors: Sequence[int], horizon: int | None = None
) -> SequencePrefix:
    """Piecewise ramp sequence that is subadditive for pairs above the
    threshold N but not below it.

    a(n) = 1 up to the first anchor; on [n_i, n_{i+1}) the value is n/n_i,
    except on the band n_{i+1} - N <= n <= n_{i+1} - 2, which is pinned to
    1 (the band clause takes precedence over the ramp).  Anchor gaps must
    exceed N + 1 so bands cannot collide, and the emitted prefix stops
    before the last anchor, where the next band would depend on anchors
    not given.
    """
    anchors = [int(x) for x in anchors]
    if N < 2:
        raise ValueError("threshold must be at least 2")
    if len(anchors) < 2:
        raise ValueError("need at least two anchors")
    if anchors[0] < N:
        raise ValueError(f"first anchor {anchors[0]} is below the threshold {N}")
    for prev, nxt in zip(anchors, anchors[1:]):
        if nxt <= prev:
            raise ValueError("anchors must be strictly increasing")
        if nxt - prev <= N + 1:
            raise ValueError(
                f"anchors {prev}, {nxt} too close: gaps must exceed N + 1 = {N + 1}"
            )
    last = anchors[-1]
    if horizon is None:
        horizon = last - 1
    if not 1 <= horizon <= last - 1:
        raise ValueError(f"horizon must lie in 1..{last - 1}")
    values = []
    seg = 0
    for x in range(1, horizon + 1):
        if x <= anchors[0]:
            values.append(Fraction(1))
            continue
        while anchors[seg + 1] <= x:
            seg += 1
        distance = anchors[seg + 1] - x
        if 2 <= distance <= N:
            values.append(Fraction(1))
        else:
            values.append(Fraction(x, anchors[seg]))
    return SequencePrefix(values)


def linear_error_example(f: ErrorTerm, bound, horizon: int) -> SequencePrefix:
    """Spike sequence witnessing that an error term of linear size destroys
    slope convergence.

    Anchors are picked greedily (smallest index with f(n)/n > bound/2, then
    smallest qualifying index at distance >= 2 from the previous); the
    sequence is f(n) on anchors and 0 elsewhere.  a(x) <= f(x) pointwise
    makes the full-domain f-scan pass automatically, while slopes oscillate
    between 0 and values above bound/2.  ``bound`` must be an exact
    rational; floats raise TypeError.
    """
    bound = _coerce(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if horizon > f.horizon:
        raise ValueError(
            f"horizon mismatch: need f up to {horizon}, have {f.horizon}"
        )
    anchors = []
    x = 1
    while x <= horizon:
        if 2 * f.values[x - 1] > bound * x:  # f(x)/x > bound/2, denominators cleared
            anchors.append(x)
            x += 2
        else:
            x += 1
    if len(anchors) < 2:
        raise ValueError("not enough qualifying anchors in the horizon")
    marks = set(anchors)
    values = [
        f.values[x - 1] if x in marks else Fraction(0)
        for x in range(1, horizon + 1)
    ]
    return SequencePrefix(values)


@dataclass(frozen=True)
class TwoGoodChain:
    """Merge chain from the multiset {k, ..., k, beta} down to {n}.

    Every multiset sums to n and is 2-good (largest element at most twice
    the smallest); each step joins the two minimal members.  Multisets are
    stored as sorted tuples, initial first.
    """

    n: int
    k: int
    beta: int
    chain: tuple[tuple[int, ...], ...]
    merge_trace: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if sum(self.chain[0]) != self.n or self.chain[-1] != (self.n,):
            raise ValueError("chain endpoints inconsistent")
        for multiset in self.chain:
            if multiset[-1] > 2 * multiset[0]:
                raise ValueError(f"multiset {multiset} is not 2-good")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "beta": self.beta,
            "chain": [list(ms) for ms in self.chain],
            "merge_trace": [list(step) for step in self.merge_trace],
        }


def two_good_chain(n: int, k: int) -> TwoGoodChain:
    """Decompose n as (floor(n/k) - 1) parts k plus a remainder beta in
    [k, 2k-1], then merge two minimal members at a time down to {n}."""
    if k < 1 or n < 2 * k:
        raise ValueError(f"need n >= 2k >= 2, got n={n}, k={k}")
    parts = n // k
    beta = n - (parts - 1) * k
    current = [k] * (parts - 1) + [beta]
    chain = [tuple(current)]
    trace = []
    while len(current) > 1:
        x, y = current[0], current[1]
        merged = x + y
        rest = current[2:]
        bisect.insort(rest, merged)
        trace.append((x, y, merged))
        chain.append(tuple(rest))
        current = rest
    return TwoGoodChain(n, k, beta, tuple(chain), tuple(trace))
