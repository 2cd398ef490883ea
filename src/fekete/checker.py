"""Exhaustive, exact verification over sequence prefixes: subadditivity
scans with an optional error term, windowed slope maxima, and convexity.

Scans decide every admitted pair (n <= m, n + m <= H) in one loop,
``_decide_pairs``: each pair on the prefix's fixed-point image first
(``SequencePrefix._fixed_point``: integer bounds on a(n) * 2**64, built
without the grid), and the pairs it leaves exactly, on the integer grid
(``SequencePrefix.grid``: one common denominator, built on first use)
joined with the error term's grid at one common denominator.

An interval domain sends that loop only the pairs of the sums that a
certificate for whole sums leaves.  The certificate does not depend on
the domain, so the first interval-domain scan of a prefix against an
error term decides it for every sum and keeps on the prefix the sums it
could not clear, and later ones, whatever their N, mu or slack, send
only those.  It runs in three steps: the lower convex minorant on the
image, which clears every sum of a clean convex prefix; the pairs of
each sum it leaves, tested on the image, which clear the sum if all of
them clear (a clean non-convex prefix, such as a rational-slopes
construction); and the minorant on the grid, for the sums still left.
OnePlus domains (at most two pairs per sum) and explicit domains skip
the certificate and send all their pairs.  Every decision is integer
arithmetic and reported deficits are exact rationals, each reduced to a
``Fraction`` as it is reported: ``scan_violations`` holds them all as
``Violation``s, and the CLI's ``check`` streams its report from the
violating pairs alone (``_report_stream``).  Window maxima of
the slopes come from one sliding-window pass (a monotone deque) over the
grid, O(H) integer cross products for the whole table.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .model import (
    _IMAGE_BITS,
    ErrorTerm,
    FullDomain,
    IntervalDomain,
    PairDomain,
    SequencePrefix,
    _check_printable,
    _json_with_array,
    _require_int,
    _require_prefix_and_term,
    format_rational,
)

__all__ = [
    "QSequence",
    "Violation",
    "ViolationReport",
    "check_convexity",
    "check_q_monotone",
    "q_sequence",
    "scan_violations",
]


@dataclass(frozen=True)
class Violation:
    """One admitted pair breaking the inequality, with its exact excess
    a(n+m) - a(n) - a(m) - f(n+m) > 0."""

    n: int
    m: int
    deficit: Fraction


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of a pair scan, sorted by (n + m, n).

    An empty ``violations`` tuple certifies (domain, f)-subadditivity on
    the scanned prefix; ``pairs_checked`` is the exact number of admitted
    pairs, certified or enumerated.
    """

    domain: PairDomain
    pairs_checked: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain.to_json_dict(),
            "pairs_checked": self.pairs_checked,
            "violations": [
                {"n": v.n, "m": v.m, "deficit": format_rational(v.deficit)}
                for v in self.violations
            ],
        }

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2, sort_keys=True) +
        "\\n"``, joined from the pieces ``check`` streams."""
        return "".join(_report_pieces(self.domain, self.pairs_checked, self.violations))


def _report_pieces(domain, pairs_checked, violations) -> Iterator[str]:
    """The pieces of the ``to_json_text`` of a report: one f-string per
    violation, whose deficit is ASCII digits, "-" and "/" and needs no
    escaping, made as ``violations`` yields it."""
    items = (
        f'{{\n      "deficit": "{format_rational(v.deficit)}",\n'
        f'      "m": {v.m},\n      "n": {v.n}\n    }}'
        for v in violations
    )
    head = {"domain": domain.to_json_dict(), "pairs_checked": pairs_checked}
    return _json_with_array(head, "violations", items)


def _scaled_tables(a: SequencePrefix, f: ErrorTerm | None):
    """Common-denominator integer tables A[n] = a(n)*D and FD[s] = f(s)*D.

    A is the prefix's grid and FD the grid of f cut to the prefix's
    horizon, both brought to the lcm of their denominators; the grids kept
    on a and f are never changed.
    """
    horizon = a.horizon
    denom, grid = a.grid
    if f is None:
        return denom, list(grid), [0] * (horizon + 1)
    f_denom, f_grid = f.grid
    wide = math.lcm(denom, f_denom)
    scale = wide // denom
    table_a = list(grid) if scale == 1 else [x * scale for x in grid]
    f_scale = wide // f_denom
    return wide, table_a, [x * f_scale for x in f_grid[: horizon + 1]]


def _lower_minorant(table_a, top):
    """The lower convex minorant of the points (n, A[n]), 1 <= n <= top,
    at every integer n, as ``(num, width)`` lists with minorant(n) =
    num[n] / width[n] exactly.

    The hull is Andrew's monotone chain with integer cross products;
    collinear points are dropped from it and then interpolated.
    """
    xs, ys = [], []
    for x in range(1, top + 1):
        y = table_a[x]
        while len(xs) >= 2:
            x1, y1, x2, y2 = xs[-2], ys[-2], xs[-1], ys[-1]
            # keep (x2, y2) only if it lies strictly below the chord to (x, y)
            if (y2 - y1) * (x - x1) < (y - y1) * (x2 - x1):
                break
            xs.pop()
            ys.pop()
        xs.append(x)
        ys.append(y)
    num = table_a[: top + 1]  # exact at the hull vertices
    width = [1] * (top + 1)
    for j in range(len(xs) - 1):
        x1, y1, x2, y2 = xs[j], ys[j], xs[j + 1], ys[j + 1]
        w, rise = x2 - x1, y2 - y1
        for x in range(x1 + 1, x2):
            num[x] = y1 * w + rise * (x - x1)
            width[x] = w
    return num, width


def _floor_scaled(f: ErrorTerm | None, horizon: int) -> list[int]:
    """Flo[s] = floor(f(s) * 2**K) for s = 0..horizon, K = ``_IMAGE_BITS``,
    from f's grid; exact for an integer f."""
    if f is None:
        return [0] * (horizon + 1)
    denom, grid = f.grid
    head = grid[: horizon + 1]
    if denom == 1:
        return [x << _IMAGE_BITS for x in head]
    return [(x << _IMAGE_BITS) // denom for x in head]


# A domain in which no sum admits more than this many pairs (OnePlus) skips
# the certificate, unless the prefix already holds it for the error term,
# and sends all its pairs to ``_decide_pairs``, as an explicit domain does:
# each pair costs one comparison on the image, while the certificate needs
# the image, its minorant, and the grid for any sum the image leaves.
_DIRECT_PAIRS = 2


def _certificate_failures(table_lo, table_hi, table_f, sums):
    """The sums s of ``sums`` that the minorant certificate does not clear.

    The tables bound the prefix and f at one scale S > 0: lo[n] <= a(n)*S
    <= hi[n] and F[s] <= f(s)*S (on the grid, all three are exact, S = D
    and lo = hi).  With ľ the lower convex minorant of lo on 1..H-1 and
    h = s // 2, every pair (n, s - n) with 1 <= n <= h has (a(n) +
    a(s-n))*S >= lo[n] + lo[s-n] >= ľ(n) + ľ(s-n) >= ľ(h) + ľ(s-h), the
    last by convexity and symmetry about s/2; and (a(s) - f(s))*S <= hi[s]
    - F[s].  A sum with hi[s] - F[s] <= ľ(h) + ľ(s-h) therefore has no
    violation in any domain, whatever the lower end of its interval.
    """
    num, width = _lower_minorant(table_lo, len(table_lo) - 2)
    failed = []
    for s in sums:
        h = s // 2
        wp, wq = width[h], width[s - h]
        if (table_hi[s] - table_f[s]) * wp * wq > num[h] * wq + num[s - h] * wp:
            failed.append(s)
    return tuple(failed)


def _decide_pairs(a, f, pairs, tables=None):
    """``(bad, tables)``: the pairs of ``pairs`` that break the
    inequality, in their order, and the tables their deficits are read
    from (``_deficits``; None when there is no such pair).  This is the
    one loop that decides pairs.

    A prefix with an image (parsed, convex, or certified from its values)
    clears (n, m), s = n + m, on it when hi[s] - Flo[s] <= lo[n] + lo[m],
    as then (a(s) - f(s) - a(n) - a(m)) * 2**K <= 0.  The pairs left are
    decided exactly on the common-denominator ``tables`` of
    ``_scaled_tables``, built here unless the caller already holds them;
    a prefix built from ``Fraction``s that has no image decides all of
    its pairs there.
    """
    if not pairs:
        return [], None
    image = a._fixed_point(from_values=False)
    if image is not None:
        lo, hi = image
        flo = _floor_scaled(f, a.horizon)
        pairs = [(n, m) for n, m in pairs if hi[n + m] - flo[n + m] > lo[n] + lo[m]]
        if not pairs:
            return [], None
    tables = tables or _scaled_tables(a, f)
    _, table_a, table_f = tables
    bad = [
        (n, m) for n, m in pairs
        if table_a[n + m] - table_f[n + m] - table_a[n] - table_a[m] > 0
    ]
    return bad, tables


def _deficits(bad, tables) -> Iterator[tuple[int, int, int]]:
    """``(n, m, x)`` for each pair of ``bad`` from ``_decide_pairs``: its
    deficit is x / D, unreduced, with D = ``tables[0]``."""
    if bad:
        _, table_a, table_f = tables
        for n, m in bad:
            yield n, m, table_a[n + m] - table_f[n + m] - table_a[n] - table_a[m]


def _violations(bad, tables) -> Iterator[Violation]:
    """The ``Violation`` of each pair of ``bad``, its deficit reduced to a
    ``Fraction`` as it is yielded."""
    for n, m, x in _deficits(bad, tables):
        yield Violation(n, m, Fraction(x, tables[0]))


def _scan_sums(a, f, domain):
    """``(pairs_checked, bad, tables)`` of an ``IntervalDomain``, the last
    two from ``_decide_pairs``: chooses the sums whose pairs in the domain
    go to it.

    The sums are those of the certificate kept on ``a`` for f (one entry,
    keyed by the identity of f, None included); or every sum, for a narrow
    domain without that entry; or else those the certificate leaves,
    which it then keeps on ``a``.  The certificate runs in three steps:
    the minorant on the image of ``a``; for each sum that leaves, a test
    of its pairs 1 <= n <= s//2 on the image, which clears the sum when
    every pair clears; and the minorant on the grid, for the sums that
    still have a pair left.  None of the steps reads the domain.
    """
    horizon = a.horizon
    lower = domain._lower_ends(horizon)
    checked = 0
    narrow = True
    for s in range(2, horizon + 1):
        lo, hi = lower[s], s // 2
        if lo <= hi:
            checked += hi - lo + 1
            narrow = narrow and hi - lo < _DIRECT_PAIRS
    sums, tables = range(2, horizon + 1), None
    cached = a._certified
    if cached is not None and cached[0] is f:
        sums = cached[1]
    elif not narrow:
        image = a._fixed_point()
        if image is not None:
            lo, hi = image
            flo = _floor_scaled(f, horizon)
            sums = [
                s for s in _certificate_failures(lo, hi, flo, sums)
                if any(hi[s] - flo[s] > lo[n] + lo[s - n] for n in range(1, s // 2 + 1))
            ]
        if sums:
            tables = _scaled_tables(a, f)
            sums = _certificate_failures(tables[1], tables[1], tables[2], sums)
        a._certified = f, tuple(sums)
    pairs = [(n, s - n) for s in sums for n in range(lower[s], s // 2 + 1)]
    return (checked, *_decide_pairs(a, f, pairs, tables))


def scan_violations(
    a: SequencePrefix,
    f: ErrorTerm | None = None,
    domain: PairDomain | None = None,
) -> ViolationReport:
    """Check a(n+m) <= a(n) + a(m) + f(n+m) on every admitted pair.

    ``f=None`` means the zero error term.  Interval domains are scanned
    one sum at a time through the lower convex minorant, which certifies
    a clean convex prefix in O(H) comparisons on its fixed-point image,
    once per (a, f) for all interval domains, without building its grid.
    The pairs of the sums it leaves, all pairs of a OnePlus domain, and
    the pairs of an explicit domain go through one loop, which decides
    each pair on the image first and on the grid only if the image
    leaves it.  Pairs go to that loop in (n + m, n) order, the order of
    the report.
    """
    if domain is None:
        domain = FullDomain()
    checked, bad, tables = _scan(a, f, domain)
    violations = tuple(_violations(bad, tables))
    return ViolationReport(domain=domain, pairs_checked=checked, violations=violations)


def _scan(a, f, domain):
    """``(pairs_checked, bad, tables)`` of ``scan_violations(a, f,
    domain)``: its violating pairs, not yet made into ``Violation``s."""
    _require_prefix_and_term(a, f)
    horizon = a.horizon
    if f is not None and f.horizon < horizon:
        raise ValueError(
            f"error-term horizon {f.horizon} is shorter than the sequence horizon {horizon}"
        )
    if isinstance(domain, IntervalDomain):
        return _scan_sums(a, f, domain)
    pairs = sorted(domain.pairs_upto(horizon), key=lambda p: (p[0] + p[1], p[0]))
    return (len(pairs), *_decide_pairs(a, f, pairs))


def _report_stream(a, f, domain) -> tuple[bool, Iterator[str]]:
    """Whether ``scan_violations(a, f, domain)`` is ok, and the pieces of
    its ``to_json_text``, checked printable, with no ``Violation`` held:
    the printable check reads the unreduced deficits, and each deficit is
    reduced as its piece is made."""
    checked, bad, tables = _scan(a, f, domain)
    _check_printable((x, tables[0]) for _, _, x in _deficits(bad, tables))
    return not bad, _report_pieces(domain, checked, _violations(bad, tables))


@dataclass(frozen=True)
class QSequence:
    """Windowed slope maxima q(n) = max of a(j)/j over n <= j <= 2n,
    tabulated for n in [n_lo, H//2]."""

    n_lo: int
    values: tuple[Fraction, ...]

    @property
    def n_hi(self) -> int:
        return self.n_lo + len(self.values) - 1

    def q(self, n: int) -> Fraction:
        if not self.n_lo <= n <= self.n_hi:
            raise IndexError(f"index {n} outside {self.n_lo}..{self.n_hi}")
        return self.values[n - self.n_lo]


def _window_argmax(a: SequencePrefix, n_lo: int) -> list[int]:
    """For n = n_lo..H//2, an index j in [n, 2n] maximising a(j)/j.

    Both ends of the window [n, 2n] only move right, so a deque of
    candidate indices with strictly decreasing slopes gives every argmax
    in amortised O(1) comparisons: O(H) for the whole table.  Slopes are
    compared on the prefix's grid, a(i)/i <= a(j)/j iff A[i]*j <= A[j]*i.
    """
    _, table = a.grid
    window: deque[int] = deque()  # 1-based indices j, front holds the max
    top = n_lo - 1  # largest index pushed so far
    out = []
    for n in range(n_lo, a.horizon // 2 + 1):
        while top < 2 * n:
            top += 1
            t = table[top]
            while window and table[window[-1]] * top <= t * window[-1]:
                window.pop()
            window.append(top)
        if window[0] < n:  # only n - 1 can have left the window
            window.popleft()
        out.append(window[0])
    return out


def q_sequence(a: SequencePrefix, n_lo: int) -> QSequence:
    """Tabulate the doubling-window slope maxima of the prefix.

    The maxima come from one sliding-window pass over the prefix's
    integer grid; a ``Fraction`` is built only for the argmax of each
    window.
    """
    _require_int(n_lo, "window start")
    horizon = a.horizon
    if n_lo < 1 or 2 * n_lo > horizon:
        raise ValueError(f"horizon {horizon} too small for windows starting at {n_lo}")
    return QSequence(n_lo, tuple(a.slope(j) for j in _window_argmax(a, n_lo)))


def check_q_monotone(a: SequencePrefix, N: int) -> list[int]:
    """Indices n in [N, H//2 - 1] with q(n) < q(n+1).

    An empty list means the window maxima are non-increasing over the whole
    computable range, which must be the case whenever the prefix passes a
    OnePlus(N) scan.  Consecutive maxima are compared on the grid by
    cross products; no ``Fraction`` is built.
    """
    _require_int(N, "threshold")
    if N < 1 or 2 * (N + 1) > a.horizon:
        raise ValueError(f"horizon {a.horizon} too small for threshold {N}")
    _, table = a.grid
    argmax = _window_argmax(a, N)
    return [
        N + i
        for i, (j, k) in enumerate(zip(argmax, argmax[1:]))
        if table[j] * k < table[k] * j
    ]


def check_convexity(a: SequencePrefix) -> list[int]:
    """Indices n in [2, H-1] where a(n-1) + a(n+1) - 2 a(n) < 0, decided
    on the prefix's grid as A[n-1] + A[n+1] - 2 A[n] < 0."""
    horizon = a.horizon
    if horizon < 3:
        raise ValueError("horizon too small: need at least 3 values")
    _, table = a.grid
    return [
        n for n in range(2, horizon) if table[n - 1] + table[n + 1] - 2 * table[n] < 0
    ]
