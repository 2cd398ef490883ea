"""Exact scalar, sequence, and pair-domain types shared by every other module.

All scalars are arbitrary-precision rationals (``fractions.Fraction``), so
every inequality decided anywhere in the package is decided exactly (the
one float, in ``_floor_ratio_log2``, is settled in integers at its
boundary).  Sequences are finite 1-indexed prefixes ``a(1..H)``, with
``a(0) = 0`` supplied implicitly where an operation needs it.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

__all__ = [
    "ErrorTerm",
    "ExplicitDomain",
    "FullDomain",
    "IntervalDomain",
    "MuBandDomain",
    "OnePlusDomain",
    "PairDomain",
    "SequencePrefix",
    "ThresholdDomain",
    "builtin_error_term",
    "family_parameters",
    "format_rational",
    "parse_ascii_int",
    "parse_error_term",
    "parse_rational",
    "parse_sequence",
    "sequence_to_csv",
    "sequence_to_json",
    "zero_error_term",
]

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")
# The same language over ASCII digits only, tried first: it matches about
# three times faster than \d, which also admits (as int() does) the other
# Unicode decimal digits.
_ASCII_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([1-9][0-9]*))?$")


def _digit_limit() -> int:
    """The most decimal digits ``int()`` and ``str()`` convert, 0 for no
    limit (Python < 3.10.7 has none)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _literal(text: str | int) -> str | int:
    """An integer literal or ``p/q`` string, validated and stripped (the
    string itself when there is nothing to strip), or an int as given.
    Malformed text raises ValueError, and so does a part longer than
    ``int()`` converts, with ``int()``'s error."""
    if isinstance(text, bool):
        raise ValueError(f"malformed rational: {text!r}")
    if isinstance(text, int):
        return text
    s = str(text).strip()
    match = _ASCII_RATIONAL_RE.match(s) or _RATIONAL_RE.match(s)
    if not match:
        raise ValueError(f"malformed rational: {text!r}")
    limit = _digit_limit()
    if limit and len(s) > limit:
        for part in match.groups():
            if part and len(part) > limit:
                int(part)  # raises the error of an over-long literal
    return s


def _literal_pair(literal: str | int) -> tuple[int, int]:
    """The integers (p, q), q >= 1, of a validated literal, as written:
    not reduced."""
    if isinstance(literal, int):
        return literal, 1
    num, slash, den = literal.partition("/")
    return int(num), int(den) if slash else 1


def _literal_pairs(texts: Iterable[str | int]) -> list[tuple[int, int]]:
    """``_literal_pair`` of each validated literal of ``texts``: the one
    conversion of a parsed table to integers."""
    return [_literal_pair(t) for t in texts]


_DIGITS_RE = re.compile(r"[0-9]+")


def parse_ascii_int(text: str, what: str = "integer") -> int:
    """The int written in ``text`` as ASCII digits, surrounding whitespace
    aside.  Signs, underscores and other Unicode decimal digits, which
    ``int()`` accepts, raise ValueError ("malformed <what>: ...")."""
    if not _DIGITS_RE.fullmatch(text.strip()):
        raise ValueError(f"malformed {what}: {text!r} (need ASCII digits)")
    return int(text)


def parse_rational(text: str | int) -> Fraction:
    """Parse an exact rational from an integer literal or a ``p/q`` string."""
    return Fraction(*_literal_pair(_literal(text)))


def format_rational(value: Fraction) -> str:
    """Canonical rendering: bare ``p`` for integers, otherwise ``p/q``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _is_int(value) -> bool:
    """True for ints other than bools, which JSON ``true`` decodes to."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(value, what: str) -> None:
    """Reject bools, floats and every other non-int with a TypeError."""
    if not _is_int(value):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")


def _coerce(value) -> Fraction:
    """Accept Fraction, int, or a p/q string; anything inexact is rejected."""
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class SequencePrefix:
    """Finite exact table ``a(1..H)`` of a sequence.

    ``value(0)`` is defined as 0 so that decomposition identities hold
    without special cases.  A prefix is its horizon H and the builders it
    was given (``_deferred_prefix``): of ``values``, of its integer
    ``grid``, of its fixed-point image and of one exact value.  Each
    representation is built on first use and kept; the constructors
    differ only in the builders they pass.  A prefix built from
    ``Fraction``s holds its values and builds its grid from them.  A
    prefix read by ``parse_sequence`` keeps the text of each value (the
    string read, not a copy): its image reads the leading digits of each
    value and its exact builder one literal, and ``grid`` or ``values``
    converts all the text once to integer pairs (p, q), dropping the
    text; the pairs give the grid with no gcd per value and ``values``
    when asked for.  An integer table (``ErrorTerm._from_ints``) holds its
    grid, over D = 1, and reads one value as (f(n), 1).  A convex or
    smoothed prefix builds each from ``constructions._weighted``.
    Equality and hashing are those of ``values``.

    ``_fixed_point()`` is the prefix's fixed-point image at scale 2**K,
    K = ``_IMAGE_BITS``: integer bounds lo[n] <= a(n) * 2**K <= hi[n],
    never built from the grid; ``_exact(n)`` is one value as (p, q), from
    the exact builder, else the grid.  Scans and brackets decide on the
    image first; a scan keeps on the prefix the sums it could not clear,
    for the last error term it scanned the prefix against.  Neither the
    image nor that entry takes part in pickling, equality or hashing.
    """

    __slots__ = ("_horizon", "_builders", "_values", "_grid", "_image", "_certified")

    def __init__(self, values: Iterable) -> None:
        vals = tuple(_coerce(v) for v in values)
        if not vals:
            raise ValueError("empty sequence")

        def grid():
            return _integer_grid([(v.numerator, v.denominator) for v in vals])

        self._horizon, self._builders = len(vals), (None, grid, None, None)
        self._values, self._grid, self._image, self._certified = vals, None, None, None

    @classmethod
    def _from_texts(cls, texts: list[str | int]) -> SequencePrefix:
        """The prefix of the validated literals ``texts`` (``_literal``).
        Its builders share one conversion of the text to pairs, made on
        the first use of ``grid`` or ``values``, which drops the text."""
        if not texts:
            raise ValueError("empty sequence")
        pairs = None

        def converted():
            nonlocal texts, pairs
            if pairs is None:
                pairs, texts = _literal_pairs(texts), None
            return pairs

        return cls._deferred_prefix(
            len(texts),
            lambda: tuple(Fraction(p, q) for p, q in converted()),
            lambda: _integer_grid(converted()),
            lambda: None if texts is None else _text_image(texts),
            lambda n: _literal_pair(texts[n - 1]) if pairs is None else pairs[n - 1],
        )

    @classmethod
    def _deferred_prefix(cls, horizon: int, values, grid, image=None, exact=None) -> SequencePrefix:
        """The prefix of ``horizon`` values whose ``values`` and ``grid``
        the zero-argument callables build once, on first use (None for
        one the caller sets); ``image``, if given, builds the image, or
        gives None when it has nothing to build it from; ``exact(n)``, if
        given, is ``_exact(n)``.  All must give the same rationals."""
        prefix = cls.__new__(cls)
        prefix._horizon, prefix._builders = horizon, (values, grid, image, exact)
        prefix._values = prefix._grid = prefix._image = prefix._certified = None
        return prefix

    @property
    def values(self) -> tuple[Fraction, ...]:
        """a(1), ..., a(H) as reduced ``Fraction``s."""
        if self._values is None:
            self._values = self._builders[0]()
        return self._values

    @property
    def horizon(self) -> int:
        return self._horizon

    @property
    def grid(self) -> tuple[int, tuple[int, ...]]:
        """``(D, A)``: a common denominator D > 0 of the values and the
        integers A = (0, A[1], ..., A[H]) with a(n) = A[n] / D exactly."""
        if self._grid is None:
            self._grid = self._builders[1]()
        return self._grid

    def _fixed_point(self, from_values: bool = True) -> tuple[list[int], list[int]] | None:
        """``(lo, hi)``: integers with lo[0] = hi[0] = 0 and lo[n] <= a(n) *
        2**K <= hi[n] for n = 1..H, K = ``_IMAGE_BITS``; or None when the
        prefix holds its grid, or nothing else to build the image from (an
        integer table, the smoothing of one), and the grid is the image.

        Built on first use and kept: by the image builder (of a convex or
        smoothed prefix, or ``_text_image`` of a parsed text), else from
        ``values``, when the prefix holds them, as lo = floor(p * 2**K /
        q) and hi its ceiling.  With ``from_values`` false the values are
        not used and give None: a pass that the grid decides in a few
        comparisons per value gains nothing from them.
        """
        if self._image is None and self._grid is None:
            image = self._builders[2]
            if image is not None:
                self._image = image()
            if self._image is None and from_values and self._values is not None:
                self._image = _fixed_point_of(
                    (v.numerator, v.denominator) for v in self._values
                )
        return self._image

    def _exact(self, n: int) -> tuple[int, int]:
        """``(p, q)``, q >= 1, with a(n) = p / q, not reduced: from the
        exact builder (one literal of a parsed prefix), else the grid."""
        exact = self._builders[3]
        if exact is not None:
            return exact(n)
        denom, table = self._grid or self.grid
        return table[n], denom

    def value(self, n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        if not 1 <= n <= self._horizon:
            raise IndexError(f"index {n} outside 1..{self._horizon}")
        if self._values is None and self._builders[3] is not None:
            return Fraction(*self._builders[3](n))
        # a prefix with no exact builder builds all its values: over the
        # common denominator of its grid each value would cost a big gcd
        return self.values[n - 1]

    def slope(self, n: int) -> Fraction:
        """The ratio a(n)/n."""
        return self.value(n) / n

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(v / (i + 1) for i, v in enumerate(self.values))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash((self.values,))

    def __repr__(self):
        return f"{type(self).__name__}(values={self.values!r})"

    def __reduce__(self):
        # the builders are closures, which do not pickle
        return type(self), (self.values,)


# The scale 2**_IMAGE_BITS of a prefix's fixed-point image.  The margins
# of a clean convex prefix are about f(s)/s, far above the error of an
# image at this scale; the sums it cannot clear go to the grid.
_IMAGE_BITS = 64


def _fixed_point_of(pairs: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """The image ``(lo, hi)`` of the rationals p/q, q >= 1: lo[n] the
    floor of p_n * 2**K / q_n and hi[n] its ceiling, lo[0] = hi[0] = 0."""
    lo, hi = [0], [0]
    for p, q in pairs:
        low, rem = divmod(p << _IMAGE_BITS, q)
        lo.append(low)
        hi.append(low + 1 if rem else low)
    return lo, hi


# The leading digits of a literal p/q that ``_text_image`` reads: this many
# beyond the amount by which p is longer than q, enough for hi - lo <= 2.
_IMAGE_DIGITS = 22

# A literal's sign and the ASCII zeros that lead its numerator.
_LEADING_RE = re.compile(r"[+-]?0*")


def _text_image(texts: Iterable[str | int]) -> tuple[list[int], list[int]]:
    """The image ``(lo, hi)`` of validated literals (``_literal``), with
    lo[0] = hi[0] = 0 and lo[n] <= a(n) * 2**K <= hi[n] <= lo[n] + 2.

    For ``p/q``, with Lp and Lq the digit counts of |p| and q (leading
    zeros dropped), only the first t = max(0, Lp - Lq) + 22 digits of each
    are read: with P and Q those digits and e_p, e_q the counts dropped,
    P * 10**e_p <= |p| < (P + 1) * 10**e_p (no + 1 when none is dropped),
    and likewise for q, so |p| * 2**K / q lies between the quotients of
    those bounds, whose floor and ceiling are lo and hi.  A block of t
    digits is off by at most 10**(1 - t) relatively, and |p| * 2**K / q <
    10**(Lp - Lq + 1) * 2**K, so the two quotients differ by less than
    0.21 and hi - lo <= 2.  Integers, zeros and literals in other Unicode
    digits (whose leading zeros the ASCII count misses) are read in full.
    """
    lo, hi = [0], [0]
    for text in texts:
        slash = text.find("/") if isinstance(text, str) and text.isascii() else -1
        start = _LEADING_RE.match(text).end() if slash > 0 else 0
        if start >= slash:  # an int or integer literal, zero, other digits
            p, q = _literal_pair(text)
            low, rem = divmod(p << _IMAGE_BITS, q)
            lo.append(low)
            hi.append(low + 1 if rem else low)
            continue
        long_p, long_q = slash - start, len(text) - slash - 1
        cut = max(0, long_p - long_q) + _IMAGE_DIGITS
        drop_p, drop_q = max(0, long_p - cut), max(0, long_q - cut)
        top_p = int(text[start:slash - drop_p])
        top_q = int(text[slash + 1:len(text) - drop_q])
        shift = drop_p - drop_q
        num, den = (10**shift, 1) if shift >= 0 else (1, 10**-shift)
        low = (top_p << _IMAGE_BITS) * num // ((top_q + (drop_q > 0)) * den)
        high = -(-((top_p + (drop_p > 0)) << _IMAGE_BITS) * num // (top_q * den))
        if text[0] == "-":
            low, high = -high, -low
        lo.append(low)
        hi.append(high)
    return lo, hi


def _integer_grid(pairs: list[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """The grid of the rationals p/q in ``pairs``: D = lcm of the q, and
    A[0] = 0, A[n] = p_n * (D // q_n).

    D // q_n is not computed by dividing D.  With L_n the lcm of q_1..q_n
    and r_n = L_n // L_(n-1) (mostly 1, otherwise small), D // q_n =
    r_(n+1) * ... * r_H * (L_n // q_n): the suffix products, built from
    the right, take one small multiplication per step, and L_n // q_n is
    a short division when q_n is close to L_n, as in constructed prefixes.
    """
    steps = []
    lcm = 1
    for _, q in pairs:
        step = 1
        if lcm % q:
            step = q // math.gcd(lcm, q)
            lcm *= step
        steps.append(step)
    denom = lcm
    table = [0] * (len(pairs) + 1)
    above = 1  # D // L_n
    for n in range(len(pairs), 0, -1):
        p, q = pairs[n - 1]
        table[n] = p * (above * (lcm // q))
        step = steps[n - 1]
        if step != 1:
            above *= step
            lcm //= step
    return denom, tuple(table)


class ErrorTerm(SequencePrefix):
    """Non-negative, non-decreasing exact table ``f(1..H)``.

    A ``SequencePrefix`` whose construction also enforces both invariants,
    so holding an ErrorTerm is itself a certificate that the table
    qualifies as an error term.  ``values``, the cached ``grid``,
    ``value`` (with ``f.value(0) == 0``), equality and hashing are those of
    the prefix.  An integer table (``_from_ints``, which the builtin
    families and integer files use) is given its grid ``(1, (0, f(1),
    ..., f(H)))`` and the exact builder (f(n), 1), and builds ``values``
    only when they are first asked for.
    The partial sums W of sum f(x)/x^2 come as the stream
    ``weight_sums()``, as the cached integers of ``weight_grid`` (or the
    head of them as one pass, ``_weights``) and as the cached fixed-point
    bounds of ``weight_bounds``.  Next to those
    caches, ``limits.smoothed`` keeps the last prefix it smoothed by this
    term; none takes part in pickling, equality or hashing.
    """

    def __init__(self, values: Iterable) -> None:
        super().__init__(values)
        self._check_invariants(self._values)

    @classmethod
    def _from_ints(cls, ints: list[int]) -> ErrorTerm:
        """The error term of the ints f(1), ..., f(H), held as its grid
        alone, with no ``Fraction`` built."""
        if not ints:
            raise ValueError("empty sequence")
        cls._check_invariants(ints)
        table = (0, *ints)
        term = cls._deferred_prefix(
            len(ints), lambda: tuple(map(Fraction, table[1:])), None, exact=lambda n: (table[n], 1)
        )
        term._grid = 1, table
        return term

    @staticmethod
    def _check_invariants(vals) -> None:
        if vals[0] < 0:
            raise ValueError("error term must be non-negative")
        for i in range(1, len(vals)):
            if vals[i] < vals[i - 1]:
                raise ValueError(
                    f"error term must be non-decreasing, drops at index {i + 1}"
                )

    def weight_sums(self) -> Iterator[Fraction]:
        """Yield W(0), ..., W(H), W(j) = sum(f(x)/x^2 for 1 < x <= j): the
        partial sums of the de Bruijn-Erdős series, anchored at W(1) = 0,
        so W(0) = -f(1) and W(j) - W(i) = sum(f(x)/x^2 for i < x <= j).
        """
        total = -self.values[0]
        yield total
        for x, v in enumerate(self.values, start=1):
            total += v / (x * x)
            yield total

    @cached_property
    def weight_grid(self) -> tuple[int, tuple[int, ...]]:
        """``(D_W, Wt)``: the W(j) on an integer grid, indexed like
        ``SequencePrefix.grid``: Wt[0] = 0 and Wt[k] = D_W * W(k-1) for
        k = 1..H+1, so Wt[k] sits at the index of a(k).  Built on first
        use and kept.

        With f(x) = p_x/q_x, D_W is the lcm of the q_x * x^2 over the x
        with f(x) != 0 (1 when f is zero throughout): a common denominator
        of every W(j), not always the least one.  A zero term adds nothing
        to W, so leaving it out of the lcm keeps D_W at 1 for the zero
        term and keeps leading zeros from widening it.  Wt is the integer
        prefix sum of p_x * (D_W // (q_x * x^2)), each division a long
        number over a short one; no ``Fraction`` is built.  An integer
        table (grid denominator 1) is read from its grid, with q_x = 1.
        The table is the stream of ``_weights(H + 1)``.
        """
        denom, sums = self._weights(self._horizon + 1)
        return denom, (0, *sums)

    def _weights(self, top: int) -> tuple[int, Iterator[int]]:
        """``(D_W, Wt)`` of ``weight_grid`` for the term cut to f(1..top-1),
        2 <= top <= H + 1: D_W its lcm, and Wt the stream of Wt[1], ...,
        Wt[top], one integer pass that holds no table."""
        if self._grid is not None and self._grid[0] == 1:
            table = self._grid[1]
            terms = [(table[x], x * x) for x in range(1, top)]
        else:
            terms = [
                (v.numerator, v.denominator * x * x)
                for x, v in enumerate(self.values[: top - 1], start=1)
            ]
        denom = math.lcm(*(d for p, d in terms if p))

        def sums():
            total = -terms[0][0] * (denom // terms[0][1])
            yield total
            for p, d in terms:
                if p:
                    total += p * (denom // d)
                yield total

        return denom, sums()

    @cached_property
    def weight_bounds(self) -> tuple[list[int], list[int]]:
        """``(Wlo, E)``: the W(j) at scale 2**K, K = ``_IMAGE_BITS``,
        indexed like ``weight_grid``: Wlo[0] = E[0] = 0 and Wlo[k] <= 2**K
        * W(k-1) <= Wlo[k] + E[k] for k = 1..H+1.  Built on first use and
        kept.

        Wlo[k] for k >= 2 is the sum of the floors of 2**K * f(x) / x^2
        over 1 < x < k, and E[k] counts the floors among them that are not
        exact, each short by less than 1; Wlo[1] is the floor of -2**K *
        f(1).  Where every floor is exact, as for the zero term, the bounds
        are equal.  The f(x) are read from the grid when the term holds
        it, else from ``values``; there is no lcm and no ``Fraction``.
        """
        if self._grid is not None:
            denom, table = self._grid
            terms = [(table[x], denom * x * x) for x in range(1, self._horizon + 1)]
        else:
            terms = [
                (v.numerator, v.denominator * x * x)
                for x, v in enumerate(self.values, start=1)
            ]
        first, rem = divmod(-terms[0][0] << _IMAGE_BITS, terms[0][1])
        lows, misses = [0, first, 0], [0, 1 if rem else 0, 0]
        total = count = 0
        for p, d in terms[1:]:
            low, rem = divmod(p << _IMAGE_BITS, d)
            total += low
            if rem:
                count += 1
            lows.append(total)
            misses.append(count)
        return lows, misses


def _require_prefix_and_term(a, f) -> None:
    """Reject, with a TypeError, an ``a`` that is not a SequencePrefix or
    an ``f`` that is neither an ErrorTerm nor None."""
    if not isinstance(a, SequencePrefix):
        raise TypeError(f"a must be a SequencePrefix, got {type(a).__name__}")
    if f is not None and not isinstance(f, ErrorTerm):
        raise TypeError(f"f must be an ErrorTerm or None, got {type(f).__name__}")


# --- builtin error-term families -------------------------------------------

_FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    "zero": (),
    "constant": ("c",),
    "floor_sqrt": (),
    "floor_power": ("c", "delta"),
    "linear_over_log": (),
    "linear": ("c",),
}


def family_parameters(family: str) -> tuple[str, ...]:
    """Parameter names a builtin family expects, in positional order."""
    try:
        return _FAMILY_PARAMS[family]
    except KeyError:
        raise ValueError(f"unknown error-term family: {family!r}") from None


def _floor_root(x: int, r: int) -> int:
    """Largest t >= 0 with t**r <= x (integer Newton iteration)."""
    if x < 0 or r < 1:
        raise ValueError("need x >= 0 and r >= 1")
    if r == 1 or x in (0, 1):
        return x
    if r == 2:
        return math.isqrt(x)
    t = 1 << -(-x.bit_length() // r)
    while True:
        nt = ((r - 1) * t + x // t ** (r - 1)) // r
        if nt >= t:
            break
        t = nt
    while t ** r > x:
        t -= 1
    while (t + 1) ** r <= x:
        t += 1
    return t


def _floor_ratio_log2(n: int) -> int:
    """floor(n / log2(n + 1)), decided exactly.

    t <= n/log2(n+1) iff (n+1)**t <= 2**n, so a double estimate within
    1e-6 of an integer (in 1..20000, only n = 1) is settled by powering.
    Elsewhere it is conclusive while its error is below 1e-6: with log2
    within 2 ulps and a correctly rounded division the relative error is
    below 2.5 * 2**-52 < 5.6e-16, which holds the absolute error under
    1e-6 while n/log2(n+1) < 1.8e9, that is, for n < 6.4e10.
    """
    if n < 1:
        raise ValueError("index must be positive")
    est = n / math.log2(n + 1)
    t = int(est)
    if min(est - t, t + 1 - est) < 1e-6:
        cap = 1 << n
        while (n + 1) ** (t + 1) <= cap:
            t += 1
        while (n + 1) ** t > cap:
            t -= 1
    return t


def zero_error_term(horizon: int) -> ErrorTerm:
    """The identically-zero error term (plain subadditivity)."""
    _require_int(horizon, "horizon")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    return ErrorTerm._from_ints([0] * horizon)


def builtin_error_term(
    family: str, horizon: int, params: Mapping | None = None
) -> ErrorTerm:
    """Tabulate one of the builtin error-term families up to ``horizon``.

    Families (parameters are exact rationals):

    - ``zero``: f(n) = 0
    - ``constant``: f(n) = floor(c), c >= 0
    - ``floor_sqrt``: f(n) = floor(sqrt(n))
    - ``floor_power``: f(n) = floor(c * n**(1 - delta)), c >= 0, delta in (0, 1]
    - ``linear_over_log``: f(n) = floor(n / log2(n + 1))
    - ``linear``: f(n) = floor(c * n), c >= 0

    Every value is a Python int (floors applied throughout), so
    monotonicity and non-negativity are decided exactly, and the term is
    an integer table: no ``Fraction`` is built unless ``values`` is used.
    """
    _require_int(horizon, "horizon")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    expected = family_parameters(family)
    given = dict(params or {})
    if set(given) != set(expected):
        raise ValueError(
            f"family {family!r} expects parameters {list(expected)}, got {sorted(given)}"
        )
    args = {k: _coerce(v) for k, v in given.items()}

    if family == "zero":
        values = [0] * horizon
    elif family == "constant":
        c = args["c"]
        if c < 0:
            raise ValueError("parameter out of range: c must be >= 0")
        values = [c.numerator // c.denominator] * horizon
    elif family == "floor_sqrt":
        values = [math.isqrt(n) for n in range(1, horizon + 1)]
    elif family == "floor_power":
        c, delta = args["c"], args["delta"]
        if c < 0:
            raise ValueError("parameter out of range: c must be >= 0")
        if not 0 < delta <= 1:
            raise ValueError("parameter out of range: delta must be in (0, 1]")
        d = 1 - delta
        dp, dq = d.numerator, d.denominator
        cp, cq = c.numerator, c.denominator
        values = [
            _floor_root(cp ** dq * n ** dp, dq) // cq for n in range(1, horizon + 1)
        ]
    elif family == "linear_over_log":
        values = [_floor_ratio_log2(n) for n in range(1, horizon + 1)]
    elif family == "linear":
        c = args["c"]
        if c < 0:
            raise ValueError("parameter out of range: c must be >= 0")
        values = [(c.numerator * n) // c.denominator for n in range(1, horizon + 1)]
    else:  # pragma: no cover - family_parameters already rejected it
        raise ValueError(f"unknown error-term family: {family!r}")

    return ErrorTerm._from_ints(values)


# --- pair domains -----------------------------------------------------------


class PairDomain:
    """Selects the unordered pairs (n, m) on which the subadditivity
    inequality is asserted.

    Two kinds exist: ``IntervalDomain``, the band ``N <= n <= m <= mu*n +
    slack`` that every builtin variant except ``explicit`` is, and
    ``ExplicitDomain``, a listed set of pairs.  ``admits`` is symmetric:
    pairs are normalised to (min, max) before testing.  ``pairs_upto``
    enumerates the admitted pairs with n <= m and n + m <= horizon, in
    order of n, then m.
    """

    def admits(self, n: int, m: int) -> bool:
        raise NotImplementedError

    def pairs_upto(self, horizon: int) -> Iterator[tuple[int, int]]:
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class IntervalDomain(PairDomain):
    """The pairs with N <= n <= m and m <= mu*n + slack; ``mu = None``
    means no upper bound on m.

    For each sum s the admitted smaller members n form one interval
    ``sum_interval(s)``, which is what lets scans certify a whole sum at
    once.  Build it with ``FullDomain``, ``ThresholdDomain``,
    ``MuBandDomain`` or ``OnePlusDomain``; ``variant`` names which, and
    only selects the report shape of ``to_json_dict``.
    """

    variant: str
    N: int = 1
    mu: Fraction | None = None
    slack: int = 0

    def __post_init__(self):
        _require_int(self.N, "threshold")
        if self.N < 1:
            raise ValueError("threshold must be positive")
        if self.mu is not None:
            object.__setattr__(self, "mu", _coerce(self.mu))
        # the report names only the variant and its parameters, so the
        # bounds must be the ones that name implies
        fits = {
            "full": self.N == 1 and self.mu is None and self.slack == 0,
            "threshold": self.mu is None and self.slack == 0,
            "muband": self.mu is not None and self.slack == 0,
            "oneplus": self.mu == 1 and self.slack == 1,
        }
        if not fits.get(self.variant, False):
            raise ValueError(
                f"variant {self.variant!r} does not fit N={self.N}, mu={self.mu}, slack={self.slack}"
            )
        # the ints of the lower ends, read once: s - n <= mu*n + slack is
        # n >= (s - slack) * den / (num + den), with mu = num / den
        mu = self.mu
        den, wide = (None, None) if mu is None else (mu.denominator, mu.numerator + mu.denominator)
        object.__setattr__(self, "_lower", (self.N, den, wide, self.slack))

    def sum_interval(self, s: int) -> tuple[int, int]:
        """The admitted smaller members n of the pairs (n, s - n), as the
        closed interval ``(lo, s // 2)``, empty when lo > s // 2."""
        N, den, wide, slack = self._lower
        if wide is None:
            return N, s // 2
        lo = -((slack - s) * den // wide)
        return (lo if lo > N else N), s // 2

    def _lower_ends(self, horizon: int) -> list[int]:
        """The lower end of ``sum_interval(s)`` for s = 0..horizon, in one
        pass on ints."""
        N, den, wide, slack = self._lower
        if wide is None:
            return [N] * (horizon + 1)
        ends = [-((slack - s) * den // wide) for s in range(horizon + 1)]
        return [lo if lo > N else N for lo in ends]

    def admits(self, n: int, m: int) -> bool:
        lo, hi = (n, m) if n <= m else (m, n)
        return self.sum_interval(lo + hi)[0] <= lo

    def pairs_upto(self, horizon):
        for n in range(self.N, horizon // 2 + 1):
            m_top = horizon - n
            if self.mu is not None:
                m_top = min(m_top, self.mu.numerator * n // self.mu.denominator + self.slack)
            for m in range(n, m_top + 1):
                yield n, m

    def to_json_dict(self):
        payload = {"variant": self.variant}
        if self.variant == "muband":
            payload["mu"] = format_rational(self.mu)
        if self.variant != "full":
            payload["N"] = self.N
        return payload


def FullDomain() -> IntervalDomain:
    """All pairs n, m >= 1."""
    return IntervalDomain("full")


def ThresholdDomain(N: int) -> IntervalDomain:
    """All pairs with n, m >= N."""
    return IntervalDomain("threshold", N)


def MuBandDomain(mu, N: int) -> IntervalDomain:
    """Pairs with N <= n <= m <= mu * n (after normalising n <= m), mu > 1."""
    mu = _coerce(mu)
    if mu <= 1:
        raise ValueError("mu must exceed 1")
    return IntervalDomain("muband", N, mu)


def OnePlusDomain(N: int) -> IntervalDomain:
    """Exactly the pairs (n, n) and (n, n + 1) for n >= N."""
    return IntervalDomain("oneplus", N, Fraction(1), 1)


@dataclass(frozen=True, init=False)
class ExplicitDomain(PairDomain):
    """A finite, explicitly listed set of pairs (stored normalised)."""

    pairs: frozenset[tuple[int, int]]

    def __init__(self, pairs: Iterable[tuple[int, int]]) -> None:
        normalised = set()
        for pair in pairs:
            if not (
                isinstance(pair, (tuple, list))
                and len(pair) == 2
                and all(_is_int(x) and x >= 1 for x in pair)
            ):
                raise ValueError(f"invalid pair {pair!r}: need two positive integers")
            n, m = pair
            normalised.add((min(n, m), max(n, m)))
        object.__setattr__(self, "pairs", frozenset(normalised))

    def admits(self, n: int, m: int) -> bool:
        return (min(n, m), max(n, m)) in self.pairs

    def pairs_upto(self, horizon):
        for n, m in sorted(self.pairs):
            if n + m <= horizon:
                yield n, m

    def to_json_dict(self):
        return {"variant": "explicit", "pairs": [list(p) for p in sorted(self.pairs)]}


# --- serialization ----------------------------------------------------------


def _check_printable(pairs: Iterable[tuple[int, int]]) -> None:
    """Raise now the ValueError that ``format_rational`` would raise on
    one of the rationals p/q, q >= 1, of ``pairs``: that of ``str()`` on
    an integer longer than ``_digit_limit()`` digits.  Every stream of
    pieces runs this before it makes its first, so a stream that would
    fail writes nothing.

    An integer of b bits is below 2**b, which has at most ``limit``
    digits while b <= limit * log2(10), and reducing p/q shortens neither
    part; only the rationals with a part within two bits of that length
    are reduced and converted.
    """
    limit = _digit_limit()
    if not limit:
        return
    bits = int(limit * math.log2(10)) - 2
    for p, q in pairs:
        if p.bit_length() > bits or q.bit_length() > bits:
            format_rational(Fraction(p, q))


def _json_with_array(head: dict, key: str, items: Iterable[str]) -> Iterator[str]:
    """The pieces of ``json.dumps(payload, indent=2, sort_keys=True) +
    "\\n"`` for ``head`` with one more member: ``key``, a list whose
    elements ``json.dumps`` writes as ``items`` (at depth 2, less the
    leading indent).  Each item is its own piece.

    Only ``head`` goes through ``json.dumps``, which never uses its C
    encoder when ``indent`` is set.  The array follows the head, so
    ``key`` must sort after every key of the non-empty ``head``.
    """
    text = json.dumps(head, indent=2, sort_keys=True)
    yield f'{text[:-2]},\n  "{key}": ['
    empty = True
    for item in items:
        yield "\n    " if empty else ",\n    "
        yield item
        empty = False
    yield "]\n}\n" if empty else "\n  ]\n}\n"


def _sequence_json_pieces(prefix: SequencePrefix) -> Iterator[str]:
    """The pieces of ``sequence_to_json(prefix)``, checked printable."""
    values = prefix.values
    _check_printable((v.numerator, v.denominator) for v in values)
    # a rendered rational is ASCII digits, "-" and "/": no escaping needed
    items = (f'"{format_rational(v)}"' for v in values)
    return _json_with_array({"offset": 1}, "values", items)


def _sequence_csv_pieces(prefix: SequencePrefix) -> Iterator[str]:
    """The lines of ``sequence_to_csv(prefix)``, checked printable."""
    values = prefix.values
    _check_printable((v.numerator, v.denominator) for v in values)
    return (f"{i},{format_rational(v)}\n" for i, v in enumerate(values, start=1))


def sequence_to_json(prefix: SequencePrefix) -> str:
    return "".join(_sequence_json_pieces(prefix))


def sequence_to_csv(prefix: SequencePrefix) -> str:
    return "".join(_sequence_csv_pieces(prefix))


_DECODER = json.JSONDecoder()
_JSON_SPACE = re.compile(r"[ \t\n\r]*")
_NON_SPACE = re.compile(r"\S")  # as str.isspace() and str.lstrip() read it


class _TextReader:
    """The text that ``source`` makes up, a str or an iterable of str
    pieces (a str is one piece), read forward through a window.

    ``text`` is the window: the part of the whole text from offset
    ``start`` on, with the cursor ``pos`` in it.  ``_more`` drops what is
    before the cursor and reads pieces until the window has at least
    doubled, so an element that spans many pieces is read again only
    O(log) times, in time linear in its length.  Besides what it returns,
    the reader holds the window and no piece it has passed.
    """

    def __init__(self, source: str | Iterable[str]) -> None:
        self._pieces = iter((source,) if isinstance(source, str) else source)
        self.text, self.pos, self.start, self.ended = "", 0, 0, False
        # the newlines dropped and the offset of the line after the last
        self._lines = self._line_start = 0

    def _more(self) -> bool:
        """Drop the window before the cursor and read on; False, with
        nothing read, at the end of the text."""
        text, pos = self.text, self.pos
        if pos:
            self._lines += text.count("\n", 0, pos)
            last = text.rfind("\n", 0, pos)
            if last >= 0:
                self._line_start = self.start + last + 1
            self.start += pos
        parts = [text[pos:]] if pos < len(text) else []  # a lone piece is not copied
        kept = size = len(text) - pos
        for piece in self._pieces:
            parts.append(piece)
            size += len(piece)
            if size > 2 * kept:
                break
        else:
            self.ended = True
        self.text, self.pos = "".join(parts), 0
        return size > kept

    def first(self) -> str:
        """The first character from the cursor on that is not whitespace
        (``str.isspace``), "" if there is none; the cursor stays."""
        seen = 0
        while True:
            match = _NON_SPACE.search(self.text, self.pos + seen)
            if match:
                return match.group()
            seen = len(self.text) - self.pos
            if not self._more():
                return ""

    def lines(self) -> Iterator[str]:
        """The lines of the rest of the text, as ``str.splitlines`` splits
        it."""
        while self._more():
            # the last line may go on in the next piece ("\r" then "\n")
            self.pos = len(self.text) - len(self.text.splitlines(True)[-1])
            yield from self.text[: self.pos].splitlines()
        yield from self.text.splitlines()

    def json(self):
        """``json.loads`` of the rest of the text: the same value, or a
        ValueError where it raises one, worded as its error ("invalid
        JSON: " first) with the line, column and offset in the whole text.

        Objects and arrays are walked here, and each scalar is decoded by
        ``json.JSONDecoder.raw_decode``.  The one difference is depth:
        this walk keeps its open containers in a list, not on the stack.
        """
        if self._skip() == "\ufeff" and self.start + self.pos == 0:
            raise self._error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
        stack = []  # the open containers: [list, None] or [dict, key of the next value]
        while True:
            char = self._skip()
            if char == "{" or char == "[":
                self.pos += 1
                value = {} if char == "{" else []
                if self._skip() != ("}" if char == "{" else "]"):
                    stack.append([value, self._key() if char == "{" else None])
                    continue
                self.pos += 1
            else:
                value = self._scalar()
            while stack:  # the value is done: file it, and close what it ends
                container, key = top = stack[-1]
                if key is None:
                    container.append(value)
                else:
                    container[key] = value
                char = self._skip()
                if char == ("]" if key is None else "}"):
                    self.pos += 1
                    value = container
                    stack.pop()
                elif char == ",":
                    self.pos += 1
                    if key is not None:
                        top[1] = self._key()
                    break
                else:
                    raise self._error("Expecting ',' delimiter", self.pos)
            else:
                if self._skip():
                    raise self._error("Extra data", self.pos)
                return value

    def _skip(self) -> str:
        """Move the cursor past JSON whitespace; the character there, ""
        at the end of the text."""
        while True:
            self.pos = _JSON_SPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text):
                return self.text[self.pos]
            if not self._more():
                return ""

    def _key(self) -> str:
        """The key of an object member at the cursor, past its ':'."""
        if self._skip() != '"':
            raise self._error("Expecting property name enclosed in double quotes", self.pos)
        key = self._scalar()
        if self._skip() != ":":
            raise self._error("Expecting ':' delimiter", self.pos)
        self.pos += 1
        return key

    def _scalar(self):
        """The scalar at the cursor, which moves past it.  A number may go
        on in the next piece, and three more characters decide it, so a
        scalar within three of the window's end is read again on a wider
        window, as is one that fails before the end of the text, unless
        it is no value at all with nine characters in the window from
        where it starts: the longest literal, ``-Infinity``, fits in nine,
        so no cut element fails that way."""
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.pos)
            except ValueError as exc:
                decoded = isinstance(exc, json.JSONDecodeError)
                final = decoded and exc.msg == "Expecting value" and len(self.text) - exc.pos >= 9
                if not (final or self.ended):
                    self._more()
                    continue
                if decoded:
                    raise self._error(exc.msg, exc.pos) from None
                raise
            if end + 3 > len(self.text) and not self.ended:
                self._more()
                continue
            self.pos = end
            return value

    def _error(self, msg: str, pos: int) -> ValueError:
        """The error ``msg`` at ``text[pos]``, placed in the whole text."""
        lineno = self._lines + self.text.count("\n", 0, pos) + 1
        last = self.text.rfind("\n", 0, pos)
        column = pos - last if last >= 0 else self.start + pos - self._line_start + 1
        return ValueError(
            f"invalid JSON: {msg}: line {lineno} column {column} (char {self.start + pos})"
        )


def _json_object(reader: _TextReader) -> dict:
    """The object of a JSON text; malformed JSON or any other JSON value
    raises ValueError."""
    payload = reader.json()
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    return payload


def _table_from_json(payload: dict, missing: str) -> list[str | int]:
    """The table of ``{"values": [...], "offset": 1}`` as validated
    literals; tables are 1-indexed, so the offset is absent or the int 1.
    ``missing``: the error for an object with no 'values' list."""
    values = payload.get("values")
    if not isinstance(values, list):
        raise ValueError(missing)
    _check_offset(payload)
    return [_literal(v) for v in values]


def _check_offset(payload: dict) -> None:
    """Tables are 1-indexed: an ``offset`` key is absent or the int 1."""
    offset = payload.get("offset", 1)
    if not (_is_int(offset) and offset == 1):
        raise ValueError(f"unsupported offset {offset!r}: tables are 1-indexed")


def _table_from_csv(lines: Iterable[str]) -> list[str]:
    """The table of the ``index,value`` rows ``lines`` as validated
    literals; indices are ASCII digits and run over 1..H, in any order."""
    entries: dict[int, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        idx_s, sep, val_s = line.partition(",")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'index,value'")
        idx = parse_ascii_int(idx_s, f"index on line {lineno}")
        if idx < 1:
            raise ValueError(f"line {lineno}: index must be positive, got {idx}")
        if idx in entries:
            raise ValueError(f"line {lineno}: duplicate index {idx}")
        entries[idx] = _literal(val_s)
    if not entries:
        raise ValueError("empty sequence")
    horizon = max(entries)
    for i in range(1, horizon + 1):
        if i not in entries:
            raise ValueError(f"missing index {i}")
    return [entries[i] for i in range(1, horizon + 1)]


def parse_sequence(text: str | Iterable[str]) -> SequencePrefix:
    """Parse a sequence prefix from its JSON or CSV serialisation: the str
    ``text``, or the text its str pieces make up, read one window at a
    time (``_TextReader``), so that besides the prefix only a window of
    the text is held.  The text is JSON when its first character that is
    not whitespace is "{".

    JSON objects carry ``{"values": [...], "offset": 1}``, and read as
    ``json.loads`` reads them; construction outputs (objects with a ``b``
    field) are unwrapped to their sequence.  CSV rows are ``index,value``
    with contiguous indices 1..H, one a line as ``str.splitlines`` splits
    them.  Every value is validated here (a malformed or over-long one
    raises ValueError) but kept as text: the prefix's fixed-point image
    reads only leading digits, ``_exact(n)`` and ``value(n)`` one literal,
    and all values become integers (p, q), unreduced, on the first use of
    the grid or ``values``, which are built from them.
    """
    return _parse_sequence(text)


def _parse_sequence(text: str | Iterable[str]) -> SequencePrefix:
    """``parse_sequence(text)``.  The CLI calls this name, so that a
    wrapper of ``parse_sequence`` that measures its argument as a str (as
    the benchmark's tracer does) sees only strs."""
    reader = _TextReader(text)
    if reader.first() == "{":
        payload = _json_object(reader)
        if "values" not in payload and isinstance(payload.get("b"), dict):
            payload = payload["b"]  # construction outputs wrap their sequence in "b"
        texts = _table_from_json(payload, "expected a 'values' list")
    else:
        texts = _table_from_csv(reader.lines())
    return SequencePrefix._from_texts(texts)


def parse_error_term(text: str | Iterable[str]) -> ErrorTerm:
    """Parse an error term: a family descriptor JSON
    ``{"family": name, "params": {...}, "H": n}``, a plain values JSON,
    or an ``index,value`` CSV table, from a str or its pieces, read as
    ``parse_sequence`` reads them.  A table whose entries are all written
    as integers (``p`` or ``p/1``) becomes an integer table, as a builtin
    family does."""
    reader = _TextReader(text)
    if reader.first() == "{":
        payload = _json_object(reader)
        if "family" in payload:
            family = payload["family"]
            if not isinstance(family, str):
                raise ValueError("family descriptor needs a string 'family'")
            horizon = payload.get("H")
            if not _is_int(horizon):
                raise ValueError("family descriptor needs an integer 'H'")
            raw = payload.get("params", {})
            if not isinstance(raw, dict):
                raise ValueError("'params' must be an object")
            _check_offset(payload)
            params = {k: parse_rational(v) for k, v in raw.items()}
            return builtin_error_term(family, horizon, params)
        texts = _table_from_json(payload, "expected 'family' or 'values'")
    else:
        texts = _table_from_csv(reader.lines())
    pairs = _literal_pairs(texts)
    if all(q == 1 for _, q in pairs):
        return ErrorTerm._from_ints([p for p, _ in pairs])
    return ErrorTerm(Fraction(p, q) for p, q in pairs)
