"""Exact scalar, sequence, and pair-domain types shared by every other module.

All scalars are arbitrary-precision rationals (``fractions.Fraction``), so
every inequality decided anywhere in the package is decided exactly (the
one float here, in ``_floor_ratio_log2``, is settled in integers at its
boundary, as is the depth estimate of ``limits.mu_chain_certificate``).
Sequences are finite 1-indexed prefixes ``a(1..H)``, with ``a(0) = 0``
supplied implicitly where an operation needs it.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from collections.abc import Iterable, Iterator, Mapping
from decimal import MAX_PREC, Context, Decimal, Inexact, InvalidOperation, Rounded, localcontext
from fractions import Fraction
from functools import cache, cached_property

from . import _EXPORTS

__all__ = list(_EXPORTS["model"])

# A literal: the language ``_pack`` reads from ASCII text, over every
# Unicode decimal digit, as int() reads them.
_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")


def _digit_limit() -> int:
    """The most decimal digits ``int()`` and ``str()`` convert, 0 for no
    limit (Python < 3.10.7 has none)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


class _Packed(bytes):
    """A validated literal ``p`` or ``p/q`` two decimal digits a byte: the
    bytes whose hex digits are its ASCII text with "/" written "f", a
    leading "-" written "e" and a "+" dropped, and one "0" after the sign
    when that leaves an odd count.  Only ``_literal`` makes one, so no
    bytes from outside pass for a literal."""

    __slots__ = ()


# The bytes of two decimal digits.  Without them a packed literal is left
# with the byte of its sign and the byte that holds its "/".
_DIGIT_PAIRS = bytes(16 * i + j for i in range(10) for j in range(10))


def _pack(s: str) -> _Packed | None:
    """The packed form of the ASCII text ``s`` if it is a literal: an
    optional sign, the digits of p and, optionally, "/" and the digits
    of q, the first not 0.  Else None.

    The digits are checked on the packed bytes: ``bytes.fromhex`` takes
    only hex digits and the spaces it skips (which shorten it), and a
    byte that is not two decimal digits is the sign's, the "/"'s or holds
    some other character.  The digits next to the sign and the "/", which
    share their bytes, are checked in the text.
    """
    neg = s[:1] == "-"
    body = s[1:] if neg or s[:1] == "+" else s
    slash = body.find("/")
    if not "0" <= body[:1] <= "9" or slash >= 0 and not (
        "0" <= body[slash - 1] <= "9" and "1" <= body[slash + 1:slash + 2] <= "9"
    ):
        return None
    hexed = body.replace("/", "f")
    if (len(hexed) + neg) % 2:
        hexed = "0" + hexed
    if neg:
        hexed = "e" + hexed
    try:
        packed = _Packed.fromhex(hexed)
    except ValueError:
        return None
    marks = len(packed.translate(None, _DIGIT_PAIRS))
    return packed if 2 * len(packed) == len(hexed) and marks == neg + (slash >= 0) else None


def _literal(text: str | int) -> _Packed | int:
    """An integer literal or ``p/q`` string, validated and stripped, in
    its packed form (literals in other Unicode decimal digits as their
    ASCII form); an int, or a packed literal, as given.  Malformed text
    raises ValueError, and so does a part longer than ``int()`` converts,
    with ``int()``'s error."""
    if type(text) is _Packed:
        return text
    if isinstance(text, bool):
        raise ValueError(f"malformed rational: {text!r}")
    if isinstance(text, int):
        return text
    s = str(text).strip()
    if not s.isascii():
        match = _RATIONAL_RE.match(s)
        if not match:
            raise ValueError(f"malformed rational: {text!r}")
        num, den = match.groups()  # int() raises for an over-long part
        s = str(int(num)) if den is None else f"{int(num)}/{int(den)}"
    packed = _pack(s)
    if packed is None:
        raise ValueError(f"malformed rational: {text!r}")
    limit = _digit_limit()
    if limit and len(s) > limit:
        for part in s.lstrip("+-").split("/"):
            if len(part) > limit:
                int(part)  # raises the error of an over-long literal
    return packed


def _literal_pair(literal: _Packed | int) -> tuple[int, int]:
    """The integers (p, q), q >= 1, of a validated literal, as written:
    not reduced."""
    if isinstance(literal, int):
        return literal, 1
    num, slash, den = literal.hex().partition("f")
    # the sign and the zeros after it, among which the pad, which int()
    # would count against its digit limit
    p = int(num.lstrip("e0") or "0")
    return -p if num[0] == "e" else p, int(den) if slash else 1


def _literal_pairs(texts: Iterable[_Packed | int]) -> list[tuple[int, int]]:
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


def _require_positive(value, what: str) -> None:
    """``_require_int``, then a ValueError for a value below 1."""
    _require_int(value, what)
    if value < 1:
        raise ValueError(f"{what} must be positive")


def _coerce(value) -> Fraction:
    """Accept Fraction, int, or a p/q string; anything inexact is rejected."""
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _require_mu(mu) -> Fraction:
    """``_coerce(mu)`` for a band's growth factor, which must exceed 1."""
    mu = _coerce(mu)
    if mu <= 1:
        raise ValueError("mu must exceed 1")
    return mu


class SequencePrefix:
    """Finite exact table ``a(1..H)`` of a sequence.

    ``value(0)`` is defined as 0 so that decomposition identities hold
    without special cases.  A prefix is its horizon H and the builders it
    was given (``_deferred_prefix``): of ``values``, of its integer
    ``grid``, of its fixed-point image, of exact values at given indices
    and of its values in decimal.  Each representation but the last is
    built on first use and kept; the constructors differ only in the
    builders they pass.  A prefix built from ``Fraction``s holds its
    values and builds its grid from them.  A
    prefix read by ``parse_sequence`` keeps each value as the literal read,
    packed two digits a byte (``_Packed``): its image decodes the leading
    digits of each value and its exact builder one literal per index, and
    ``grid`` or ``values`` converts all the literals once to integer pairs
    (p, q), dropping them; the pairs give the grid with no gcd per value
    and ``values`` when asked for.  An integer table (``ErrorTerm._from_ints``)
    holds its grid, over D = 1, and reads each value as (f(n), 1).  A
    convex or smoothed prefix builds each from ``_weighted``,
    and a convex one also its values in decimal, which the writers read
    instead of ``values`` (``_value_texts``) and no other code reads.
    Equality and hashing are those of ``values``.

    ``_fixed_point()`` is the prefix's fixed-point image at scale 2**K,
    K = ``_IMAGE_BITS``: integer bounds lo[n] <= a(n) * 2**K <= hi[n],
    never built from the grid; ``_exact(*ns)`` lists the values at the
    indices ``ns`` as pairs (p, q), from the exact builder ``exact(ns)``,
    else from the grid.  Scans decide pairs on the image first, and every
    slope or value comparison reads ``_bounds()``; a scan keeps on the
    prefix the sums it could not clear, for the last error term it
    scanned the prefix against.  Neither the image nor that entry takes
    part in pickling, equality or hashing.
    """

    __slots__ = ("_horizon", "_builders", "_values", "_grid", "_image", "_certified")

    def __init__(self, values: Iterable) -> None:
        vals = tuple(_coerce(v) for v in values)
        if not vals:
            raise ValueError("empty sequence")

        def grid():
            return _integer_grid([(v.numerator, v.denominator) for v in vals])

        self._horizon, self._builders = len(vals), (None, grid, None, None, None)
        self._values, self._grid, self._image, self._certified = vals, None, None, None

    @classmethod
    def _from_texts(cls, texts: list[_Packed | int]) -> SequencePrefix:
        """The prefix of the validated literals ``texts`` (``_literal``:
        packed or ints).  Its image reads the leading digits of each
        (``_text_image``) and its exact builder one literal per index
        (``_literal_pair``); its builders share one conversion of the
        literals to pairs, made on the first use of ``grid`` or
        ``values``, which drops the literals."""
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
            lambda ns: [_literal_pair(texts[n - 1]) if pairs is None else pairs[n - 1] for n in ns],
        )

    @classmethod
    def _deferred_prefix(
        cls, horizon: int, values, grid, image=None, exact=None, decimals=None
    ) -> SequencePrefix:
        """The prefix of ``horizon`` values whose ``values`` and ``grid``
        the zero-argument callables build once, on first use (None for
        one the caller sets); ``image``, if given, builds the image, or
        gives None when it has nothing to build it from; ``exact(ns)``, if
        given, is ``_exact(*ns)``; ``decimals()``, if given, lists the
        reduced numerators and the denominators of the values, as two
        lists of integer ``Decimal``s, made anew on each call.  All must
        give the same rationals."""
        if horizon < 1:
            raise ValueError("empty sequence")
        prefix = cls.__new__(cls)
        prefix._horizon, prefix._builders = horizon, (values, grid, image, exact, decimals)
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

    def _bounds(self):
        """``(lo, hi, exact)``: lo[n] <= a(n) * S <= hi[n] at one scale S >
        0, the image (``_fixed_point(from_values=False)``) or else the grid,
        lo = hi = A at S = D; and exact(n) = ``_exact(n)[0]``, read once."""
        lo, hi = self._fixed_point(from_values=False) or (self.grid[1], self.grid[1])
        return lo, hi, cache(lambda n: self._exact(n)[0])

    def _exact(self, *ns: int) -> list[tuple[int, int]]:
        """``[(p, q), ...]``, q >= 1, with a(n) = p / q for each n of
        ``ns``, not reduced: from the exact builder (one literal each of a
        parsed prefix), else the grid."""
        exact = self._builders[3]
        if exact is not None:
            return exact(ns)
        denom, table = self._grid or self.grid
        return [(table[n], denom) for n in ns]

    def value(self, n: int) -> Fraction:
        _require_int(n, "index")
        if n == 0:
            return Fraction(0)
        if not 1 <= n <= self._horizon:
            raise IndexError(f"index {n} outside 1..{self._horizon}")
        return self._reduced(n)[0]

    def _reduced(self, *ns: int) -> list[Fraction]:
        """a(n) for each n of ``ns``: from one exact builder call while the
        prefix holds no values, else from ``values``, which a prefix with no
        exact builder builds at once (over its grid each costs a big gcd)."""
        if self._values is None and self._builders[3] is not None:
            return [Fraction(p, q) for p, q in self._exact(*ns)]
        return [self.values[n - 1] for n in ns]

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


def _slope_below(bounds, i: int, j: int) -> bool:
    """Whether a(i)/i < a(j)/j, for the ``bounds`` of a prefix
    (``SequencePrefix._bounds``): on lo and hi when the slopes' intervals
    are disjoint, else on the exact values, with no big product when their
    denominators are equal."""
    lo, hi, exact = bounds
    if hi[i] * j < lo[j] * i:
        return True
    if lo[i] * j >= hi[j] * i:
        return False
    (p, q), (r, s) = exact(i), exact(j)
    if q == s:
        return p * j < r * i
    return p * s * j < r * q * i


# The scale 2**_IMAGE_BITS of a prefix's fixed-point image.  The margins
# of a clean convex prefix are about f(s)/s, far above the error of an
# image at this scale; the sums it cannot clear go to the grid.
_IMAGE_BITS = 64

# The context of ``ErrorTerm._weighted_decimals``: integer arithmetic at
# any length, in which a result that would be rounded raises instead.
_EXACT = Context(prec=MAX_PREC, traps=[Inexact, Rounded, InvalidOperation])


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

# The sign and the zeros that lead the numerator of a packed literal, in
# its hex digits.
_LEADING_RE = re.compile(r"e?0*")

def _digits(literal: _Packed, start: int, stop: int) -> str:
    """The hex digits ``start`` to ``stop`` of a packed literal, from the
    bytes that hold them alone."""
    first = start % 2
    return literal[start // 2:(stop + 1) // 2].hex()[first:first + stop - start]


def _text_image(literals: Iterable[_Packed | int]) -> tuple[list[int], list[int]]:
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
    0.21 and hi - lo <= 2.  Integers and zeros are read in full.  Only
    the bytes of the digits read are decoded; the "/" is found from the
    one byte that holds it.
    """
    lo, hi = [0], [0]
    for literal in literals:
        slash = start = 0
        if not isinstance(literal, int):
            marks = literal.translate(None, _DIGIT_PAIRS)
            mark = marks[-1] if marks else 0xe0
            if not 0xe0 <= mark < 0xf0:  # not the sign: the byte that holds "/"
                slash = 2 * literal.find(mark) + (mark < 0xf0)
                head = literal[:12].hex()
                start = _LEADING_RE.match(head).end()
                if start == len(head):  # zeros run on past the head
                    start = _LEADING_RE.match(literal.hex()).end()
        if start >= slash:  # an int or integer literal, or zero
            p, q = _literal_pair(literal)
            low, rem = divmod(p << _IMAGE_BITS, q)
            lo.append(low)
            hi.append(low + 1 if rem else low)
            continue
        end = 2 * len(literal)
        long_p, long_q = slash - start, end - slash - 1
        cut = max(0, long_p - long_q) + _IMAGE_DIGITS
        drop_p, drop_q = max(0, long_p - cut), max(0, long_q - cut)
        top_p = int(_digits(literal, start, slash - drop_p))
        top_q = int(_digits(literal, slash + 1, end - drop_q))
        shift = drop_p - drop_q
        num, den = (10**shift, 1) if shift >= 0 else (1, 10**-shift)
        low = (top_p << _IMAGE_BITS) * num // ((top_q + (drop_q > 0)) * den)
        high = -(-((top_p + (drop_p > 0)) << _IMAGE_BITS) * num // (top_q * den))
        if literal[0] >= 0xe0:
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
    ``weight_sums()``, as integers over one denominator from one pass that
    holds no table (``_weights``), as the cached fixed-point bounds of
    ``weight_bounds`` and, scaled to the values of a convex prefix, as
    reduced ``Decimal``s (``_weighted_decimals``); the last three read one
    term list.  Next to that cache, ``limits.smoothed`` keeps the last
    prefix it smoothed by this term; neither takes part in pickling,
    equality or hashing.
    """

    def __init__(self, values: Iterable) -> None:
        super().__init__(values)
        self._check_invariants(self._values)

    @classmethod
    def _from_ints(cls, ints: list[int]) -> ErrorTerm:
        """The error term of the ints f(1), ..., f(H), held as its grid
        alone, with no ``Fraction`` built."""
        table = (0, *ints)
        term = cls._deferred_prefix(
            len(ints), lambda: tuple(map(Fraction, table[1:])), None,
            exact=lambda ns: [(table[n], 1) for n in ns],
        )
        cls._check_invariants(ints)
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

    def _weight_terms(self, top: int) -> list[tuple[int, int]]:
        """``(p_x, q_x * x^2)`` for x = 1..top-1, f(x) = p_x / q_x: from
        the integer table when the term is one, else from ``values``."""
        if self._grid is not None and self._grid[0] == 1:
            table = self._grid[1]
            return [(table[x], x * x) for x in range(1, top)]
        return [
            (v.numerator, v.denominator * x * x)
            for x, v in enumerate(self.values[: top - 1], start=1)
        ]

    def _weights(self, top: int) -> tuple[int, Iterator[int]]:
        """``(D_W, Wt)``: the W(j) of the term cut to f(1..top-1), 2 <= top
        <= H + 1, on an integer grid: the stream Wt[1], ..., Wt[top] of one
        pass that keeps nothing, Wt[k] = D_W * W(k-1) at the index of a(k).

        With f(x) = p_x/q_x, D_W is the lcm of the q_x * x^2 over the x
        with f(x) != 0 (1 when f is zero throughout): a common denominator
        of every W(j), not always the least one.  A zero term adds nothing
        to W, so leaving it out of the lcm keeps D_W at 1 for the zero
        term and keeps leading zeros from widening it.  Wt is the integer
        prefix sum of p_x * (D_W // (q_x * x^2)), each division a long
        number over a short one; no ``Fraction`` is built.
        """
        terms = self._weight_terms(top)
        denom = math.lcm(*(d for p, d in terms if p))
        steps = (p * (denom // d) if p else 0 for p, d in terms)
        return denom, itertools.accumulate(steps, initial=-terms[0][0] * (denom // terms[0][1]))

    @cached_property
    def weight_bounds(self) -> tuple[list[int], list[int]]:
        """``(Wlo, E)``: the W(j) at scale 2**K, K = ``_IMAGE_BITS``,
        indexed like the Wt of ``_weights``: Wlo[0] = E[0] = 0 and Wlo[k]
        <= 2**K * W(k-1) <= Wlo[k] + E[k] for k = 1..H+1.  Built on first
        use and kept.

        Wlo[k] for k >= 2 is the sum of the floors of 2**K * f(x) / x^2
        over 1 < x < k, and E[k] counts the floors among them that are not
        exact, each short by less than 1; Wlo[1] is the floor of -2**K *
        f(1).  Where every floor is exact, as for the zero term, the bounds
        are equal.  The terms are those of ``_weights``; there is no lcm
        and no ``Fraction``.
        """
        terms = self._weight_terms(self._horizon + 1)
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

    def _weighted_decimals(self, horizon: int) -> tuple[list[Decimal], list[Decimal]]:
        """The reduced numerators and denominators of k * W(k) for k =
        1..horizon, as two lists of integer ``Decimal``s (two lists hold
        them in less memory than pairs): the values of the convex prefix
        ``_weighted(self, None, horizon)`` in base ten, whose text takes no
        conversion from binary.

        One pass over the terms of ``_weights`` keeps W(k) = n / d in
        lowest terms, from W(1) = 0.  It adds each non-zero term p_x / d_x,
        reduced first, by Henrici's method, as ``Fraction`` adds: g =
        gcd(d, d_x), then the sum over d * d_x / g, reduced by its gcd with
        g.  Scaling by k divides both by gcd(d, k).  Each gcd is of a short
        integer and the remainder of d by it, never of two long integers.
        The pass runs in ``_EXACT``, so a result it would round raises.
        """
        terms = self._weight_terms(horizon + 1)
        nums, dens = [], []
        with localcontext(_EXACT):
            num, den = Decimal(0), Decimal(1)  # W(1) = 0
            for k in range(1, horizon + 1):
                if k > 1 and terms[k - 1][0]:
                    p, d = terms[k - 1]
                    g = math.gcd(p, d)
                    p, d = p // g, d // g
                    g = math.gcd(int(den % d), d)
                    if g == 1:
                        num, den = num * d + den * p, den * d
                    else:
                        s = den // g
                        t = num * (d // g) + s * p
                        g = math.gcd(int(t % g), g)
                        num, den = (t // g if g > 1 else t), s * (d // g)
                g = math.gcd(int(den % k), k)
                nums.append(num * (k // g) if g != k else num)
                dens.append(den // g if g > 1 else den)
        return nums, dens


def _weighted(f: ErrorTerm, a: SequencePrefix | None, horizon: int) -> SequencePrefix:
    """The prefix k -> a(k) + c * k * W(k - 1 + shift), k = 1..horizon,
    with W as in ``f.weight_sums()``, in one of its two forms, which ``a``
    picks: with ``a`` None, the convex prefix k * W(k) (c = 1, shift =
    1); else the smoothing a(k) - 3k * W(k-1) (c = -3, shift = 0).  Each
    of its representations joins that of ``a`` on first use: ``values``
    with the W; ``grid`` with the Wt of one ``f._weights`` pass at the lcm
    of their denominators; the image with ``f.weight_bounds = (Wlo, E)``,
    as lo_a + c * k * Wlo and hi_a + c * k * (Wlo + E), these two swapped
    for c < 0, or None if ``a`` has none.  The exact builder, only if
    ``a`` has one (else a sweep of ``_exact`` reads the grid, built once),
    joins ``a._exact(*ks)`` with the Wt of one ``f._weights`` pass for all
    ks.  The convex prefix also lists its values in decimal
    (``f._weighted_decimals``), for the writers.
    """
    c, shift = (1, 1) if a is None else (-3, 0)

    def values() -> tuple[Fraction, ...]:
        sums = itertools.islice(f.weight_sums(), shift, None)
        terms = (c * k * w for k, w in zip(range(1, horizon + 1), sums))
        return tuple(terms) if a is None else tuple(x + t for x, t in zip(a.values, terms))

    def grid() -> tuple[int, tuple[int, ...]]:
        # W(0) reads f(1): the cut holds at least f(1)
        w_denom, sums = f._weights(max(horizon + shift, 2))
        denom, table = (1, [0] * (horizon + 1)) if a is None else a.grid
        wide = math.lcm(denom, w_denom)
        scale, w_scale = wide // denom, c * (wide // w_denom)
        w = itertools.islice(sums, shift, None)  # Wt[k + shift], k = 1, 2, ...
        return wide, (0, *(table[k] * scale + k * x * w_scale
                           for k, x in zip(range(1, horizon + 1), w)))

    def image() -> tuple[list[int], list[int]] | None:
        ends = None if a is None else a._fixed_point()
        if a is not None and ends is None:
            return None
        lows, misses = f.weight_bounds
        steps = range(0, c * (horizon + 1), c)  # c * k
        lo = [x * w for x, w in zip(steps, lows[shift:])]
        hi = [y + x * e for x, y, e in zip(steps, lo, misses[shift:])]
        if c < 0:
            lo, hi = hi, lo
        if a is None:
            return lo, hi
        return [x + y for x, y in zip(ends[0], lo)], [x + y for x, y in zip(ends[1], hi)]

    def exact(ks) -> list[tuple[int, int]]:
        w_denom, sums = f._weights(max(max(ks) + shift, 2))
        wanted = set(ks)
        w = {k: x for k, x in enumerate(sums, start=1 - shift) if k in wanted}  # Wt[k + shift]
        return [(p * w_denom + c * k * w[k] * q, q * w_denom) for k, (p, q) in zip(ks, a._exact(*ks))]

    if a is None:
        return SequencePrefix._deferred_prefix(
            horizon, values, grid, image,
            decimals=lambda: f._weighted_decimals(horizon),
        )
    has_exact = a._builders[3] is not None
    return SequencePrefix._deferred_prefix(horizon, values, grid, image, exact if has_exact else None)


def _require_prefix_and_term(a, f=None) -> None:
    """Reject, with a TypeError, an ``a`` that is not a SequencePrefix or
    an ``f`` that is neither an ErrorTerm nor None."""
    if not isinstance(a, SequencePrefix):
        raise TypeError(f"a must be a SequencePrefix, got {type(a).__name__}")
    if f is not None and not isinstance(f, ErrorTerm):
        raise TypeError(f"f must be an ErrorTerm or None, got {type(f).__name__}")


def _require_window(f, horizon: int, what: str = "horizon") -> None:
    """Reject an ``f`` that is not an ErrorTerm (TypeError), and a window
    ``horizon`` that ``_require_positive`` rejects or that passes f's."""
    if not isinstance(f, ErrorTerm):
        raise TypeError(f"f must be an ErrorTerm, got {type(f).__name__}")
    _require_positive(horizon, what)
    if horizon > f.horizon:
        raise ValueError(f"{what} {horizon} exceeds error-term horizon {f.horizon}")


# --- builtin error-term families -------------------------------------------

def family_parameters(family: str) -> tuple[str, ...]:
    """Parameter names a builtin family expects, in positional order."""
    try:
        return _FAMILIES[family][0]
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


def _floor_power(horizon: int, c: Fraction, delta: Fraction) -> list[int]:
    """floor(c * n**(1 - delta)) for n = 1..horizon, in integers
    (``_floor_root``)."""
    if not 0 < delta <= 1:
        raise ValueError("parameter out of range: delta must be in (0, 1]")
    d = 1 - delta
    dp, dq = d.numerator, d.denominator
    cp, cq = c.numerator, c.denominator
    return [_floor_root(cp ** dq * n ** dp, dq) // cq for n in range(1, horizon + 1)]


# Each builtin family: its parameter names, in positional order, and the
# tabulator of its int values f(1..H), given H and the parameters by name.
_FAMILIES = {
    "zero": ((), lambda horizon: [0] * horizon),
    "constant": (("c",), lambda horizon, c: [c.numerator // c.denominator] * horizon),
    "floor_sqrt": ((), lambda horizon: [math.isqrt(n) for n in range(1, horizon + 1)]),
    "floor_power": (("c", "delta"), _floor_power),
    "linear_over_log": ((), lambda horizon: [_floor_ratio_log2(n) for n in range(1, horizon + 1)]),
    "linear": (("c",), lambda horizon, c: [c.numerator * n // c.denominator
                                           for n in range(1, horizon + 1)]),
}


def zero_error_term(horizon: int) -> ErrorTerm:
    """The identically-zero error term (plain subadditivity)."""
    return builtin_error_term("zero", horizon)


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
    _require_positive(horizon, "horizon")
    expected = family_parameters(family)
    given = dict(params or {})
    if set(given) != set(expected):
        raise ValueError(
            f"family {family!r} expects parameters {list(expected)}, got {sorted(given)}"
        )
    args = {k: _coerce(v) for k, v in given.items()}
    if args.get("c", 0) < 0:
        raise ValueError("parameter out of range: c must be >= 0")
    return ErrorTerm._from_ints(_FAMILIES[family][1](horizon, **args))


# --- records ----------------------------------------------------------------


def _record(cls=None, /, *, frozen: bool = True):
    """Make ``cls`` a record of the fields it annotates, in order, as
    ``dataclasses.dataclass(frozen=frozen)`` would, without importing
    ``dataclasses``, which would load ``inspect`` and ``ast`` into every
    process that imports the package (README, "Records").

    The record gets an ``__init__`` taking the fields, positionally or by
    name, with the class attributes as the defaults of the last ones, that
    calls ``__post_init__`` if the class has one (a class that writes its
    own ``__init__`` keeps it); the repr ``Name(field=value, ...)``;
    equality of the field values, only between records of one class; and
    ``__match_args__``.  A frozen record hashes its field values and
    raises AttributeError on assigning or deleting an attribute (its own
    ``__init__`` and ``__post_init__`` use ``object.__setattr__``); a
    mutable one is unhashable.  Records pickle as any plain object does.
    """
    if cls is None:
        return lambda cls: _record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    if "__init__" not in cls.__dict__:
        store = "    _set(self, {0!r}, {0})\n" if frozen else "    self.{0} = {0}\n"
        source = f"def __init__(self, {', '.join(names)}):\n" + "".join(map(store.format, names))
        if hasattr(cls, "__post_init__"):
            source += "    self.__post_init__()\n"
        scope = {}
        exec(source, {"_set": object.__setattr__}, scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__defaults__ = defaults

    def values(self):
        return tuple(getattr(self, name) for name in names)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__repr__, cls.__eq__, cls.__match_args__ = __repr__, __eq__, names
    if frozen:
        cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
        cls.__hash__ = lambda self: hash(values(self))
    else:
        cls.__hash__ = None
    return cls


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


@_record
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
        if self.mu is not None:
            mu = _require_mu(self.mu) if self.variant == "muband" else _coerce(self.mu)
            object.__setattr__(self, "mu", mu)
        _require_positive(self.N, "threshold")
        _require_int(self.slack, "slack")
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

    @cached_property
    def _band(self) -> tuple[int, int, int, int]:
        """``(N, slack, den, num + den)`` for mu = num / den, with den = 0
        when mu is None, which leaves n >= N alone."""
        if self.mu is None:
            return self.N, 0, 0, 1
        num, den = self.mu.numerator, self.mu.denominator
        return self.N, self.slack, den, num + den

    @staticmethod
    def _lower_end(band: tuple[int, int, int, int], s: int) -> int:
        """The lower end of ``sum_interval(s)`` for ``band = self._band``,
        on ints: s - n <= mu*n + slack is n >= (s - slack) * den / (num +
        den).  It takes the band, not self, so ``_lower_ends`` maps it
        with no attribute lookup per sum."""
        N, slack, den, wide = band
        lo = -((slack - s) * den // wide)
        return lo if lo > N else N

    def _lower_ends(self, first: int, last: int) -> list[int]:
        """The lower end of ``sum_interval(s)`` for s = first..last."""
        if self.mu is None:
            return [self.N] * (last - first + 1)
        return list(map(self._lower_end, itertools.repeat(self._band), range(first, last + 1)))

    def sum_interval(self, s: int) -> tuple[int, int]:
        """The admitted smaller members n of the pairs (n, s - n), as the
        closed interval ``(lo, s // 2)``, empty when lo > s // 2."""
        return self._lower_end(self._band, s), s // 2

    def admits(self, n: int, m: int) -> bool:
        lo, hi = (n, m) if n <= m else (m, n)
        return self._lower_end(self._band, lo + hi) <= lo

    def pairs_upto(self, horizon):
        # the lower ends rise with s, so the largest sum s whose lower end
        # is at most n, the top of n's pairs (n, s - n), rises with n
        lower = self._lower_ends(0, horizon)
        top = 0
        for n in range(self.N, horizon // 2 + 1):
            while top < horizon and lower[top + 1] <= n:
                top += 1
            for m in range(n, top - n + 1):
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
    return IntervalDomain("muband", N, mu)


def OnePlusDomain(N: int) -> IntervalDomain:
    """Exactly the pairs (n, n) and (n, n + 1) for n >= N."""
    return IntervalDomain("oneplus", N, Fraction(1), 1)


@_record
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


def _json_with_arrays(head: dict, arrays: Mapping[str, Iterable[str]]) -> Iterator[str]:
    """The pieces of ``json.dumps(payload, indent=2, sort_keys=True) +
    "\\n"`` for ``head`` with one list member more for each key of
    ``arrays``, whose elements ``json.dumps`` writes as its items (at
    depth 2, less the leading indent).  Each item is its own piece.

    Only ``head``, with a null in place of each list, goes through
    ``json.dumps``, which never uses its C encoder when ``indent`` is set.
    Each null is found after its key at the start of a line indented by
    two, which no deeper member and no escaped string has.
    """
    text = json.dumps({**head, **dict.fromkeys(arrays)}, indent=2, sort_keys=True) + "\n"
    done = 0
    for key in sorted(arrays):
        member = f"\n  {json.dumps(key)}: "
        at = text.index(member, done) + len(member)
        yield text[done:at] + "["
        empty = True
        for item in arrays[key]:
            yield "\n    " if empty else ",\n    "
            yield item
            empty = False
        yield "]" if empty else "\n  ]"
        done = at + len("null")
    yield text[done:]


def _value_texts(prefix: SequencePrefix) -> Iterator[str]:
    """``format_rational`` of each value of ``prefix``, checked printable.

    A prefix with a decimal builder (a convex one) gives its texts from
    the ``Decimal``s it lists, so no long integer is converted to
    decimal.  ``str`` of a ``Decimal`` knows no digit limit, so the limit
    is checked here: a part with more digits than ``_digit_limit()``
    raises the error that ``str()`` of the int would.  Any other prefix
    formats its ``values``.
    """
    decimals = prefix._builders[4]
    if decimals is None:
        values = prefix.values
        _check_printable((v.numerator, v.denominator) for v in values)
        return map(format_rational, values)
    nums, dens = decimals()
    limit = _digit_limit()
    if limit:
        for part in itertools.chain(nums, dens):
            if part.adjusted() >= limit:  # the digits of an integer, less one
                str(int(part))
    return (str(p) if q == 1 else f"{p}/{q}" for p, q in zip(nums, dens))


def _sequence_json_pieces(prefix: SequencePrefix) -> Iterator[str]:
    """The pieces of ``sequence_to_json(prefix)``, checked printable."""
    # a rendered rational is ASCII digits, "-" and "/": no escaping needed
    items = (f'"{text}"' for text in _value_texts(prefix))
    return _json_with_arrays({"offset": 1}, {"values": items})


def _sequence_csv_pieces(prefix: SequencePrefix) -> Iterator[str]:
    """The lines of ``sequence_to_csv(prefix)``, checked printable."""
    return (f"{i},{text}\n" for i, text in enumerate(_value_texts(prefix), start=1))


def sequence_to_json(prefix: SequencePrefix) -> str:
    """The JSON text ``{"offset": 1, "values": [...]}`` of ``prefix``,
    each value written by ``format_rational`` (a convex prefix's from its
    digits in decimal, ``_value_texts``), indented as ``json.dumps(...,
    indent=2, sort_keys=True)`` with a newline after it."""
    return "".join(_sequence_json_pieces(prefix))


def sequence_to_csv(prefix: SequencePrefix) -> str:
    """The ``index,value`` lines of ``prefix``, indices 1..H, each value
    written as ``sequence_to_json`` writes it."""
    return "".join(_sequence_csv_pieces(prefix))


_DECODER = json.JSONDecoder()
_JSON_SPACE = re.compile(r"[ \t\n\r]*")
# What follows an array element: a "," and the space after it, or a "]".
_AFTER_ELEMENT = re.compile(r"[ \t\n\r]*(?:,[ \t\n\r]*|\])")
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
        # the end, in the whole text, of the window in which an object or
        # array element last ran past the window (``_elements``)
        self._overrun = -1
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

    def json(self, literals: bool = False):
        """``json.loads`` of the rest of the text: the same value, or a
        ValueError where it raises one, worded as its error ("invalid
        JSON: " first) with the line, column and offset in the whole text.
        With ``literals``, a string element of an array that is read on
        its own and that ``_literal`` takes is kept packed as it is read
        (``_Packed``), so that no list of the strings is ever held.

        Objects and arrays are walked here.  Each element of an array that
        ends, with the "," or "]" after it, inside the window is decoded
        whole by one scan of the ``json.JSONDecoder`` (``_elements``), and
        each other scalar by one ``raw_decode``.  The one difference is
        depth: this walk keeps its open containers in a list, not on the
        stack.
        """
        if self._skip() == "\ufeff" and self.start + self.pos == 0:
            raise self._error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
        stack = []  # the open containers: [list, None] or [dict, key of the next value]
        while True:
            char = self._skip()
            if char == "{" or char == "[":
                self.pos += 1
                value = {} if char == "{" else []
                if self._skip() == ("}" if char == "{" else "]"):
                    self.pos += 1
                elif char == "{":
                    stack.append([value, self._key()])
                    continue
                elif not self._elements(value, literals):
                    stack.append([value, None])
                    continue
            else:
                value = self._scalar()
            while stack:  # the value is done: file it, and close what it ends
                container, key = top = stack[-1]
                if key is not None:
                    container[key] = value
                elif literals and type(value) is str:
                    container.append(_packed_or_same(value))
                else:
                    container.append(value)
                char = self._skip()
                if char == ("]" if key is None else "}"):
                    self.pos += 1
                elif char != ",":
                    raise self._error("Expecting ',' delimiter", self.pos)
                elif key is not None:
                    self.pos += 1
                    top[1] = self._key()
                    break
                else:
                    self.pos += 1
                    if not self._elements(container, literals):
                        break
                value = container  # closed
                stack.pop()
            else:
                if self._skip():
                    raise self._error("Extra data", self.pos)
                return value

    def _elements(self, array: list, literals: bool) -> bool:
        """Append to ``array`` the elements from the cursor on that end,
        with the "," or "]" after them, inside the window, each decoded
        whole by one scan of the decoder (and kept packed as
        ``json(literals)`` says).  True, with the cursor past the "]", when
        that closes the array; else False, with the cursor on the element
        for the walk to read.

        Once an object or array element has run past the end of the
        window, no other one is tried until the window moves, so that the
        window is not scanned again for each container open at its end.
        """
        self._skip()
        text, pos = self.text, self.pos
        window_end = self.start + len(text)
        guarded = self._overrun == window_end
        scan, after_element = _DECODER.scan_once, _AFTER_ELEMENT.match
        try:
            while not (guarded and text[pos:pos + 1] in ("[", "{")):
                value, end = scan(text, pos)
                after = after_element(text, end)
                if after is None:
                    return False
                if literals and type(value) is str:
                    value = _packed_or_same(value)
                array.append(value)
                pos = after.end()
                if text[pos - 1] == "]":
                    return True
            return False
        except (StopIteration, ValueError, RecursionError):  # the walk reads it, or raises
            if text[pos:pos + 1] in ("[", "{"):
                self._overrun = window_end
            return False
        finally:
            self.pos = pos

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


def _packed_or_same(text: str) -> _Packed | str:
    """``_literal(text)``, or ``text`` itself when that raises: the error
    is raised when the table is read (``_table_from_json``)."""
    try:
        return _literal(text)
    except ValueError:
        return text


def _table_from_json(payload: dict, missing: str) -> list[_Packed | int]:
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


def _read_table(text: str | Iterable[str], from_object):
    """``from_object`` of the JSON object (literals packed) of a text whose
    first non-space character is "{", else the literals of its CSV rows."""
    reader = _TextReader(text)
    if reader.first() == "{":
        return from_object(reader.json(literals=True))
    return _table_from_csv(reader.lines())


def _table_from_csv(lines: Iterable[str]) -> list[_Packed | int]:
    """The table of the ``index,value`` rows ``lines`` as validated
    literals; indices are ASCII digits and run over 1..H, in any order."""
    entries: dict[int, _Packed] = {}
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
    raises ValueError) but kept as the literal written, packed two digits
    a byte as it is read (``_Packed``), so the prefix holds about half
    the text's size: the prefix's fixed-point image decodes only leading
    digits, ``_exact(n)`` and ``value(n)`` one literal, and all values
    become integers (p, q), unreduced, on the first use of the grid or
    ``values``, which are built from them.  Written back, the prefix
    converts each of its ``values`` to text; only a convex prefix gives
    its writers digits computed in decimal (``sequence_to_json``).
    """
    return _parse_sequence(text)


def _parse_sequence(text: str | Iterable[str]) -> SequencePrefix:
    """``parse_sequence(text)``.  The CLI calls this name, so that a
    wrapper of ``parse_sequence`` that measures its argument as a str (as
    the benchmark's tracer does) sees only strs."""
    def from_object(payload: dict) -> list[_Packed | int]:
        if "values" not in payload and isinstance(payload.get("b"), dict):
            payload = payload["b"]  # construction outputs wrap their sequence in "b"
        return _table_from_json(payload, "expected a 'values' list")

    return SequencePrefix._from_texts(_read_table(text, from_object))


def parse_error_term(text: str | Iterable[str]) -> ErrorTerm:
    """Parse an error term: a family descriptor JSON
    ``{"family": name, "params": {...}, "H": n}``, a plain values JSON,
    or an ``index,value`` CSV table, from a str or its pieces, read as
    ``parse_sequence`` reads them.  A table whose entries are all written
    as integers (``p`` or ``p/1``) becomes an integer table, as a builtin
    family does."""
    table = _read_table(text, _error_term_table)
    if isinstance(table, ErrorTerm):
        return table
    pairs = _literal_pairs(table)
    if all(q == 1 for _, q in pairs):
        return ErrorTerm._from_ints([p for p, _ in pairs])
    return ErrorTerm(Fraction(p, q) for p, q in pairs)


def _error_term_table(payload: dict) -> ErrorTerm | list[_Packed | int]:
    """The term of a family descriptor, else the table of the object."""
    if "family" not in payload:
        return _table_from_json(payload, "expected 'family' or 'values'")
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
    return builtin_error_term(family, horizon, {k: parse_rational(v) for k, v in raw.items()})
