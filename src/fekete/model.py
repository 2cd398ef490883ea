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
    "parse_error_term",
    "parse_rational",
    "parse_sequence",
    "sequence_to_csv",
    "sequence_to_json",
    "zero_error_term",
]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str | int) -> Fraction:
    """Parse an exact rational from an integer literal or a ``p/q`` string."""
    if isinstance(text, bool):
        raise ValueError(f"malformed rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"malformed rational: {text!r}")
    return Fraction(s)


def format_rational(value: Fraction) -> str:
    """Canonical rendering: bare ``p`` for integers, otherwise ``p/q``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _is_int(value) -> bool:
    """True for ints other than bools, which JSON ``true`` decodes to."""
    return isinstance(value, int) and not isinstance(value, bool)


def _coerce(value) -> Fraction:
    """Accept Fraction, int, or a p/q string; anything inexact is rejected."""
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True, init=False)
class SequencePrefix:
    """Finite exact table ``a(1..H)`` of a sequence.

    ``value(0)`` is defined as 0 so that decomposition identities hold
    without special cases.
    """

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable) -> None:
        vals = tuple(_coerce(v) for v in values)
        if not vals:
            raise ValueError("empty sequence")
        object.__setattr__(self, "values", vals)

    @property
    def horizon(self) -> int:
        return len(self.values)

    def value(self, n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        if not 1 <= n <= len(self.values):
            raise IndexError(f"index {n} outside 1..{len(self.values)}")
        return self.values[n - 1]

    def slope(self, n: int) -> Fraction:
        """The ratio a(n)/n."""
        return self.value(n) / n

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(v / (i + 1) for i, v in enumerate(self.values))


@dataclass(frozen=True, init=False)
class ErrorTerm:
    """Non-negative, non-decreasing exact table ``f(1..H)``.

    Both invariants are enforced at construction, so holding an ErrorTerm
    is itself a certificate that the table qualifies as an error term.
    """

    values: tuple[Fraction, ...]
    family_tag: str | None

    def __init__(self, values: Iterable, family_tag: str | None = None) -> None:
        vals = tuple(_coerce(v) for v in values)
        if not vals:
            raise ValueError("empty error term")
        if vals[0] < 0:
            raise ValueError("error term must be non-negative")
        for i in range(1, len(vals)):
            if vals[i] < vals[i - 1]:
                raise ValueError(
                    f"error term must be non-decreasing, drops at index {i + 1}"
                )
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "family_tag", family_tag)

    @property
    def horizon(self) -> int:
        return len(self.values)

    def value(self, n: int) -> Fraction:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"index {n} outside 1..{len(self.values)}")
        return self.values[n - 1]

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
    def weights(self) -> tuple[Fraction, ...]:
        """The tuple (W(0), ..., W(H)), built on first use and kept."""
        return tuple(self.weight_sums())


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
    if horizon < 1:
        raise ValueError("horizon must be positive")
    return ErrorTerm((Fraction(0),) * horizon, family_tag="zero")


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

    Every value is an exact integer (floors applied throughout), so
    monotonicity and non-negativity are decided exactly.
    """
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
        tag = "zero"
    elif family == "constant":
        c = args["c"]
        if c < 0:
            raise ValueError("parameter out of range: c must be >= 0")
        values = [c.numerator // c.denominator] * horizon
        tag = f"constant({format_rational(c)})"
    elif family == "floor_sqrt":
        values = [math.isqrt(n) for n in range(1, horizon + 1)]
        tag = "floor_sqrt"
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
        tag = f"floor_power({format_rational(c)},{format_rational(delta)})"
    elif family == "linear_over_log":
        values = [_floor_ratio_log2(n) for n in range(1, horizon + 1)]
        tag = "linear_over_log"
    elif family == "linear":
        c = args["c"]
        if c < 0:
            raise ValueError("parameter out of range: c must be >= 0")
        values = [(c.numerator * n) // c.denominator for n in range(1, horizon + 1)]
        tag = f"linear({format_rational(c)})"
    else:  # pragma: no cover - family_parameters already rejected it
        raise ValueError(f"unknown error-term family: {family!r}")

    return ErrorTerm(values, family_tag=tag)


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
        if not _is_int(self.N):
            raise TypeError(f"threshold must be an int, got {type(self.N).__name__}")
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

    def sum_interval(self, s: int) -> tuple[int, int]:
        """The admitted smaller members n of the pairs (n, s - n), as the
        closed interval ``(lo, s // 2)``, empty when lo > s // 2."""
        if self.mu is None:
            return self.N, s // 2
        # s - n <= mu*n + slack is n >= (s - slack) / (1 + mu)
        num, den = self.mu.numerator, self.mu.denominator
        return max(self.N, -(-(s - self.slack) * den // (num + den))), s // 2

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


def sequence_to_json(prefix: SequencePrefix) -> str:
    payload = {
        "values": [format_rational(v) for v in prefix.values],
        "offset": 1,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def sequence_to_csv(prefix: SequencePrefix) -> str:
    lines = [
        f"{i},{format_rational(v)}" for i, v in enumerate(prefix.values, start=1)
    ]
    return "\n".join(lines) + "\n"


def _sequence_from_json(text: str) -> SequencePrefix:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object with a 'values' field")
    if "values" not in payload and isinstance(payload.get("b"), dict):
        payload = payload["b"]  # construction outputs wrap their sequence in "b"
    return SequencePrefix(_table_from_json(payload, "expected a 'values' list"))


def _table_from_json(payload: dict, missing: str) -> list[Fraction]:
    """The table of ``{"values": [...], "offset": 1}``; tables are 1-indexed,
    so the offset is absent or the int 1.  ``missing``: no 'values' list."""
    values = payload.get("values")
    if not isinstance(values, list):
        raise ValueError(missing)
    offset = payload.get("offset", 1)
    if not (_is_int(offset) and offset == 1):
        raise ValueError(f"unsupported offset {offset!r}: tables are 1-indexed")
    return [parse_rational(v) for v in values]


def _table_from_csv(text: str) -> list[Fraction]:
    entries: dict[int, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        idx_s, sep, val_s = line.partition(",")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'index,value'")
        try:
            idx = int(idx_s.strip())
        except ValueError:
            raise ValueError(f"line {lineno}: malformed index {idx_s!r}") from None
        if idx < 1:
            raise ValueError(f"line {lineno}: index must be positive, got {idx}")
        if idx in entries:
            raise ValueError(f"line {lineno}: duplicate index {idx}")
        entries[idx] = parse_rational(val_s)
    if not entries:
        raise ValueError("empty sequence")
    horizon = max(entries)
    for i in range(1, horizon + 1):
        if i not in entries:
            raise ValueError(f"missing index {i}")
    return [entries[i] for i in range(1, horizon + 1)]


def parse_sequence(text: str) -> SequencePrefix:
    """Parse a sequence prefix from its JSON or CSV serialisation.

    JSON objects carry ``{"values": [...], "offset": 1}``; construction
    outputs (objects with a ``b`` field) are unwrapped to their sequence.
    CSV rows are ``index,value`` with contiguous indices 1..H.
    """
    if text.lstrip().startswith("{"):
        return _sequence_from_json(text)
    return SequencePrefix(_table_from_csv(text))


def parse_error_term(text: str) -> ErrorTerm:
    """Parse an error term: a family descriptor JSON
    ``{"family": name, "params": {...}, "H": n}``, a plain values JSON,
    or an ``index,value`` CSV table."""
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object")
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
            params = {k: parse_rational(v) for k, v in raw.items()}
            return builtin_error_term(family, horizon, params)
        return ErrorTerm(_table_from_json(payload, "expected 'family' or 'values'"))
    return ErrorTerm(_table_from_csv(text))
