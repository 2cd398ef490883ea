"""Batch command-line front end: every operation with file-based I/O, exact
rationals end to end, deterministic bytes for identical inputs.

Exit codes: 0 success (and clean reports where a check was requested),
1 when a requested check found violations or a construction reported
failure, 2 on usage or input-format errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterable, Iterator

from . import checker, constructions, limits, model

# The longest integer literal, in decimal digits, that the CLI parses or
# prints (Python's default is 4300).  ``construct convex`` writes values
# over the denominator lcm(x**2 for x <= H), which has at most
# 2*1.03883*H/ln(10) < 0.903*H digits (Rosser-Schoenfeld: psi(x) <
# 1.03883x), so every file it writes for H <= 10000 fits while n*W(n)
# has fewer than 960 digits; floor_sqrt at H = 10000 needs 8679.  The
# bound stays finite because converting a long literal takes quadratic
# time.
MAX_INT_DIGITS = 10_000

# The most parts ``decompose`` starts its merge chain from, n // k.  The
# chain lists about (n // k)**2 / 2 integers, so its JSON grows with the
# square: 2000 parts write about 18 MB.
MAX_CHAIN_PARTS = 2000

# The largest horizon ``construct`` tabulates, as --H or --Hmax (for
# ``threshold-gap``, --H or else the last anchor less one).  Every file
# ``construct convex`` writes up to it fits MAX_INT_DIGITS, so it reads
# back; a larger horizon exits 2 before any table is built.
MAX_HORIZON = 10_000


# The characters read from an input file at a time: a command holds one
# such window of the file besides what it has parsed from it.
_READ_CHARS = 64 * 1024


def _pieces(fh) -> Iterator[str]:
    """The text of the open file ``fh``, ``_READ_CHARS`` characters at a
    time."""
    return iter(lambda: fh.read(_READ_CHARS), "")


def _parse_file(path: str, parse):
    """``parse`` of the pieces of the UTF-8 text file ``path``: the one
    reader of every input file (sequences, error terms, explicit
    domains)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse(_pieces(fh))


def _write(pieces: Iterable[str], path: str | None) -> None:
    """Write the text ``pieces`` one at a time to the file ``path``, or to
    stdout for None or "-".  The first piece is made before the
    destination is opened, and a stream checks everything it will print
    before its first piece, so a command that fails writes nothing."""
    pieces = iter(pieces)
    first = next(pieces, "")
    if path is None or path == "-":
        out = contextlib.nullcontext(sys.stdout)
    else:
        out = open(path, "w", encoding="utf-8")
    with out as fh:
        fh.write(first)
        fh.writelines(pieces)


def _dump(payload: dict) -> list[str]:
    """The indented JSON text of ``payload``, as one piece."""
    return [json.dumps(payload, indent=2, sort_keys=True) + "\n"]


def _check_horizon(option: str, horizon: int) -> None:
    if horizon > MAX_HORIZON:
        raise ValueError(f"{option} {horizon} exceeds the limit of {MAX_HORIZON}")


def _error_term_for(spec: str, horizon: int) -> model.ErrorTerm | None:
    """--f grammar: ``zero``, a file path, or ``family:name[,param,...]``
    with parameters in the family's positional order."""
    if spec == "zero":
        return None
    if spec.startswith("family:"):
        name, *raw = spec[len("family:"):].split(",")
        names = model.family_parameters(name)
        if len(raw) != len(names):
            raise ValueError(
                f"family {name!r} expects parameters {list(names)}, got {len(raw)}"
            )
        params = {key: model.parse_rational(val) for key, val in zip(names, raw)}
        return model.builtin_error_term(name, horizon, params)
    return _parse_file(spec, model.parse_error_term)


def _int_option(text: str) -> int:
    """An integer option: ASCII digits, as for CSV indices."""
    try:
        return model.parse_ascii_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _domain_from(spec: str) -> model.PairDomain:
    """--domain grammar: full | threshold:N | muband:P/Q,N | oneplus:N |
    explicit:FILE (a JSON object with a "pairs" list)."""
    if spec == "full":
        return model.FullDomain()
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed domain spec: {spec!r}")
    if kind == "threshold":
        return model.ThresholdDomain(model.parse_ascii_int(rest, "threshold"))
    if kind == "oneplus":
        return model.OnePlusDomain(model.parse_ascii_int(rest, "threshold"))
    if kind == "muband":
        mu_s, sep2, n_s = rest.partition(",")
        if not sep2:
            raise ValueError("muband needs 'P/Q,N'")
        N = model.parse_ascii_int(n_s, "threshold")
        return model.MuBandDomain(model.parse_rational(mu_s), N)
    if kind == "explicit":
        payload = _parse_file(rest, lambda pieces: model._TextReader(pieces).json())
        pairs = payload.get("pairs") if isinstance(payload, dict) else None
        if not isinstance(pairs, list):
            raise ValueError("explicit domain file needs a 'pairs' list")
        return model.ExplicitDomain(pairs)
    raise ValueError(f"unknown domain variant: {kind!r}")


def _cmd_check(args) -> int:
    seq = _parse_file(args.seq, model._parse_sequence)
    f = _error_term_for(args.f, seq.horizon)
    domain = _domain_from(args.domain)
    ok, pieces = checker._report_stream(seq, f, domain)
    _write(pieces, args.output)
    return 0 if ok else 1


def _cmd_limit(args) -> int:
    seq = _parse_file(args.seq, model._parse_sequence)
    bracket = limits.fekete_bracket(seq, args.N)
    _write(_dump(bracket.to_json_dict()), args.output)
    return 0


def _cmd_certify_mu(args) -> int:
    cert = limits.mu_chain_certificate(model.parse_rational(args.mu), args.N, args.n)
    _write(_dump(cert.to_json_dict()), args.output)
    return 0


def _cmd_decompose(args) -> int:
    if args.k and args.n // args.k > MAX_CHAIN_PARTS:
        raise ValueError(
            f"a chain of n // k = {args.n // args.k} parts exceeds the limit of "
            f"{MAX_CHAIN_PARTS}"
        )
    chain = constructions.two_good_chain(args.n, args.k)
    _write(_dump(chain.to_json_dict()), args.output)
    return 0


def _cmd_gdeficit(args) -> int:
    seq = _parse_file(args.seq, model._parse_sequence)
    f = _error_term_for(args.f, seq.horizon)
    value = limits.g_deficit(seq, f, args.n, args.m)
    _write([model.format_rational(value) + "\n"], None)
    return 0


def _emit_sequence(prefix: model.SequencePrefix, args) -> None:
    if args.format == "csv":
        _write(model._sequence_csv_pieces(prefix), args.output)
    else:
        _write(model._sequence_json_pieces(prefix), args.output)


def _cmd_construct_convex(args) -> int:
    _check_horizon("--H", args.H)
    f = _error_term_for(args.f, args.H)
    if f is None:
        f = model.zero_error_term(args.H)
    _emit_sequence(constructions.convex_from_error(f, args.H), args)
    return 0


def _cmd_construct_rational_slopes(args) -> int:
    _check_horizon("--Hmax", args.Hmax)
    f = _error_term_for(args.f, args.Hmax)
    if f is None:
        f = model.zero_error_term(args.Hmax)
    out = constructions.rational_slope_sequence(f, args.K, args.Hmax)
    if args.format == "csv":
        _write(model._sequence_csv_pieces(out.b), args.output)
    else:
        _write(_dump(out.to_json_dict()), args.output)
    return 0


def _cmd_construct_threshold_gap(args) -> int:
    anchors = [model.parse_ascii_int(x, "anchor") for x in args.anchors.split(",")]
    _check_horizon("horizon", anchors[-1] - 1 if args.H is None else args.H)
    _emit_sequence(constructions.threshold_gap_example(args.N, anchors, args.H), args)
    return 0


def _cmd_construct_linear_error(args) -> int:
    _check_horizon("--H", args.H)
    f = _error_term_for(args.f, args.H)
    if f is None:
        f = model.zero_error_term(args.H)
    prefix = constructions.linear_error_example(f, model.parse_rational(args.L), args.H)
    _emit_sequence(prefix, args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fekete",
        description="Exact analysis of nearly-subadditive sequence prefixes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="scan a prefix for subadditivity violations")
    check.add_argument("--seq", required=True, help="sequence file (JSON or CSV)")
    check.add_argument("--f", default="zero", help="zero | FILE | family:name,params")
    check.add_argument("--domain", default="full",
                       help="full | threshold:N | muband:P/Q,N | oneplus:N | explicit:FILE")
    check.add_argument("-o", "--output", default=None)
    check.set_defaults(func=_cmd_check)

    limit = sub.add_parser("limit", help="certified slope bracket for a prefix")
    limit.add_argument("--seq", required=True)
    limit.add_argument("--N", type=_int_option, required=True)
    limit.add_argument("-o", "--output", default=None)
    limit.set_defaults(func=_cmd_limit)

    certify = sub.add_parser("certify-mu", help="doubling-chain certificate")
    certify.add_argument("--mu", required=True, help="growth factor P/Q, > 1")
    certify.add_argument("--N", type=_int_option, required=True)
    certify.add_argument("--n", type=_int_option, required=True, help="chain base")
    certify.add_argument("-o", "--output", default=None)
    certify.set_defaults(func=_cmd_certify_mu)

    decompose = sub.add_parser("decompose", help="2-good merge chain for (n, k)")
    decompose.add_argument("--n", type=_int_option, required=True)
    decompose.add_argument("--k", type=_int_option, required=True)
    decompose.add_argument("-o", "--output", default=None)
    decompose.set_defaults(func=_cmd_decompose)

    gdef = sub.add_parser("gdeficit", help="exact smoothing-transform deficit")
    gdef.add_argument("--seq", required=True)
    gdef.add_argument("--f", default="zero")
    gdef.add_argument("--n", type=_int_option, required=True)
    gdef.add_argument("--m", type=_int_option, required=True)
    gdef.set_defaults(func=_cmd_gdeficit)

    construct = sub.add_parser("construct", help="generate a named sequence")
    csub = construct.add_subparsers(dest="what", required=True)

    convex = csub.add_parser("convex", help="convex sequence from an error term")
    convex.add_argument("--f", required=True)
    convex.add_argument("--H", type=_int_option, required=True)
    convex.add_argument("-o", "--output", required=True)
    convex.add_argument("--format", choices=("json", "csv"), default="json")
    convex.set_defaults(func=_cmd_construct_convex)

    slopes = csub.add_parser("rational-slopes",
                             help="shifted convex sequence covering enumerated rationals")
    slopes.add_argument("--f", required=True)
    slopes.add_argument("--K", type=_int_option, required=True)
    slopes.add_argument("--Hmax", type=_int_option, required=True)
    slopes.add_argument("-o", "--output", required=True)
    slopes.add_argument("--format", choices=("json", "csv"), default="json")
    slopes.set_defaults(func=_cmd_construct_rational_slopes)

    gap = csub.add_parser("threshold-gap", help="ramp sequence with pinned bands")
    gap.add_argument("--N", type=_int_option, required=True)
    gap.add_argument("--anchors", required=True, help="comma-separated increasing list")
    gap.add_argument("--H", type=_int_option, default=None)
    gap.add_argument("-o", "--output", required=True)
    gap.add_argument("--format", choices=("json", "csv"), default="json")
    gap.set_defaults(func=_cmd_construct_threshold_gap)

    linerr = csub.add_parser("linear-error", help="spike sequence with oscillating slopes")
    linerr.add_argument("--f", required=True)
    linerr.add_argument("--L", required=True, help="oscillation bound P/Q, > 0")
    linerr.add_argument("--H", type=_int_option, required=True)
    linerr.add_argument("-o", "--output", required=True)
    linerr.add_argument("--format", choices=("json", "csv"), default="json")
    linerr.set_defaults(func=_cmd_construct_linear_error)

    return parser


def main(argv=None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7: no limit
        return _main(argv)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_INT_DIGITS)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(previous)


def _main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except constructions.HorizonExhausted as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
