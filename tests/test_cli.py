"""Command-line front end: exit codes, pipelines, determinism."""

from __future__ import annotations

import json
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest

from fekete import format_rational, sequence_to_json, SequencePrefix
from fekete import cli, model
from fekete.cli import MAX_CHAIN_PARTS, MAX_HORIZON, MAX_INT_DIGITS, main

from conftest import tabulate


def _write_seq(tmp_path, name, prefix):
    path = tmp_path / name
    path.write_text(sequence_to_json(prefix))
    return str(path)


def test_check_clean_exit_zero(tmp_path, capsys):
    seq = _write_seq(tmp_path, "a.json", tabulate(lambda n: n, 30))
    assert main(["check", "--seq", seq, "--f", "zero", "--domain", "full"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == []


def test_check_violations_exit_one(tmp_path, capsys):
    seq = _write_seq(tmp_path, "bad.json", SequencePrefix([1, 1, 3]))
    assert main(["check", "--seq", seq, "--f", "zero", "--domain", "full"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == [{"n": 1, "m": 2, "deficit": "1"}]


def test_check_domain_specs(tmp_path):
    seq = _write_seq(tmp_path, "b.json", SequencePrefix([0, 0, 10, 0, 0, 0, 0, 0]))
    assert main(["check", "--seq", seq, "--domain", "threshold:3"]) == 0
    assert main(["check", "--seq", seq, "--domain", "oneplus:1"]) == 1
    assert main(["check", "--seq", seq, "--domain", "muband:3/2,2"]) == 0
    explicit = tmp_path / "pairs.json"
    explicit.write_text('{"pairs": [[1, 2]]}')
    assert main(["check", "--seq", seq, "--domain", f"explicit:{explicit}"]) == 1


@pytest.mark.parametrize("pairs", ["[1, 2]", "[[true, 2]]"])
def test_check_malformed_explicit_pairs_exit_two(tmp_path, capsys, pairs):
    seq = _write_seq(tmp_path, "b.json", SequencePrefix([0, 0, 10, 0]))
    explicit = tmp_path / "pairs.json"
    explicit.write_text(f'{{"pairs": {pairs}}}')
    assert main(["check", "--seq", seq, "--domain", f"explicit:{explicit}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid pair" in captured.err


@pytest.mark.parametrize(
    "descriptor",
    ['{"family": ["x"], "H": 5}', '{"family": {"name": "zero"}, "H": 5}',
     '{"family": "floor_sqrt", "H": true}'],
)
def test_check_malformed_family_descriptor_exit_two(tmp_path, capsys, descriptor):
    seq = _write_seq(tmp_path, "b.json", SequencePrefix([0, 0, 10, 0]))
    f = tmp_path / "f.json"
    f.write_text(descriptor)
    assert main(["check", "--seq", seq, "--f", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "family descriptor" in captured.err


@pytest.mark.parametrize("flag", ["--seq", "--f"])
@pytest.mark.parametrize("offset", ["true", "1.0", "0", '"1"'])
def test_check_bad_offset_exit_two(tmp_path, capsys, flag, offset):
    seq = _write_seq(tmp_path, "b.json", SequencePrefix([0, 0, 1, 1]))
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"values": ["0", "0", "1", "1"], "offset": {offset}}}')
    argv = ["check", "--seq", seq, "--f", "zero"]
    argv[argv.index(flag) + 1] = str(bad)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "offset" in captured.err


@pytest.mark.parametrize("offset", ["0", "true"])
def test_check_family_descriptor_bad_offset_exit_two(tmp_path, capsys, offset):
    seq = _write_seq(tmp_path, "b.json", SequencePrefix([0, 0, 1, 1]))
    f = tmp_path / "f.json"
    f.write_text(f'{{"family": "zero", "H": 4, "offset": {offset}}}')
    assert main(["check", "--seq", seq, "--f", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "offset" in captured.err


@pytest.mark.parametrize("index", ["0_1", "+1", "\u0661"])
def test_check_malformed_csv_index_exit_two(tmp_path, capsys, index):
    seq = tmp_path / "a.csv"
    seq.write_text(f"{index},5\n2,7\n", encoding="utf-8")
    assert main(["check", "--seq", str(seq)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed index" in captured.err


@pytest.mark.parametrize(
    "domain",
    ["threshold:1_0", "threshold:+2", "threshold:\u0663", "threshold:-2", "threshold:",
     "oneplus:+2", "oneplus:1_0", "muband:3/2,1_0", "muband:3/2,+2", "muband:3/2,\u0661"],
)
def test_check_malformed_domain_threshold_exit_two(tmp_path, capsys, domain):
    seq = _write_seq(tmp_path, "b.json", SequencePrefix([0, 0, 10, 0, 0, 0, 0, 0]))
    assert main(["check", "--seq", seq, "--domain", domain]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed threshold" in captured.err


# A valid run of every command with an integer option, and the option to
# replace; SEQ stands for a sequence file and OUT for the -o file.
_INT_OPTION_RUNS = [
    (["limit", "--seq", "SEQ", "--N", "1", "-o", "OUT"], "--N"),
    (["certify-mu", "--mu", "3/2", "--N", "1", "--n", "10", "-o", "OUT"], "--N"),
    (["certify-mu", "--mu", "3/2", "--N", "1", "--n", "10", "-o", "OUT"], "--n"),
    (["decompose", "--n", "10", "--k", "3", "-o", "OUT"], "--n"),
    (["decompose", "--n", "10", "--k", "3", "-o", "OUT"], "--k"),
    (["gdeficit", "--seq", "SEQ", "--n", "2", "--m", "3"], "--n"),
    (["gdeficit", "--seq", "SEQ", "--n", "2", "--m", "3"], "--m"),
    (["construct", "convex", "--f", "family:floor_sqrt", "--H", "20", "-o", "OUT"], "--H"),
    (["construct", "rational-slopes", "--f", "family:linear,1", "--K", "2",
      "--Hmax", "60", "-o", "OUT"], "--K"),
    (["construct", "rational-slopes", "--f", "family:linear,1", "--K", "2",
      "--Hmax", "60", "-o", "OUT"], "--Hmax"),
    (["construct", "threshold-gap", "--N", "3", "--anchors", "5,10,20", "--H", "12",
      "-o", "OUT"], "--N"),
    (["construct", "threshold-gap", "--N", "3", "--anchors", "5,10,20", "--H", "12",
      "-o", "OUT"], "--H"),
    (["construct", "linear-error", "--f", "family:linear,1", "--L", "1", "--H", "20",
      "-o", "OUT"], "--H"),
]


@pytest.mark.parametrize("bad", ["1_0", "+2", "\u0663"])
@pytest.mark.parametrize("argv, option", _INT_OPTION_RUNS)
def test_int_option_is_ascii_digits(tmp_path, capsys, argv, option, bad):
    seq = _write_seq(tmp_path, "lin.json", tabulate(lambda n: n, 40))
    out = tmp_path / "out"
    argv = [{"SEQ": seq, "OUT": str(out)}.get(arg, arg) for arg in argv]
    argv[argv.index(option) + 1] = bad
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need ASCII digits" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("anchors", ["5,1_0,20", "5,+10,20", "5,\u0661\u0660,20", "5,+20"])
def test_threshold_gap_anchors_are_ascii_digits(tmp_path, capsys, anchors):
    out = tmp_path / "gap.json"
    argv = ["construct", "threshold-gap", "--N", "3", "--anchors", anchors, "-o", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed anchor" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("domain", ["threshold:0", "oneplus:-2", "muband:1,1", "oneplus:0"])
def test_check_out_of_range_domain_exit_two(tmp_path, capsys, domain):
    seq = _write_seq(tmp_path, "b.json", SequencePrefix([0, 0, 10, 0, 0, 0, 0, 0]))
    assert main(["check", "--seq", seq, "--domain", domain]) == 2
    assert capsys.readouterr().out == ""


def test_check_family_error_term(tmp_path):
    from fekete import builtin_error_term, convex_from_error

    f = builtin_error_term("floor_sqrt", 60)
    seq = _write_seq(tmp_path, "conv.json", convex_from_error(f, 60))
    assert main(["check", "--seq", seq, "--f", "family:floor_sqrt"]) == 0
    assert main(["check", "--seq", seq, "--f", "family:linear,1"]) == 0


def test_usage_and_format_errors(tmp_path, capsys):
    assert main(["nope"]) == 2
    assert main(["check"]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["check", "--seq", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"values": ["1.5"]}')
    assert main(["check", "--seq", str(bad)]) == 2
    capsys.readouterr()


def test_construct_convex_pipeline(tmp_path):
    out = str(tmp_path / "conv.json")
    assert main(["construct", "convex", "--f", "family:floor_sqrt",
                 "--H", "80", "-o", out]) == 0
    assert main(["check", "--seq", out, "--f", "family:floor_sqrt",
                 "--domain", "full"]) == 0


def test_muband_check_of_a_clean_file_builds_no_grid(tmp_path, monkeypatch):
    # a clean file is decided on the image its text gives: the checks and
    # the bracket build no grid; gdeficit reads its three literals alone.
    # A rational-slopes file is not convex, so its minorant leaves sums,
    # but each of their pairs clears on the image
    conv = str(tmp_path / "convex.json")
    assert main(["construct", "convex", "--f", "family:floor_sqrt", "--H", "300", "-o", conv]) == 0
    slopes = str(tmp_path / "slopes.json")
    assert main(["construct", "rational-slopes", "--f", "family:linear,17/16", "--K", "7",
                 "--Hmax", "500", "-o", slopes]) == 0
    built = []
    real = model._integer_grid

    def counting(pairs):
        built.append(len(pairs))
        return real(pairs)

    monkeypatch.setattr(model, "_integer_grid", counting)
    for seq, f, domains in (
        (conv, "family:floor_sqrt", ("muband:3/2,1", "oneplus:1")),
        (slopes, "family:linear,17/16", ("full", "muband:2,1", "threshold:4")),
    ):
        for domain in domains:
            report = tmp_path / "report.json"
            argv = ["check", "--seq", seq, "--f", f, "--domain", domain]
            assert main([*argv, "-o", str(report)]) == 0
            assert json.loads(report.read_text())["violations"] == [] and built == []
    assert main(["limit", "--seq", conv, "--N", "5", "-o", str(tmp_path / "limit.json")]) == 0
    assert built == []
    assert main(["gdeficit", "--seq", conv, "--f", "family:floor_sqrt",
                 "--n", "40", "--m", "60"]) == 0
    assert built == []


_CLEAN_FILE_COMMANDS = [
    ["check", "--f", "family:floor_sqrt", "--domain", "muband:3/2,1"],
    ["check", "--f", "family:floor_sqrt", "--domain", "oneplus:1"],
    ["limit", "--N", "1"],
]


@pytest.mark.parametrize("last", ["9" * (MAX_INT_DIGITS + 1), "1/" + "7" * (MAX_INT_DIGITS + 1),
                                  "1.5", "2/0", "0x11"])
@pytest.mark.parametrize("command", _CLEAN_FILE_COMMANDS, ids=lambda c: c[0] + c[-1][:6])
def test_bad_last_value_of_a_clean_file_exits_two(tmp_path, capsys, command, last):
    # every value is validated while the file is read, although the image
    # of the others would decide the command without the last one
    conv = tmp_path / "convex.json"
    assert main(["construct", "convex", "--f", "family:floor_sqrt", "--H", "60",
                 "-o", str(conv)]) == 0
    payload = json.loads(conv.read_text())
    payload["values"][-1] = last
    conv.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command[0], "--seq", str(conv), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_construct_rational_slopes_pipeline(tmp_path):
    out = str(tmp_path / "slopes.json")
    assert main(["construct", "rational-slopes", "--f", "family:linear,1",
                 "--K", "5", "--Hmax", "500", "-o", out]) == 0
    payload = json.loads((tmp_path / "slopes.json").read_text())
    assert set(payload) == {"b", "c", "coverage", "enumeration"}
    assert main(["check", "--seq", out, "--f", "family:linear,1",
                 "--domain", "full"]) == 0


def test_construct_rational_slopes_exhaustion_exit_one(tmp_path, capsys):
    out = str(tmp_path / "never.json")
    code = main(["construct", "rational-slopes", "--f", "family:linear_over_log",
                 "--K", "10", "--Hmax", "3000", "-o", out])
    assert code == 1
    assert "construction failed" in capsys.readouterr().err
    assert not (tmp_path / "never.json").exists()


def test_construct_threshold_gap_and_linear_error(tmp_path):
    gap = str(tmp_path / "gap.json")
    assert main(["construct", "threshold-gap", "--N", "3",
                 "--anchors", "5,20,100", "--H", "99", "-o", gap]) == 0
    assert main(["check", "--seq", gap, "--domain", "threshold:3"]) == 0
    assert main(["check", "--seq", gap, "--domain", "full"]) == 1

    spikes = str(tmp_path / "spikes.json")
    assert main(["construct", "linear-error", "--f", "family:linear,1",
                 "--L", "1", "--H", "60", "-o", spikes]) == 0
    assert main(["check", "--seq", spikes, "--f", "family:linear,1"]) == 0


def test_construct_csv_format(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["construct", "convex", "--f", "family:linear,1",
                 "--H", "4", "-o", str(out), "--format", "csv"]) == 0
    assert out.read_text() == "1,0\n2,1\n3,5/2\n4,13/3\n"


def test_limit_certify_decompose_gdeficit(tmp_path, capsys):
    seq = _write_seq(tmp_path, "lin.json", tabulate(lambda n: n, 40))
    assert main(["limit", "--seq", seq, "--N", "1"]) == 0
    bracket = json.loads(capsys.readouterr().out)
    assert bracket["min_slope"] == "1" and bracket["argmin_k"] == 1

    assert main(["certify-mu", "--mu", "3/2", "--N", "1", "--n", "10"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["k"] == 4 and cert["N2"] == 2 and cert["doubling_covered"]

    assert main(["decompose", "--n", "10", "--k", "3"]) == 0
    chain = json.loads(capsys.readouterr().out)
    assert chain["chain"] == [[3, 3, 4], [4, 6], [10]]

    assert main(["gdeficit", "--seq", seq, "--f", "zero", "--n", "2", "--m", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0"


@pytest.mark.parametrize(
    "n, k",
    [
        ("99999999999999999999", "3"),  # once an OverflowError traceback, exit 1
        (str(MAX_CHAIN_PARTS + 1), "1"),  # the first chain too long
        (str(3 * MAX_CHAIN_PARTS + 3), "3"),
    ],
)
def test_decompose_rejects_chains_past_the_bound(tmp_path, capsys, n, k):
    out = tmp_path / "chain.json"
    assert main(["decompose", "--n", n, "--k", k, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(MAX_CHAIN_PARTS) in captured.err
    assert not out.exists()


def test_decompose_bound_admits_exactly_max_parts(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_CHAIN_PARTS", 10)
    assert main(["decompose", "--n", "32", "--k", "3"]) == 0  # 10 parts
    assert json.loads(capsys.readouterr().out)["chain"][0] == [3] * 9 + [5]
    assert main(["decompose", "--n", "33", "--k", "3"]) == 2  # 11 parts
    assert capsys.readouterr().out == ""


def _construct_argv(what: str, horizon: int) -> list[str]:
    h = str(horizon)
    return {
        "convex": ["convex", "--f", "family:floor_sqrt", "--H", h],
        "rational-slopes": ["rational-slopes", "--f", "family:linear,1", "--K", "3", "--Hmax", h],
        "linear-error": ["linear-error", "--f", "family:linear,1", "--L", "1", "--H", h],
        "threshold-gap": ["threshold-gap", "--N", "3", "--anchors", f"5,{horizon + 1}", "--H", h],
        "threshold-gap-anchors": ["threshold-gap", "--N", "3", "--anchors", f"5,{horizon + 1}"],
    }[what]


_CONSTRUCTIONS = ("convex", "rational-slopes", "linear-error", "threshold-gap",
                  "threshold-gap-anchors")


@pytest.mark.parametrize("what", _CONSTRUCTIONS)
def test_construct_rejects_horizons_past_the_bound(tmp_path, monkeypatch, capsys, what):
    def tabulated(*args, **kwargs):
        raise AssertionError("an error term was tabulated")

    monkeypatch.setattr(model, "builtin_error_term", tabulated)
    out = tmp_path / "out.json"
    argv = ["construct", *_construct_argv(what, MAX_HORIZON + 1), "-o", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(MAX_HORIZON) in captured.err
    assert not out.exists()


@pytest.mark.parametrize("what", _CONSTRUCTIONS)
def test_construct_bound_admits_exactly_max_horizon(tmp_path, monkeypatch, what):
    monkeypatch.setattr(cli, "MAX_HORIZON", 20)
    out = str(tmp_path / "out.json")
    assert main(["construct", *_construct_argv(what, 20), "-o", out]) == 0
    assert main(["construct", *_construct_argv(what, 21), "-o", out + "2"]) == 2
    assert not (tmp_path / "out.json2").exists()


def test_repeated_runs_byte_identical(tmp_path):
    seq = _write_seq(tmp_path, "a.json", tabulate(lambda n: n * n, 25))
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    main(["check", "--seq", seq, "-o", out1])
    main(["check", "--seq", seq, "-o", out2])
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_construct_convex_round_trip_past_default_digit_limit(tmp_path):
    # at H = 5100 the values have more than Python's default 4300 digits
    out = tmp_path / "conv.json"
    limit = sys.get_int_max_str_digits()
    assert main(["construct", "convex", "--f", "family:floor_sqrt",
                 "--H", "5100", "-o", str(out)]) == 0
    assert max(len(v) for v in json.loads(out.read_text())["values"]) > 4300
    assert main(["check", "--seq", str(out), "--f", "family:floor_sqrt",
                 "--domain", "oneplus:1"]) == 0
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("digits, code", [(MAX_INT_DIGITS, 0), (MAX_INT_DIGITS + 1, 2)])
def test_integer_literal_digit_bound(tmp_path, capsys, digits, code):
    seq = tmp_path / "big.json"
    seq.write_text(json.dumps({"values": ["9" * digits, "0"]}))
    assert main(["check", "--seq", str(seq)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "limit" in captured.err


def test_failed_check_writes_nothing(tmp_path, capsys):
    # the (1, 1) deficit of this prefix has a denominator of about 12,000
    # digits, past MAX_INT_DIGITS: the report cannot be printed, and the
    # command fails before it opens its output
    seq = tmp_path / "long.json"
    seq.write_text(json.dumps({"values": [
        "1/3" + "0" * 5998 + "1",  # 1/(3*10**5999 + 1)
        "1/1" + "0" * 5998 + "7",  # 1/(10**5999 + 7)
    ]}))
    out = tmp_path / "report.json"
    out.write_bytes(b"an earlier report\n")
    for target in ([], ["-o", "-"], ["-o", str(out)]):
        assert main(["check", "--seq", str(seq), *target]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "limit" in captured.err
    assert out.read_bytes() == b"an earlier report\n"


def _traced_peak(argv):
    """The exit code of ``main(argv)`` and the peak of the memory it
    allocated, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


def test_check_writes_its_report_in_less_memory_than_the_report(tmp_path):
    # 40,000 violations: the report is streamed, not held as one text, and
    # only the violating pairs are kept, each deficit reduced as it is
    # written (held as Violations they took about 1.1 times the report)
    conv, out = tmp_path / "sqrt.json", tmp_path / "report.json"
    assert main(["construct", "convex", "--f", "family:floor_sqrt", "--H", "400",
                 "-o", str(conv)]) == 0
    code, peak = _traced_peak(["check", "--seq", str(conv), "--f", "zero",
                               "--domain", "full", "-o", str(out)])
    assert code == 1
    assert peak < 0.5 * out.stat().st_size


def test_check_reads_its_file_in_less_memory_than_two_copies(tmp_path):
    # the file is read a window at a time, so the strings parsed from it
    # are its one copy held (read whole, its text was a second)
    conv, out = tmp_path / "sqrt.json", tmp_path / "report.json"
    assert main(["construct", "convex", "--f", "family:floor_sqrt", "--H", "2000",
                 "-o", str(conv)]) == 0
    code, peak = _traced_peak(["check", "--seq", str(conv), "--f", "family:floor_sqrt",
                               "--domain", "muband:21/20,1", "-o", str(out)])
    assert code == 0
    assert peak < 1.4 * conv.stat().st_size


def _raise(*args, **kwargs):
    raise AssertionError("built although unused")


def test_gdeficit_of_a_parsed_file_builds_no_weight_table(tmp_path, capsys, monkeypatch):
    # three literals and three weight sums from one pass up to n + m,
    # against G(n+m) - G(n) - G(m) summed term by term
    conv = tmp_path / "sqrt.json"
    assert main(["construct", "convex", "--f", "family:floor_sqrt", "--H", "120",
                 "-o", str(conv)]) == 0
    # the same values unreduced, and a rational error term
    a = [Fraction(v) for v in json.loads(conv.read_text())["values"]]
    seq = tmp_path / "unreduced.json"
    seq.write_text(json.dumps({"values": [f"{3 * v.numerator}/{3 * v.denominator}" for v in a]}))
    rational = [Fraction(math.isqrt(x), 1 + x % 3) for x in range(1, 121)]
    rational = [max(rational[: x + 1]) for x in range(120)]  # non-decreasing
    f_file = tmp_path / "f.json"
    f_file.write_text(json.dumps({"values": [format_rational(v) for v in rational]}))
    terms = {"family:floor_sqrt": [Fraction(math.isqrt(x)) for x in range(1, 121)],
             str(f_file): rational}
    monkeypatch.setattr(model.ErrorTerm, "weight_grid", property(_raise))
    for path in (conv, seq):
        for spec, f in terms.items():
            for n, m in ((1, 1), (2, 3), (17, 30), (40, 80)):
                s = n + m

                def tail(lo):  # sum(f(x)/x^2 for lo <= x < n + m)
                    return sum((f[x - 1] / (x * x) for x in range(lo, s)), Fraction(0))

                want = a[s - 1] - a[n - 1] - a[m - 1] - 3 * n * tail(n) - 3 * m * tail(m)
                assert main(["gdeficit", "--seq", str(path), "--f", spec,
                             "--n", str(n), "--m", str(m)]) == 0
                assert Fraction(capsys.readouterr().out.strip()) == want, (path, spec, n, m)


def test_construct_writes_its_file_in_less_memory_than_the_file(tmp_path):
    out = tmp_path / "conv.json"
    code, peak = _traced_peak(["construct", "convex", "--f", "family:floor_sqrt",
                               "--H", "2000", "-o", str(out)])
    assert code == 0
    assert peak < out.stat().st_size


@pytest.mark.parametrize("argv", [
    ["construct", "convex", "--f", "family:floor_sqrt", "--H", "60"],
    ["construct", "convex", "--f", "family:floor_sqrt", "--H", "60", "--format", "csv"],
    ["construct", "rational-slopes", "--f", "family:linear,1", "--K", "5", "--Hmax", "200",
     "--format", "csv"],
    ["check", "--f", "zero", "--domain", "full"],
], ids=["convex-json", "convex-csv", "slopes-csv", "dirty-check"])
def test_stdout_output_matches_the_file(tmp_path, capsys, argv):
    if argv[0] == "check":
        seq = tmp_path / "sqrt.json"
        assert main(["construct", "convex", "--f", "family:floor_sqrt", "--H", "40",
                     "-o", str(seq)]) == 0
        argv = [*argv, "--seq", str(seq)]
    out = tmp_path / "out"
    code = main([*argv, "-o", str(out)])
    capsys.readouterr()
    assert main([*argv, "-o", "-"]) == code
    assert capsys.readouterr().out.encode() == out.read_bytes()
