"""Command-line front end: exit codes, pipelines, determinism."""

from __future__ import annotations

import json

import pytest

from fekete import sequence_to_json, SequencePrefix
from fekete.cli import main

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


def test_repeated_runs_byte_identical(tmp_path):
    seq = _write_seq(tmp_path, "a.json", tabulate(lambda n: n * n, 25))
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    main(["check", "--seq", seq, "-o", out1])
    main(["check", "--seq", seq, "-o", out2])
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
