"""Reading input files a window at a time: the JSON loader against
``json.loads``, the CSV line reader against ``str.splitlines``, and the
CLI's one reader of sequence, error-term and explicit-domain files."""

from __future__ import annotations

import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fekete import cli, model
from fekete.cli import main

# The loader words its errors as json.loads does up to Python 3.12;
# 3.13 words some (trailing commas) differently.
_SAME_WORDING = sys.version_info < (3, 13)

_SPACE = st.text(alphabet=" \t\n\r", max_size=3)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**30, 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.sampled_from(["1/2", "-3/4", "0", " 7 ", "\xe9\n\"\\/"]),
)


def _render(value, draw) -> str:
    """``value`` as JSON text with drawn whitespace between tokens and, in
    objects, drawn key order and duplicate keys."""
    space = draw(_SPACE)
    if isinstance(value, list):
        items = [_render(v, draw) for v in value]
        return "[" + space + ",".join(f"{draw(_SPACE)}{x}{draw(_SPACE)}" for x in items) + "]"
    if isinstance(value, dict):
        members = list(value.items())
        members = draw(st.permutations(members)) if members else members
        if members and draw(st.booleans()):  # an earlier duplicate, which the last one overrides
            key, other = draw(st.sampled_from(members))[0], draw(_scalars)
            members.insert(0, (key, other))
        parts = [
            f"{draw(_SPACE)}{json.dumps(k, ensure_ascii=draw(st.booleans()))}"
            f"{draw(_SPACE)}:{draw(_SPACE)}{_render(v, draw)}{draw(_SPACE)}"
            for k, v in members
        ]
        return "{" + space + ",".join(parts) + "}"
    return json.dumps(value, ensure_ascii=draw(st.booleans()))


_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["a", "b", "values", "offset", "\xe9"]), inner, max_size=4),
    ),
    max_leaves=12,
)


@st.composite
def json_texts(draw):
    """JSON texts, well-formed or not: sequence files (with the "b"
    wrapper and an offset) and other documents, with drawn whitespace, a
    UTF-8 BOM or Unicode whitespace before them, and cut, extended or
    salted with NaN."""
    if draw(st.booleans()):
        values = draw(st.lists(st.one_of(
            st.integers(-10**6, 10**6),
            st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(1, 99)),
        ), max_size=6))
        document = {"values": values}
        if draw(st.booleans()):
            document["offset"] = draw(st.sampled_from([1, 0, 1.0, True]))
        if draw(st.booleans()):
            document = {"b": document, "c": draw(_values)}
    else:
        document = draw(_values)
    text = draw(_SPACE) + _render(document, draw) + draw(_SPACE)
    fault = draw(st.sampled_from(
        ["none"] * 4 + ["bom", "unicode space", "cut", "trailing", "nan", "array"]
    ))
    if fault == "bom":
        text = "\ufeff" + text
    elif fault == "unicode space":
        text = draw(st.sampled_from(["\xa0", "\u2003", "\x1c", "\u2028"])) + text
    elif fault == "cut":
        text = text[: draw(st.integers(0, max(0, len(text) - 1)))]
    elif fault == "trailing":
        text += draw(st.sampled_from(["x", "1", "{}", ",", " ]"]))
    elif fault == "nan":
        where = draw(st.integers(0, len(text)))
        text = text[:where] + draw(st.sampled_from(["NaN", "-Infinity", "nan"])) + text[where:]
    elif fault == "array":
        text = f"[{text}]"
    return text


def _loaded(text: str, chunk: int):
    """``json.loads(text)`` or its error, and the loader's value or error
    from the pieces the CLI reads of a file holding ``text``."""
    try:
        want = ("value", repr(json.loads(text)))
    except ValueError as exc:
        want = ("error", exc)
    with mock.patch.object(cli, "_READ_CHARS", chunk):
        try:
            got = ("value", repr(model._TextReader(cli._pieces(io.StringIO(text))).json()))
        except ValueError as exc:
            got = ("error", exc)
    return want, got


@given(json_texts(), st.integers(1, 64))
@example('{"values": ["1", "2"], "values": ["3"], "offset": 1}', 1)
@example('{"b": {"values": [1, "1/2"], "offset": 1}}', 3)
@example('\ufeff{"values": ["1"]}', 2)
@example('\xa0{"values": ["1"]}', 1)
@example('{"values": [NaN]}', 4)
@example('{"values": ["1", "2"', 5)
@example('{"values": ["1"]} x', 7)
@example('[{"values": ["1"]}]', 2)
@example('{"values": [12345678901234567890e-3, -0.0]}', 1)
@settings(max_examples=400, deadline=None)
def test_loader_reads_as_json_loads(text, chunk):
    want, got = _loaded(text, chunk)
    if want[0] == "value":  # repr compares key order, int/float and NaN too
        assert got == want
        return
    assert got[0] == "error", got
    message, exc = str(got[1]), want[1]
    assert message.startswith("invalid JSON: ")
    if _SAME_WORDING and isinstance(exc, json.JSONDecodeError):
        assert message == f"invalid JSON: {exc}"


def test_loader_holds_a_long_element_in_linear_time():
    # one element of 2**14 characters read one character at a time: each
    # refill at least doubles the window, so it is decoded about 14 times,
    # in time linear in its length (one refill a piece would take 2**14)
    text = json.dumps({"values": ["7" * (1 << 14)]})
    calls = []
    real = model._DECODER.raw_decode

    def counting(s, idx=0):
        calls.append(len(s) - idx)
        return real(s, idx)

    with mock.patch.object(model._DECODER, "raw_decode", counting), \
            mock.patch.object(cli, "_READ_CHARS", 1):
        payload = model._TextReader(cli._pieces(io.StringIO(text))).json()
    assert payload == json.loads(text)
    assert sum(calls) < 5 * len(text)


_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def csv_texts(draw):
    """CSV sequence texts whose rows end in any break ``str.splitlines``
    knows, with blank and malformed rows among them."""
    rows = draw(st.lists(st.sampled_from(
        ["1,1", " 2 , 3/2 ", "3,-4", "", "  ", "4,x", "2,5", "5"]
    ), min_size=1, max_size=6))
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(rows), max_size=len(rows)))
    return "".join(r + b for r, b in zip(rows, breaks))[: draw(st.integers(0, 60))]


def _outcome(parse, source):
    try:
        return "value", parse(source)
    except ValueError as exc:
        return "error", str(exc)


@given(csv_texts(), st.integers(1, 16))
@example("1,1\r\n2,2\v3,3\x1c4,4\u20285,5\n", 1)
@example("1,1\r", 1)
@settings(max_examples=300, deadline=None)
def test_csv_lines_split_as_splitlines(text, chunk):
    with mock.patch.object(cli, "_READ_CHARS", chunk):
        lines = list(model._TextReader(cli._pieces(io.StringIO(text))).lines())
        assert lines == text.splitlines()
        got = _outcome(model._parse_sequence, cli._pieces(io.StringIO(text)))
    # the parser of the whole text, as it read CSV before
    want = _outcome(lambda t: model.SequencePrefix._from_texts(
        model._table_from_csv(t.splitlines())), text)
    if want[0] == "value":
        assert got[0] == "value" and got[1]._texts == want[1]._texts
    else:
        assert got == want


@pytest.mark.parametrize("newline", ["\r\n", "\v", "\x1c", "\u2028"])
def test_cli_reads_csv_lines_as_splitlines(tmp_path, capsys, newline):
    # the CLI opens input files with universal newlines, as it did when it
    # read them whole: "\r\n" becomes "\n" before any line is split
    reports = []
    for name, end in (("a.csv", newline), ("b.csv", "\n")):
        seq = tmp_path / name
        seq.write_bytes(end.join(["1,0", "", "2,1", "3,3", ""]).encode())
        assert main(["check", "--seq", str(seq)]) == 1
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert len(json.loads(reports[0])["violations"]) == 2


@pytest.mark.parametrize("spec", ["seq", "f", "explicit"])
def test_invalid_json_is_placed_in_the_file(tmp_path, capsys, monkeypatch, spec):
    # the error lies three windows into the file: its offset, line and
    # column are those of the whole file
    monkeypatch.setattr(cli, "_READ_CHARS", 1000)
    good = tmp_path / "good.json"
    good.write_text('{"values": ["0", "1", "2", "3"]}')
    bad = tmp_path / "bad.json"
    head = '{"values": [\n' + "".join(f'"{n}",\n' for n in range(1000))
    bad.write_text(head + '"1" "2"]}')
    argv = {
        "seq": ["check", "--seq", str(bad)],
        "f": ["check", "--seq", str(good), "--f", str(bad)],
        "explicit": ["check", "--seq", str(good), "--domain", f"explicit:{bad}"],
    }[spec]
    out = tmp_path / "report.json"
    assert main([*argv, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"error: invalid JSON: Expecting ',' delimiter: line 1002 column 5 (char {len(head) + 4})\n"
    )
