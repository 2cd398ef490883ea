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


def _literal_or_same(text: str):
    """``model._literal(text)``, or ``text`` itself when that raises."""
    try:
        return model._literal(text)
    except ValueError:
        return text


def _packed(value):
    """``value`` with each string element of an array packed when it is a
    literal: what ``_TextReader.json(literals=True)`` does to the strings
    it reads on their own (those of a whole element it decodes at once
    stay strings)."""
    if isinstance(value, list):
        return [_literal_or_same(v) if type(v) is str else _packed(v) for v in value]
    if isinstance(value, dict):
        return {key: _packed(v) for key, v in value.items()}
    return value


def _loaded(text: str, chunk: int, literals: bool):
    """``json.loads(text)`` or its error, and the loader's value or error
    from the pieces the CLI reads of a file holding ``text``, each as its
    repr; with ``literals``, the literals of arrays packed in both."""
    shown = (lambda value: repr(_packed(value))) if literals else repr
    try:
        want = ("value", shown(json.loads(text)))
    except ValueError as exc:
        want = ("error", exc)
    with mock.patch.object(cli, "_READ_CHARS", chunk):
        try:
            reader = model._TextReader(cli._pieces(io.StringIO(text)))
            got = ("value", shown(reader.json(literals=literals)))
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
@example('{"values": [x, ' + '"1", ' * 40 + '"1"]}', 16)  # no value, a long tail
@example('{"values": [-Infinity, true]}', 13)  # cut after "-"
@example('{"values": [-Infinity, true]}', 20)  # cut after "-Infinit"
@example('{"values": [true, -Infinity]}', 14)  # cut after "tr"
@settings(max_examples=400, deadline=None)
def test_loader_reads_as_json_loads(text, chunk):
    _assert_reads_as_json_loads(text, chunk)


def _assert_reads_as_json_loads(text: str, chunk: int) -> None:
    """The loader gives ``json.loads``'s value of ``text``, or its error,
    read ``chunk`` characters at a time, with literals packed or not."""
    for literals in (False, True):
        want, got = _loaded(text, chunk, literals)
        if want[0] == "value":  # repr compares key order, int/float and NaN too
            assert got == want
            continue
        assert got[0] == "error", got
        message, exc = str(got[1]), want[1]
        assert message.startswith("invalid JSON: ")
        if _SAME_WORDING and isinstance(exc, json.JSONDecodeError):
            assert message == f"invalid JSON: {exc}"


# Texts whose window edges, at chunk sizes from 2 to 64, cut strings in
# each way ``_edge_cuts`` names, and texts that end inside a string.
_EDGE_TEXTS = [
    '{"values": [' + ", ".join(f'"{n}/{3 * n + 1}"' for n in range(0, 400, 7)) + "]}",
    '{"offset": 1, "values": [' + ", ".join([
        '"1\\/2"', '"\\u0031\\u002f3"', '"-7\\/1"', '"x\\"y\\"z"', '"\\\\"',
        '"a\\"\\"b"', '"12"', '"\\"5\\""', '"' + "9" * 40 + '\\"1"',
    ] * 3) + "]}",
    '{"val\\u0075es": ["1", "2"], "k\\"ey": "\\"v\\"", "\\u00e9": ["3/4", "\\u00e9"]}',
    '{"values": ["1/2", "3/4',  # ends inside a string
    '{"values": ["1/2", "3\\"',  # ends after an escaped quote
    '{"values": ["1/2", "3\\u00',  # ends inside an escape
]


def _edge_cuts(text: str) -> dict[str, set[int]]:
    """The offsets in ``text`` at which a window edge cuts a string: right
    after its opening quote, inside an escape, between its closing quote
    and a ",", and inside it where the first quote after the cut is an
    escaped one."""
    cuts = {"after the opening quote": set(), "inside an escape": set(),
            "before the ','": set(), "before an escaped quote": set()}
    escaped, opened, i = set(), None, 0
    while i < len(text):
        char = text[i]
        if opened is None:
            if char == '"':
                opened = i
                cuts["after the opening quote"].add(i + 1)
        elif char == "\\":
            width = 6 if text[i + 1:i + 2] == "u" else 2
            cuts["inside an escape"].update(range(i + 1, min(i + width, len(text))))
            if text[i + 1:i + 2] == '"':
                escaped.add(i + 1)
            i += width
            continue
        elif char == '"':
            quotes = [j for j in range(opened + 1, i + 1) if text[j] == '"']
            for cut in range(opened + 1, i + 1):
                if min(j for j in quotes if j >= cut) in escaped:
                    cuts["before an escaped quote"].add(cut)
            if text[i + 1:i + 2] == ",":
                cuts["before the ','"].add(i + 1)
            opened = None
        i += 1
    return cuts


def test_edge_texts_cut_strings_every_way():
    # each kind of cut falls on a window edge at many chunk sizes besides
    # 1, which cuts everywhere
    for kind in _edge_cuts("").keys():
        sizes = {
            chunk for text in _EDGE_TEXTS for chunk in range(2, 65)
            if set(range(chunk, len(text), chunk)) & _edge_cuts(text)[kind]
        }
        assert len(sizes) > 10, kind


@pytest.mark.parametrize("index", range(len(_EDGE_TEXTS)))
def test_loader_reads_strings_cut_at_window_edges_as_json_loads(index):
    for chunk in range(1, 65):
        _assert_reads_as_json_loads(_EDGE_TEXTS[index], chunk)


def test_loader_widens_the_window_over_a_cut_string_without_an_error():
    # a string element that a window edge cuts has no closing quote in the
    # window: the window is widened before it is decoded, and reading the
    # file raises no JSONDecodeError (each one counts the window's lines)
    values = [f"{n}/{n + 1}" for n in range(2000)]
    text = json.dumps({"values": values})
    made = []
    real = json.JSONDecodeError.__init__

    def counting(self, *args):
        made.append(args[0])
        real(self, *args)

    with mock.patch.object(json.JSONDecodeError, "__init__", counting), \
            mock.patch.object(cli, "_READ_CHARS", 100):
        a = model._parse_sequence(cli._pieces(io.StringIO(text)))
    assert made == []
    assert a._exact(*range(1, 2001)) == [(n, n + 1) for n in range(2000)]
    # and most edges between the pieces fall inside a string
    cut = [text.count('"', 0, edge) % 2 for edge in range(100, len(text), 100)]
    assert sum(cut) > len(cut) / 2


def _scanned(text: str, chunk: int):
    """The loader's value of ``text`` read ``chunk`` characters at a time,
    and the characters each scan of the decoder read, at most: to its
    value's end, or to the end of the window when it failed."""
    scanned = []
    real = model._DECODER.scan_once

    def counting(s, idx):
        try:
            value, end = real(s, idx)
        except (StopIteration, ValueError, RecursionError):
            scanned.append(len(s) - idx)
            raise
        scanned.append(end - idx)
        return value, end

    with mock.patch.object(model._DECODER, "scan_once", counting), \
            mock.patch.object(cli, "_READ_CHARS", chunk):
        payload = model._TextReader(cli._pieces(io.StringIO(text))).json()
    return payload, scanned


def test_loader_holds_a_long_element_in_linear_time():
    # one element of 2**14 characters read one character at a time: each
    # refill at least doubles the window, so it is decoded about 14 times,
    # in time linear in its length (one refill a piece would take 2**14)
    text = json.dumps({"values": ["7" * (1 << 14)]})
    payload, scanned = _scanned(text, 1)
    assert payload == json.loads(text)
    assert sum(scanned) < 5 * len(text)


def test_loader_scans_nested_arrays_in_linear_time():
    # 600 arrays, each a string and the next one: every window ends inside
    # about a hundred of them, each of which a whole-element scan would run
    # to the end of the window; after the first, the walk reads them, so
    # the decoder scans the text only a few times over
    depth = 600
    text = '{"values": ' + ("[" + json.dumps("7" * 60) + ", ") * depth + "[]" + "]" * depth + "}"
    payload, scanned = _scanned(text, 4096)
    assert payload == json.loads(text)
    assert sum(scanned) < 3 * len(text)


def test_loader_fails_on_a_missing_value_without_reading_on():
    # a 10.5 MB text whose first value is no value at all: the loader
    # raises json.loads' error from the first window, not the whole text
    text = '{"values": [x, ' + '"1", ' * 2_100_000 + '"1"]}'
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    piece = 64 * 1024
    reader = model._TextReader(text[i:i + piece] for i in range(0, len(text), piece))
    with pytest.raises(ValueError) as got:
        reader.json()
    assert str(got.value) == f"invalid JSON: {want.value}"
    assert "(char 12)" in str(got.value) and len(reader.text) < 256 * 1024


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
        with mock.patch.object(model.SequencePrefix, "_from_texts",
                               wraps=model.SequencePrefix._from_texts) as made:
            got = _outcome(model._parse_sequence, cli._pieces(io.StringIO(text)))
    # the parser of the whole text, as it read CSV before
    want = _outcome(lambda t: model._table_from_csv(t.splitlines()), text)
    if want[0] == "value":  # the literals the parsed prefix holds
        assert got[0] == "value" and made.call_args.args[0] == want[1]
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


def test_a_key_without_its_colon_is_refused_as_json_loads_refuses_it():
    text = '{"offset": 1, "values" ["1", "2"]}'
    with pytest.raises(json.JSONDecodeError) as decoded:
        json.loads(text)
    for source in (text, iter(text)):  # whole, and one character a piece
        with pytest.raises(ValueError) as read:
            model.parse_sequence(source)
        assert str(read.value) == f"invalid JSON: {decoded.value}"
