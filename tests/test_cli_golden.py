"""Golden CLI bytes: ``check`` on every ``--domain`` variant and error-term
kind, ``limit`` and ``gdeficit``, on the small committed inputs in
``golden/``; and every ``construct`` command, ``certify-mu`` and
``decompose``, which read no sequence file.  Each run is pinned by its
exit code and the sha256 of its stdout and of its ``-o`` file.

The inputs cover a ``construct convex`` prefix (JSON), a rational prefix
with violations (CSV), unreduced ``p/q`` values with signs and leading
zeros (JSON and CSV), and a ``construct rational-slopes`` output.  The
digests in ``golden/digests.json`` were recorded from a known-good
version with

    PYTHONPATH=src python tests/test_cli_golden.py

Record them again only in a change that means to alter CLI output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from fekete.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"

SEQUENCES = ("convex.json", "dirty.csv", "unreduced.json", "unreduced.csv", "slopes.json")
DOMAINS = ("full", "threshold:4", "muband:3/2,2", "oneplus:1", "explicit:pairs.json")
ERROR_TERMS = ("zero", "family:floor_sqrt", "f_rational.json")
G_PAIRS = ((1, 1), (3, 5), (8, 13))
# every builtin family, and a rational table, as the error term of
# ``construct convex``
CONVEX_F = (
    "zero", "family:zero", "family:constant,9/4", "family:floor_sqrt",
    "family:floor_power,3/2,1/3", "family:linear_over_log", "family:linear,1/3",
    "f_rational.json",
)
CONSTRUCT = "construct"  # the digests key of the runs that read no sequence


def _commands(seq: str):
    """The argv of every golden run on one input; file names are relative
    to ``golden/`` and ``OUT`` stands for the ``-o`` file."""
    for domain in DOMAINS:
        for f in ERROR_TERMS:
            yield ["check", "--seq", seq, "--f", f, "--domain", domain, "-o", "OUT"]
    yield ["check", "--seq", seq]
    for n in (0, 1, 3):
        yield ["limit", "--seq", seq, "--N", str(n), "-o", "OUT"]
    for f in ERROR_TERMS:
        for n, m in G_PAIRS:
            yield ["gdeficit", "--seq", seq, "--f", f, "--n", str(n), "--m", str(m)]


def _construct_commands():
    """The argv of every golden run that builds its output from options
    alone, in both output formats."""
    for fmt in ("json", "csv"):
        tail = ["-o", "OUT", "--format", fmt]
        for f in CONVEX_F:
            yield ["construct", "convex", "--f", f, "--H", "60", *tail]
        yield ["construct", "rational-slopes", "--f", "family:linear,1", "--K", "7",
               "--Hmax", "500", *tail]
        # exhausted: exit 1 and no file
        yield ["construct", "rational-slopes", "--f", "family:floor_sqrt", "--K", "5",
               "--Hmax", "60", *tail]
        yield ["construct", "linear-error", "--f", "family:linear,1", "--L", "1",
               "--H", "40", *tail]
        yield ["construct", "linear-error", "--f", "f_rational.json", "--L", "1/10",
               "--H", "60", *tail]
        yield ["construct", "threshold-gap", "--N", "3", "--anchors", "5,10,20", *tail]
        yield ["construct", "threshold-gap", "--N", "3", "--anchors", "5,10,20",
               "--H", "12", *tail]
    for mu, N, n in (("3/2", "2", "5"), ("5/4", "3", "7")):
        yield ["certify-mu", "--mu", mu, "--N", N, "--n", n, "-o", "OUT"]
    yield ["certify-mu", "--mu", "3/2", "--N", "2", "--n", "5"]
    for n, k in (("20", "3"), ("9", "4")):
        yield ["decompose", "--n", n, "--k", k, "-o", "OUT"]
    yield ["decompose", "--n", "20", "--k", "3"]


def _resolve(arg: str, out: Path) -> str:
    if arg == "OUT":
        return str(out)
    if arg.startswith("explicit:"):
        return "explicit:" + str(GOLDEN / arg[len("explicit:"):])
    return str(GOLDEN / arg) if (GOLDEN / arg).is_file() else arg


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def run_digests(commands, out: Path) -> dict[str, list]:
    """Run every argv of ``commands``: ``{argv: [exit code, sha256 of
    stdout, sha256 of the -o file or None]}``."""
    digests = {}
    for argv in commands:
        out.unlink(missing_ok=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([_resolve(arg, out) for arg in argv])
        written = out.read_bytes() if out.exists() else None
        digests[" ".join(argv)] = [code, _sha(stdout.getvalue().encode()), _sha(written)]
    return digests


@pytest.mark.parametrize("seq", SEQUENCES)
def test_cli_bytes_match_golden_digests(seq, tmp_path):
    recorded = json.loads(DIGESTS.read_text())[seq]
    assert run_digests(_commands(seq), tmp_path / "out.json") == recorded


def test_construct_bytes_match_golden_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())[CONSTRUCT]
    assert run_digests(_construct_commands(), tmp_path / "out") == recorded


def _spelled(commands, f: str) -> list[list[str]]:
    """The argv of ``commands`` that take ``--f zero``, with ``f`` for it."""
    return [[f if arg == "zero" else arg for arg in argv] for argv in commands if "zero" in argv]


def test_zero_is_the_zero_family(tmp_path, capsys):
    """``--f zero`` and ``--f family:zero`` are one term: ``check`` on
    every domain, ``gdeficit`` and ``construct convex`` give the same exit
    code and bytes, and ``construct rational-slopes`` the same error."""
    commands = [*_commands("dirty.csv"), *_construct_commands()]
    zero = run_digests(_spelled(commands, "zero"), tmp_path / "out")
    family = run_digests(_spelled(commands, "family:zero"), tmp_path / "out")
    assert len(zero) == len(DOMAINS) + len(G_PAIRS) + 2
    assert list(zero.values()) == list(family.values())
    for f in ("zero", "family:zero"):
        out = tmp_path / "slopes.json"
        code = main(["construct", "rational-slopes", "--f", f, "--K", "3", "--Hmax", "60",
                     "-o", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr() == ("", "error: f identically zero within the window\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        table = {seq: run_digests(_commands(seq), out) for seq in SEQUENCES}
        table[CONSTRUCT] = run_digests(_construct_commands(), out)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, table.values()))} runs in {DIGESTS}", file=sys.stderr)
