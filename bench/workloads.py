"""The benchmark's three workloads.

Each workload turns ``(seed, pass index)`` into inputs, runs them as a
list of operations (the timed part), and checks every operation's output
afterwards (untimed).  An operation is one library call chain or one CLI
command; it fails when it raises, exits with an unexpected code, or its
output check fails.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from fekete import checker, cli, constructions, limits, model

SIZES = {
    "full": {
        "scan_h": 2000,
        "band_h": 220,
        "shift_h": 1200,
        "cli_h": 4000,
        "dirty_h": 400,
        "slopes_k": 7,
        "slopes_hmax": 500,
    },
    "tiny": {
        "scan_h": 60,
        "band_h": 30,
        "shift_h": 60,
        "cli_h": 120,
        "dirty_h": 30,
        "slopes_k": 4,
        "slopes_hmax": 200,
    },
}

SHIFT_THRESHOLDS = (1, 2, 5)
SHIFT_PREFIXES = 4


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _family_params(rng: random.Random, family: str):
    """Seeded parameters.  For constant and floor_power, c >= 1 keeps f
    non-zero from n = 1, so no draw degenerates to the zero family."""
    if family == "constant":
        return {"c": Fraction(rng.randint(4, 36), 4)}
    if family == "floor_power":
        return {"c": Fraction(rng.randint(4, 16), 4), "delta": Fraction(rng.randint(1, 5), 6)}
    if family == "linear":
        return {"c": Fraction(rng.randint(1, 6), 3)}
    return None


def _family_spec(family: str, params) -> str:
    """The CLI's ``--f family:name,params`` form."""
    values = [model.format_rational(params[k]) for k in model.family_parameters(family)]
    return ",".join([f"family:{family}", *values])


# --- closed-form pair counts (the scan's pairs_checked must match) ---------


def full_pairs(h: int) -> int:
    half = h // 2
    return half * (h - half)


def muband_pairs(h: int, mu: Fraction, n_min: int) -> int:
    return sum(
        max(0, min(h - n, mu.numerator * n // mu.denominator) - n + 1)
        for n in range(n_min, h // 2 + 1)
    )


def oneplus_pairs(h: int, n_min: int) -> int:
    return sum(1 + (2 * n + 1 <= h) for n in range(n_min, h // 2 + 1))


# --- scan-full ---------------------------------------------------------------

SCAN_FAMILIES = ("zero", "constant", "floor_sqrt", "linear_over_log", "floor_power")


class ScanFull:
    """Error-term tabulation, convex construction and two exhaustive scans
    (Full and a seeded mu-band) for five families at H=2000."""

    name = "scan-full"

    def inputs(self, seed: int, k: int, size: str) -> dict:
        rng = _rng(self.name, seed, k)
        # One mu per fifth of (1, 2], shuffled over the families: the band
        # scans' total pair count then barely depends on the seed.
        strata = list(range(len(SCAN_FAMILIES)))
        rng.shuffle(strata)
        chains = [
            (fam, _family_params(rng, fam), 1 + Fraction(20 * j + rng.randint(1, 20), 100))
            for fam, j in zip(SCAN_FAMILIES, strata)
        ]
        return {"h": SIZES[size]["scan_h"], "chains": chains}

    def operations(self, inputs: dict, runner=None) -> list[Operation]:
        h = inputs["h"]
        ops = []
        for family, params, mu in inputs["chains"]:
            domains = (model.FullDomain(), model.MuBandDomain(mu, 1))
            expected = (full_pairs(h), muband_pairs(h, mu, 1))

            def run(family=family, params=params, domains=domains):
                f = model.builtin_error_term(family, h, params)
                a = constructions.convex_from_error(f, h)
                return [checker.scan_violations(a, f, d) for d in domains]

            def check(reports, family=family, expected=expected):
                for report, pairs in zip(reports, expected):
                    if not report.ok:
                        return f"{family}: {len(report.violations)} violations on {report.domain}"
                    if report.pairs_checked != pairs:
                        return f"{family}: pairs_checked {report.pairs_checked} != {pairs}"
                return None

            ops.append(Operation(f"scan.{family}", run, check))
        return ops


# --- band-analysis -----------------------------------------------------------

BAND_FAMILIES = ("constant", "floor_sqrt", "linear_over_log", "floor_power", "linear")
G_SAMPLE = 32


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def g_reference(a, f, n: int, m: int) -> Fraction:
    """The finite form of G(n+m) - G(n) - G(m), summed term by term."""
    s = n + m
    plain = a.value(s) - a.value(n) - a.value(m)
    tail_n = sum((f.value(x) / (x * x) for x in range(n, s)), Fraction(0))
    tail_m = sum((f.value(x) / (x * x) for x in range(m, s)), Fraction(0))
    return plain - 3 * n * tail_n - 3 * m * tail_m


class BandAnalysis:
    """Many small exact calls: g_deficit on every band pair of five convex
    prefixes at H=220, and OnePlus scans, q-monotonicity and brackets of
    four monotone-shift prefixes at H=1200."""

    name = "band-analysis"

    def inputs(self, seed: int, k: int, size: str) -> dict:
        rng = _rng(self.name, seed, k)
        hb = SIZES[size]["band_h"]
        pairs = [
            (n, m) for n in range(1, hb // 2 + 1) for m in range(n, min(2 * n, hb - n) + 1)
        ]
        families = [(fam, _family_params(rng, fam), rng.sample(pairs, G_SAMPLE))
                    for fam in BAND_FAMILIES]
        hs = SIZES[size]["shift_h"]
        prefixes = []
        for _ in range(SHIFT_PREFIXES):
            # b(n) = ceil(sqrt n) - c(n) n with c non-decreasing is subadditive
            shift = Fraction(0)
            values = []
            for n in range(1, hs + 1):
                shift += Fraction(rng.randrange(0, 7), rng.randrange(1, 9))
                values.append(_ceil_sqrt(n) - shift * n)
            prefixes.append(model.SequencePrefix(values))
        return {"hb": hb, "pairs": pairs, "families": families, "prefixes": prefixes}

    def operations(self, inputs: dict, runner=None) -> list[Operation]:
        hb, pairs = inputs["hb"], inputs["pairs"]
        ops = []
        for family, params, sample in inputs["families"]:

            def run(family=family, params=params):
                f = model.builtin_error_term(family, hb, params)
                a = constructions.convex_from_error(f, hb)
                values = {(n, m): limits.g_deficit(a, f, n, m) for n, m in pairs}
                return f, a, values

            def check(out, family=family, sample=sample):
                f, a, values = out
                if len(values) != len(pairs):
                    return f"{family}: {len(values)} deficits for {len(pairs)} pairs"
                for n, m in sample:
                    want = g_reference(a, f, n, m)
                    if values[(n, m)] != want:
                        return f"{family}: g_deficit({n},{m}) = {values[(n, m)]}, want {want}"
                return None

            ops.append(Operation(f"band.{family}", run, check))

        for idx, b in enumerate(inputs["prefixes"]):

            def run(b=b):
                return [
                    (
                        N,
                        checker.scan_violations(b, None, model.OnePlusDomain(N)),
                        checker.check_q_monotone(b, N),
                        limits.fekete_bracket(b, N),
                    )
                    for N in SHIFT_THRESHOLDS
                ]

            def check(out, b=b, idx=idx):
                slopes = [v / (i + 1) for i, v in enumerate(b.values)]
                for N, report, rises, bracket in out:
                    if not report.ok:
                        return f"shift {idx}: OnePlus({N}) scan not clean"
                    if report.pairs_checked != oneplus_pairs(b.horizon, N):
                        return f"shift {idx}: OnePlus({N}) pairs {report.pairs_checked}"
                    if rises:
                        return f"shift {idx}: q rises at {rises[:5]} although OnePlus({N}) is clean"
                    low = min(slopes[N - 1 :])
                    if bracket.min_slope != low or slopes[bracket.argmin_k - 1] != low:
                        return f"shift {idx}: bracket min_slope {bracket.min_slope} != {low}"
                return None

            ops.append(Operation(f"shift.{idx}", run, check))
        return ops


# --- cli-pipeline ------------------------------------------------------------

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

# linear_over_log is left out of this draw: its tabulation costs about
# 1.4 s per command at H=4000 (README, known limits), which would make the
# pass time depend on the seed more than on the code.
CLI_FAMILIES = ("constant", "floor_sqrt", "floor_power")


class SubprocessRunner:
    """``python -m fekete.cli`` in a child process, as a user runs it."""

    def __init__(self, src_dir: str):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src_dir + (os.pathsep + path if path else ""))
        self.env.pop("FEKETE_THREADS", None)

    def __call__(self, argv, threads=None):
        env = self.env if threads is None else dict(self.env, FEKETE_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-m", "fekete.cli", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=150,
            check=False,
        )
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


class InProcessRunner:
    """``fekete.cli.main(argv)`` in this process, so that spans can be
    recorded around the library calls it makes."""

    def __call__(self, argv, threads=None):
        saved = os.environ.pop("FEKETE_THREADS", None)
        if threads is not None:
            os.environ["FEKETE_THREADS"] = str(threads)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.environ.pop("FEKETE_THREADS", None)
            if saved is not None:
                os.environ["FEKETE_THREADS"] = saved
        return code, out.getvalue(), err.getvalue()


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class CliPipeline:
    """Sequential CLI commands on large constructed inputs: parsing,
    serialisation and common-denominator scaling dominate, with few pairs."""

    name = "cli-pipeline"

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.bytes_out = 0

    def inputs(self, seed: int, k: int, size: str) -> dict:
        rng = _rng(self.name, seed, k)
        sz = SIZES[size]
        h = sz["cli_h"]
        family = rng.choice(CLI_FAMILIES)
        n = rng.randint(h // 4, h // 3)
        return {
            "h": h,
            "f": _family_spec(family, _family_params(rng, family)),
            "mu": 1 + Fraction(rng.randint(3, 6), 100),
            "limit_n": rng.randint(1, 8),
            "g_pair": (n, rng.randint(n, min(2 * n, h - n))),
            "slopes_f": _family_spec("linear", {"c": 1 + Fraction(rng.randint(0, 4), 16)}),
            "slopes_k": sz["slopes_k"],
            "slopes_hmax": sz["slopes_hmax"],
            "cert": (1 + Fraction(rng.randint(1, 20), 20), rng.randint(1, 5), rng.randint(10, 60)),
            "dirty_h": sz["dirty_h"],
        }

    def operations(self, inputs: dict, runner) -> list[Operation]:
        # A fresh directory per pass, so that no check can read a file an
        # earlier pass wrote.
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

        def p(name):
            return os.path.join(self.workdir, name)

        h, f, mu = inputs["h"], inputs["f"], model.format_rational(inputs["mu"])
        g_n, g_m = inputs["g_pair"]
        cert_mu, cert_N, cert_n = inputs["cert"]
        dirty_h = inputs["dirty_h"]
        conv = p("convex.json")

        def step(argv, threads=None, expect=0, output=None, check=None):
            def run():
                code, out, err = runner(argv, threads)
                written = os.path.getsize(output) if output and os.path.exists(output) else 0
                self.bytes_out += len(out.encode()) + written
                return code, out, err

            def verify(result):
                code, out, err = result
                if code != expect:
                    return f"{' '.join(argv[:2])}: exit {code}, want {expect}: {err.strip()[-300:]}"
                return check(out) if check else None

            return run, verify

        def clean_report(path, pairs):
            def check(_out):
                report = _load(path)
                if report["violations"]:
                    return f"{path}: {len(report['violations'])} violations"
                if report["pairs_checked"] != pairs:
                    return f"{path}: pairs_checked {report['pairs_checked']} != {pairs}"
                return None

            return check

        def convex_written(path, horizon):
            def check(_out):
                values = _load(path)["values"]
                if len(values) != horizon or values[0] != "0":
                    return f"{path}: {len(values)} values, first {values[0]!r}"
                return None

            return check

        def same_bytes(check_report):
            def check(out):
                with open(p("muband.json"), "rb") as a, open(p("muband_t2.json"), "rb") as b:
                    if a.read() != b.read():
                        return "FEKETE_THREADS=2 report differs from the sequential one"
                return check_report(out)

            return check

        def bracket_at_threshold(_out):
            bracket = _load(p("limit.json"))
            # slopes of a convex prefix with a(1) = 0 never decrease
            if bracket["N"] != inputs["limit_n"] or bracket["argmin_k"] != inputs["limit_n"]:
                return f"limit: N {bracket['N']}, argmin_k {bracket['argmin_k']}"
            return None

        def one_rational(out):
            text = out.strip()
            if not _RATIONAL.fullmatch(text):
                return f"gdeficit printed {text[:80]!r}"
            return None

        def coverage_hits(_out):
            payload = _load(p("slopes.json"))
            b = [Fraction(v) for v in payload["b"]["values"]]
            cov = payload["coverage"]
            want = [str(i) for i in range(1, inputs["slopes_k"] + 1)]
            if sorted(cov, key=int) != want:
                return f"coverage keys {sorted(cov, key=int)}"
            for i, x in cov.items():
                if b[x - 1] / x != constructions.enumerate_rationals(int(i)):
                    return f"coverage {i} -> {x}: slope {b[x - 1] / x}"
            return None

        def certificate_chains(_out):
            cert = _load(p("cert.json"))
            u, v = [cert_n], [cert_n]
            for _ in range(cert["k"]):
                u.append(2 * u[-1])
                v.append(v[-1] + cert_mu.numerator * v[-1] // cert_mu.denominator)
            if cert["u"] != u or cert["v"] != v or cert["doubling_covered"] != (2 * u[-1] <= v[-1]):
                return f"certificate chains differ: {cert}"
            return None

        def dirty_report(_out):
            report = _load(p("dirty.json"))
            pairs = full_pairs(dirty_h)
            if report["pairs_checked"] != pairs or len(report["violations"]) != pairs:
                return (f"dirty scan: {len(report['violations'])} violations, "
                        f"{report['pairs_checked']} pairs, want {pairs}")
            return None

        muband_check = clean_report(p("muband.json"), muband_pairs(h, inputs["mu"], 1))
        steps = [
            ("cli.construct_convex",
             step(["construct", "convex", "--f", f, "--H", str(h), "-o", conv],
                  output=conv, check=convex_written(conv, h))),
            ("cli.check",
             step(["check", "--seq", conv, "--f", f, "--domain", "oneplus:1", "-o", p("oneplus.json")],
                  output=p("oneplus.json"),
                  check=clean_report(p("oneplus.json"), oneplus_pairs(h, 1)))),
            ("cli.check_muband",
             step(["check", "--seq", conv, "--f", f, "--domain", f"muband:{mu},1",
                   "-o", p("muband.json")], output=p("muband.json"), check=muband_check)),
            ("cli.check_threads2",
             step(["check", "--seq", conv, "--f", f, "--domain", f"muband:{mu},1",
                   "-o", p("muband_t2.json")], threads=2, output=p("muband_t2.json"),
                  check=same_bytes(muband_check))),
            ("cli.limit",
             step(["limit", "--seq", conv, "--N", str(inputs["limit_n"]), "-o", p("limit.json")],
                  output=p("limit.json"), check=bracket_at_threshold)),
            ("cli.gdeficit",
             step(["gdeficit", "--seq", conv, "--f", f, "--n", str(g_n), "--m", str(g_m)],
                  check=one_rational)),
            ("cli.construct_rational_slopes",
             step(["construct", "rational-slopes", "--f", inputs["slopes_f"],
                   "--K", str(inputs["slopes_k"]), "--Hmax", str(inputs["slopes_hmax"]),
                   "-o", p("slopes.json")], output=p("slopes.json"), check=coverage_hits)),
            ("cli.check",
             step(["check", "--seq", p("slopes.json"), "--f", inputs["slopes_f"],
                   "-o", p("slopes_report.json")], output=p("slopes_report.json"))),
            ("cli.certify_mu",
             step(["certify-mu", "--mu", model.format_rational(cert_mu), "--N", str(cert_N),
                   "--n", str(cert_n), "-o", p("cert.json")],
                  output=p("cert.json"), check=certificate_chains)),
            ("cli.construct_convex",
             step(["construct", "convex", "--f", "family:floor_sqrt", "--H", str(dirty_h),
                   "-o", p("sqrt.json")], output=p("sqrt.json"),
                  check=convex_written(p("sqrt.json"), dirty_h))),
            # every pair of a strictly convex prefix breaks plain subadditivity
            ("cli.check",
             step(["check", "--seq", p("sqrt.json"), "--f", "zero", "--domain", "full",
                   "-o", p("dirty.json")], expect=1, output=p("dirty.json"),
                  check=dirty_report)),
        ]
        return [Operation(name, run, check) for name, (run, check) in steps]


def workload(name: str, workdir: str):
    if name == "scan-full":
        return ScanFull()
    if name == "band-analysis":
        return BandAnalysis()
    if name == "cli-pipeline":
        return CliPipeline(workdir)
    raise ValueError(f"unknown workload {name!r}")
