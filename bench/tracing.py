"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: the public functions of
``fekete.model``, ``fekete.constructions``, ``fekete.checker`` and
``fekete.limits`` are replaced by timing wrappers on their module objects
for the duration of a traced pass.  ``fekete.cli`` and the library itself
look these functions up as module attributes at call time, so calls made
inside ``cli.main`` or inside another library function are recorded as
child spans.  Nothing in the program is changed, and untraced passes run
with the original functions in place.

A span is ``(id, name, op, parent, start, end)``; ``op`` is the id of the
benchmark operation (one library call chain or one CLI command) that
caused it.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from fekete import checker, constructions, limits, model

_clock = time.perf_counter


class NullTracer:
    """Stand-in for untraced passes: operations carry no spans."""

    def op(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.denom_bits = 0
        self._stack = []
        self._next_id = 0
        self._op = None
        self._patched = []

    # --- spans ---------------------------------------------------------------

    def _begin(self, name):
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name, parent, _clock()))
        return sid

    def _end(self):
        end = _clock()
        sid, name, parent, start = self._stack.pop()
        self.spans.append((sid, name, self._op, parent, start, end))

    @contextmanager
    def op(self, name):
        """One benchmark operation; every span it causes shares its id."""
        outer = self._op
        self._op = self._next_id + 1
        self._begin(name)
        try:
            yield
        finally:
            self._end()
            self._op = outer

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, module, attr, after=None, before=None):
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def install(self):
        """Replace the traced public functions with recording wrappers."""
        counts = self.counts

        def parsed(result, text, *a, **k):
            counts["model.parse_sequence.bytes"] += len(text.encode())

        def serialised(result, *a, **k):
            counts["model.sequence_to_json.bytes"] += len(result.encode())

        def before_scan(a, f=None, domain=None, *rest, **kw):
            # Both are kept out of the scan's own span: the LCM bit length
            # is the input's property, and draining the pair generator on
            # its own is the enumeration cost with no arithmetic.
            self.denom_bits = max(self.denom_bits, _denominator_bits(a, f))
            dom = domain if domain is not None else model.FullDomain()
            self._begin("model.pairs_upto")
            try:
                counts["model.pairs_upto.pairs"] += sum(
                    1 for _ in dom.pairs_upto(a.horizon)
                )
            finally:
                self._end()

        def scanned(report, *a, **k):
            counts["checker.scan_violations.calls"] += 1
            counts["checker.scan_violations.pairs"] += report.pairs_checked
            counts["checker.scan_violations.violations"] += len(report.violations)

        def q_checked(result, a, N):
            counts["checker.check_q_monotone.windows"] += a.horizon // 2 - N + 1

        def g_called(result, *a, **k):
            counts["limits.g_deficit.calls"] += 1

        self._wrap(model, "builtin_error_term")
        self._wrap(model, "parse_sequence", after=parsed)
        self._wrap(model, "sequence_to_json", after=serialised)
        self._wrap(constructions, "convex_from_error")
        self._wrap(constructions, "rational_slope_sequence")
        self._wrap(checker, "scan_violations", after=scanned, before=before_scan)
        self._wrap(checker, "check_q_monotone", after=q_checked)
        self._wrap(limits, "g_deficit", after=g_called)
        self._wrap(limits, "fekete_bracket")
        self._wrap(limits, "mu_chain_certificate")

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- results -------------------------------------------------------------

    def result(self) -> dict:
        """What one traced pass hands back: its spans and counts."""
        return {"spans": self.spans, "counts": dict(self.counts), "denom_bits": self.denom_bits}


def _denominator_bits(a, f):
    denom = 1
    for v in a.values:
        denom = math.lcm(denom, v.denominator)
    if f is not None:
        for v in f.values[: a.horizon]:
            denom = math.lcm(denom, v.denominator)
    return denom.bit_length()


CLI_COMMANDS = (
    "construct_convex",
    "construct_rational_slopes",
    "check",
    "check_threads2",
    "limit",
    "gdeficit",
    "certify_mu",
)
# Operation spans whose time counts toward a CLI command's metric.
CLI_SPANS = {cmd: (f"cli.{cmd}",) for cmd in CLI_COMMANDS}
CLI_SPANS["check"] = ("cli.check", "cli.check_muband")

# Per-layer metrics in the order BENCHMARK.json lists them, with units.
LAYER_UNITS = {
    "model.builtin_error_term.s": "s",
    "model.parse_sequence.s": "s",
    "model.parse_sequence.bytes": "B",
    "model.sequence_to_json.s": "s",
    "model.sequence_to_json.bytes": "B",
    "model.pairs_upto.s": "s",
    "model.pairs_upto.pairs": "count",
    "constructions.convex_from_error.s": "s",
    "constructions.rational_slope_sequence.s": "s",
    "checker.scan_violations.s": "s",
    "checker.scan_violations.calls": "count",
    "checker.scan_violations.pairs": "count",
    "checker.scan_violations.violations": "count",
    "checker.scan_violations.pairs_per_s": "1/s",
    "checker.scan_violations.denom_bits": "bit",
    "checker.check_q_monotone.s": "s",
    "checker.check_q_monotone.windows": "count",
    "limits.g_deficit.s": "s",
    "limits.g_deficit.calls": "count",
    "limits.g_deficit.us_per_call": "us",
    "limits.fekete_bracket.s": "s",
    "limits.mu_chain_certificate.s": "s",
    **{f"cli.{cmd}.{kind}": "s" for cmd in CLI_COMMANDS for kind in ("s", "self_s")},
    "cli.check_muband.s": "s",
    "cli.bytes_out": "B",
    "trace.overhead_s": "s",
}


def span_totals(spans):
    """Summed duration and self time per span name.

    Spans nest strictly (one thread), so the part of a span covered by its
    children is the sum of the children's durations.
    """
    covered = defaultdict(float)
    for sid, name, op, parent, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    for sid, name, op, parent, start, end in spans:
        total[name] += end - start
        self_time[name] += end - start - covered[sid]
    return total, self_time


def write_spans(passes, path):
    """All spans of a run, one JSON object per line, tagged with the
    traced pass they came from (span ids are unique within a pass)."""
    fields = ("id", "name", "op", "parent", "start", "end")
    with open(path, "w", encoding="utf-8") as fh:
        for k, traced in enumerate(passes):
            for span in traced["spans"]:
                fh.write(json.dumps({"pass": k, **dict(zip(fields, span))}) + "\n")


def layer_metrics(passes, overhead_s, bytes_out):
    """Per-pass averages of the traced passes' spans and counts, keyed as
    in ``LAYER_UNITS``; a layer the workload does not reach reads 0.

    ``passes`` holds ``(result, scale)`` pairs: each pass's span times are
    multiplied by its scale, the same rescaling as the end-to-end times.
    """
    total, self_time, counts = defaultdict(float), defaultdict(float), defaultdict(int)
    for traced, scale in passes:
        t, st = span_totals(traced["spans"])
        for name in t:
            total[name] += t[name] * scale
            self_time[name] += st[name] * scale
        for key, value in traced["counts"].items():
            counts[key] += value
    per = 1 / len(passes)
    values = {}
    for key in LAYER_UNITS:
        values[key] = (total[key[:-2]] if key.endswith(".s") else counts.get(key, 0)) * per
    for cmd, spans in CLI_SPANS.items():
        values[f"cli.{cmd}.s"] = sum(total[s] for s in spans) * per
        values[f"cli.{cmd}.self_s"] = sum(self_time[s] for s in spans) * per
    scan_s = values["checker.scan_violations.s"]
    pairs = values["checker.scan_violations.pairs"]
    values["checker.scan_violations.pairs_per_s"] = pairs / scan_s if scan_s else 0
    values["checker.scan_violations.denom_bits"] = max(p["denom_bits"] for p, _ in passes)
    calls = values["limits.g_deficit.calls"]
    g_s = values["limits.g_deficit.s"]
    values["limits.g_deficit.us_per_call"] = g_s / calls * 1e6 if calls else 0
    values["cli.bytes_out"] = bytes_out * per
    values["trace.overhead_s"] = overhead_s
    return {key: {"value": values[key], "unit": unit} for key, unit in LAYER_UNITS.items()}
