#!/usr/bin/env python3
"""Benchmark of the fekete package: one workload per run, closed loop.

Run from the repository root:

    python3 bench/run.py --workload scan-full --seed 1 --seconds 40 --trace 0

A run repeats passes of the workload for ``--seconds`` seconds, one after
another (a closed loop with one client); pass k takes its inputs from
``(seed, k)``.  Each pass runs in a fresh interpreter, so that no pass
finds a cache or heap that an earlier pass left behind.  Every
operation's output is checked after its pass, outside the timed region.
Reported times are rescaled to the machine's idle speed by a canary timed
around every operation (README.md, "Times at reference speed").

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` the run alternates untraced and traced passes on the same
inputs and reports the per-layer metrics of the traced ones.  A summary,
including ``fail_frac``, goes to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan-full", "band-analysis", "cli-pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the smoke test")
    # internal: the processes a run starts
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker", choices=("plain", "inproc", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args, *extra):
    return [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, *extra]


# --- inside a pass worker ----------------------------------------------------


# The canary's time on the reference machine (2 cores, Python 3.11) when
# idle: the least of 300 runs, rounded.
CANARY_REF_S = 0.009
_BIG_A, _BIG_B = 3 ** 3600, 7 ** 2000  # about 5.7 and 5.6 kbit
_DIGITS = 10 ** 2999 + 12345


def canary():
    """Time a fixed piece of work that does not touch fekete but resembles
    its three kinds: big-integer subtraction and comparison in an
    interpreted loop, Fraction arithmetic, and big-integer text in JSON.
    The result measures the machine's speed at that moment."""
    t0 = clock()
    acc = 0
    for i in range(5000):
        d = _BIG_A - _BIG_B - i
        if d > acc:
            acc = d - _BIG_B
    q = Fraction(1)
    for i in range(1, 400):
        q = q * Fraction(3, 4) + Fraction(1, i)
    text = json.dumps([str(_DIGITS + i) for i in range(16)])
    sum(int(v) for v in json.loads(text))
    return clock() - t0


def at_reference_speed(wall, canary_s):
    """Wall time rescaled by how much slower than idle the canary ran."""
    return wall * CANARY_REF_S / canary_s


def run_pass(ops, tracer):
    """The timed region: every operation of one pass, in order.

    The canary runs between operations, outside their timing, so that
    each operation's time can be set against the machine's speed just
    before and just after it.
    """
    results, op_s, canaries = [], [], [canary()]
    for op in ops:
        t0 = clock()
        with tracer.op(op.name):
            try:
                results.append(op.run())
            except Exception as exc:  # one failed operation must not end the pass
                results.append(exc)
        op_s.append(clock() - t0)
        canaries.append(canary())
    return results, op_s, canaries


def check_pass(ops, results):
    errors = []
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            msg = f"{type(result).__name__}: {result}"
        else:
            try:
                msg = op.check(result)
            except Exception as exc:  # malformed output counts as a failure
                msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            errors.append(f"{op.name}: {msg}")
    return errors


def worker(args, workloads, tracing):
    """One pass: make inputs, run them (timed), measure memory, check."""
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    w = workloads.workload(args.workload, str(workdir))
    cli = args.workload == "cli-pipeline"
    runner = workloads.SubprocessRunner(str(SRC)) if args.worker == "plain" \
        else workloads.InProcessRunner()
    inputs = w.inputs(args.seed, args.pass_index, args.size)
    try:
        ops = w.operations(inputs, runner)
        if args.worker == "traced":
            tracer = tracing.Tracer()
            with tracer.installed():
                results, op_s, canaries = run_pass(ops, tracer)
        else:
            tracer = None
            results, op_s, canaries = run_pass(ops, tracing.NullTracer())
        # before the checks, which parse reports of their own
        who = resource.RUSAGE_CHILDREN if cli and args.worker == "plain" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024
        errors = check_pass(ops, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # each operation rescaled by the canary just before and just after it
    ref_wall = sum(at_reference_speed(t, (c0 + c1) / 2)
                   for t, c0, c1 in zip(op_s, canaries, canaries[1:]))
    out = {"wall": sum(op_s), "ref_wall": ref_wall, "canary": statistics.median(canaries),
           "op_s": [[op.name, t] for op, t in zip(ops, op_s)], "attempted": len(ops),
           "errors": errors, "rss_mb": rss_mb, "bytes_out": getattr(w, "bytes_out", 0)}
    if tracer is not None:
        out["trace"] = tracer.result()
    print(json.dumps(out))


# --- the run -----------------------------------------------------------------


def setup_times(args, workloads):
    """Set-up samples, each in a new process: a fresh interpreter that
    imports fekete and makes the seeded inputs; for cli-pipeline,
    ``python -m fekete.cli --help`` plus making the arguments.  Returns
    each sample's wall time and the canary's time around it."""
    samples = []
    before = canary()
    for _ in range(SETUP_SAMPLES):
        t0 = clock()
        if args.workload == "cli-pipeline":
            code, _, _ = workloads.SubprocessRunner(str(SRC))(["--help"])
            workloads.CliPipeline("").inputs(args.seed, 0, args.size)
        else:
            # No timeout: waiting with one polls in steps of up to 50 ms,
            # coarser than what this measures.
            code = subprocess.run(_child(args, "--probe"), stdout=subprocess.DEVNULL,
                                  check=False).returncode
        wall = clock() - t0
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
        after = canary()
        samples.append((wall, (before + after) / 2))
        before = after
    return samples


def one_pass(args, k, mode):
    proc = subprocess.run(_child(args, "--worker", mode, "--pass-index", str(k)),
                          stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass {k} ({mode}) exited {proc.returncode}")
    return json.loads(lines[-1])


def op_medians(done):
    """Median over passes of the time each kind of operation took in one."""
    per = {}
    for p in done:
        pass_sum = {}
        for name, t in p["op_s"]:
            pass_sum[name] = pass_sum.get(name, 0.0) + t
        for name, t in pass_sum.items():
            per.setdefault(name, []).append(t)
    return {name: statistics.median(ts) for name, ts in per.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fekete" / "__init__.py").is_file():
        print(f"error: no fekete sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.probe:
        workloads.workload(args.workload, "").inputs(args.seed, 0, args.size)
        return 0
    if args.worker:
        worker(args, workloads, tracing)
        return 0

    setup = [] if args.trace else setup_times(args, workloads)
    # In a traced run both sides run the CLI in-process, so that
    # trace.overhead_s is the wrappers' cost and not interpreter start-up.
    modes = ("inproc", "traced") if args.trace else ("plain",)
    passes = {mode: [] for mode in modes}
    start = clock()
    longest = 0.0
    k = 0
    while True:
        c0 = clock()
        for mode in modes:
            passes[mode].append(one_pass(args, k, mode))
        k += 1
        longest = max(longest, clock() - c0)
        if clock() - start + longest > args.seconds:
            break

    done = [p for mode in modes for p in passes[mode]]
    attempted = sum(p["attempted"] for p in done)
    errors = [e for p in done for e in p["errors"]]
    walls = [p["ref_wall"] for p in passes[modes[0]]]
    if args.trace:
        traced = passes["traced"]
        overhead = statistics.median(t["ref_wall"] - u for t, u in zip(traced, walls))
        metrics = tracing.layer_metrics(
            [(p["trace"], p["ref_wall"] / p["wall"]) for p in traced], overhead,
            sum(p["bytes_out"] for p in traced),
        )
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracing.write_spans([p["trace"] for p in traced],
                            out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(at_reference_speed(w, c) for w, c in setup),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["rss_mb"] for p in done), "unit": "MB"},
        }

    failed = len(errors)
    for mode in modes:
        print(f"{args.workload} seed={args.seed} {mode} passes: raw s "
              f"{[round(p['wall'], 3) for p in passes[mode]]}, canary ms "
              f"{[round(p['canary'] * 1e3, 2) for p in passes[mode]]}", file=sys.stderr)
    if setup:
        print(f"set-up: raw s {[round(w, 3) for w, _ in setup]}, canary ms "
              f"{[round(c * 1e3, 2) for _, c in setup]}", file=sys.stderr)
    for name, m in op_medians(passes[modes[0]]).items():
        print(f"  op {name:39s} {m:.4g} s (raw, median per pass)", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  {'fail_frac':42s} {failed / attempted:.6g} ratio", file=sys.stderr)
    for msg in errors[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
