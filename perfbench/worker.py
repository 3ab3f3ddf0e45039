"""One measured run in a fresh, single-threaded process.

Imports moorev1 from the given source tree, then calls
`moorev1.cli.run(argv)` once per op in a closed loop: one op at a time,
no threads.  Ops run in rounds (see workloads.py) until the next round
would overrun `--seconds`; at least one round always runs.  Only the
`cli.run` calls are timed; the output checks after each op are not.
Every op's latency is recorded with its key; with `--trace 0` also at
reference host speed (see speed.py).

With `--trace 1` the rounds alternate untraced and traced, starting
untraced, so the tracing overhead is measured in the same process.

With `--fill DIR` the worker instead runs every op of the workload once
into DIR, which leaves the result cache `replay_cached` replays.

The last line of stdout is one JSON object with the run's raw samples.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

import oracle
from speed import SpeedProbe, kernel_seconds
from workloads import WORKLOADS, Op, op_key, round_ops


@dataclass
class RoundResult:
    ops: List[str] = field(default_factory=list)
    op_ms: List[float] = field(default_factory=list)
    ref_ms: List[float] = field(default_factory=list)  # with a SpeedProbe only
    attempted: int = 0
    failed: int = 0


def import_cli(src: str):
    """moorev1.cli from `src` and nowhere else."""
    sys.path.insert(0, src)
    import moorev1.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"moorev1 was imported from {cli.__file__}, not from {src}")
    return cli


def run_op(cli, op: Op, out: str, probe=None):
    """Exit code, stdout, seconds and, with a probe, seconds at reference
    host speed of one `cli.run` call."""
    buf = io.StringIO()
    argv = list(op) + ["--out", out]
    with contextlib.redirect_stdout(buf):
        if probe is not None:
            code, seconds, ref = probe.time(lambda: cli.run(argv))
        else:
            t0 = time.perf_counter()
            code = cli.run(argv)
            seconds, ref = time.perf_counter() - t0, None
    return code, buf.getvalue(), seconds, ref


def run_round(cli, reference: Dict[str, dict], ops: List[Op], out: str, on_op=None, probe=None) -> RoundResult:
    res = RoundResult()
    for op in ops:
        ref = reference.get(op_key(op), {"files": {}})
        for name in ref["files"]:
            # a replay must write its artifacts again, not leave old ones
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(out, name))
        if on_op is not None:
            on_op()
        res.attempted += 1
        try:
            code, stdout, seconds, ref = run_op(cli, op, out, probe)
        except Exception as exc:  # a crash fails the op; the run goes on
            print(f"op {op_key(op)!r} raised {exc!r}", file=sys.stderr)
            res.failed += 1
            continue
        res.ops.append(op_key(op))
        res.op_ms.append(seconds * 1000.0)
        if ref is not None:
            res.ref_ms.append(ref * 1000.0)
        problems = oracle.check_op(reference, op, code, stdout, out)
        if problems:
            res.failed += 1
            for p in problems:
                print(f"op {op_key(op)!r}: {p}", file=sys.stderr)
    return res


def measure(cli, reference, args) -> dict:
    w = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    probe = None
    if not args.trace:
        kernel_seconds(200)  # warm-up
        probe = SpeedProbe()
    rounds: List[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        out = args.cache if w.cached else os.path.join(args.work, f"round-{len(rounds)}")
        os.makedirs(out, exist_ok=True)
        on_op = None
        if traced:
            tracer.reset()
            tracer.keep_spans = len(rounds) == 1
            tracer.install()

            def on_op():
                tracer.op += 1

        t0 = time.perf_counter()
        try:
            res = run_round(cli, reference, round_ops(w, rng), out, on_op, probe)
        finally:
            if traced:
                tracer.uninstall()
        last = time.perf_counter() - t0
        record = {"traced": traced, "ops": res.ops, "op_ms": res.op_ms, "ref_ms": res.ref_ms}
        if traced:
            record["layers"] = tracer.round_metrics()
        rounds.append(record)
        attempted += res.attempted
        failed += res.failed
        if not w.cached:
            shutil.rmtree(out)
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start + last > args.seconds:
            break
    if tracer is not None:
        tracer.write_spans(args.spans)
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", help="directory for the fresh output directories")
    ap.add_argument("--cache", help="pre-filled output directory to replay")
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    ap.add_argument("--fill", metavar="DIR", help="fill DIR's cache and exit")
    args = ap.parse_args()
    cli = import_cli(args.src)
    reference = oracle.load_reference()
    if args.fill:
        doc = {"failed": run_round(cli, reference, list(WORKLOADS[args.workload].ops), args.fill).failed}
    else:
        doc = measure(cli, reference, args)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
