"""moorev1 benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload verify_default --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; moorev1 is imported from its
`src/`.  The run:

1. measures set-up (with `--trace 0`): spawns fresh interpreters that
   only `import moorev1.cli`, before and after the worker, and reports the
   median time from spawn to the import's return;
2. for `replay_cached`, fills a result cache with the code under test, in
   a process of its own, once per source tree (it is kept under
   `.perfbench/replay-cache/`, keyed by a digest of `src/` and the
   workloads); the fill is timed apart and counted in no metric;
3. spawns one fresh worker process (worker.py) that runs the workload's
   ops in a closed loop for `--seconds` and checks every output.

Every time is reported at reference host speed (see speed.py): each
stretch of an op, and each set-up probe, is scaled by the speed of a
fixed kernel sampled at its two ends.

The last line of stdout is
`{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  A run that
cannot find the program, or whose worker fails, exits 2 and prints no
result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from speed import at_reference, kernel_seconds
from tracer import PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 8  # before the worker, and again after it
SETUP_KERNEL_RUNS = 20  # host speed sample between two set-up probes
PROBE = "import time, moorev1.cli; print(repr(time.monotonic()))"
CHILD_TIMEOUT_S = 150


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_samples(n: int) -> List[float]:
    """Seconds from spawning an interpreter until `import moorev1.cli` has
    returned, for n fresh interpreters, at reference host speed."""
    samples = []
    before = kernel_seconds(SETUP_KERNEL_RUNS)
    for _ in range(n):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", PROBE],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        after = kernel_seconds(SETUP_KERNEL_RUNS)
        samples.append(at_reference([float(done.stdout) - t0], [before, after]))
        before = after
    return samples


def run_worker(args: List[str], timeout: float) -> dict:
    done = subprocess.run(
        [sys.executable, WORKER, "--src", SRC] + args,
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def tree_digest() -> str:
    """sha256 over the program's sources and the benchmark's workloads."""
    h = hashlib.sha256()
    files = [os.path.join(HERE, "workloads.py")]
    for d, dirs, names in os.walk(SRC):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        files += [os.path.join(d, n) for n in sorted(names) if not n.endswith(".pyc")]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def filled_cache(workload: str) -> str:
    """An output directory whose result cache the code under test filled
    by running every op of the workload once.  It is filled once per
    source tree and kept; each run replays a copy of it."""
    path = os.path.join(ROOT, ".perfbench", "replay-cache", f"{workload}-{tree_digest()[:16]}")
    if os.path.isdir(path):
        return path
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.perf_counter()
    filled = run_worker(["--workload", workload, "--fill", tmp], CHILD_TIMEOUT_S)
    print(f"cache filled in {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    if filled["failed"]:
        shutil.rmtree(tmp, ignore_errors=True)
        raise RuntimeError(f"{filled['failed']} ops failed while filling the cache")
    os.rename(tmp, path)
    return path


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def op_latencies(rounds: List[dict], field: str = "ref_ms", pick=statistics.median) -> Dict[str, float]:
    """Each op's latency in ms over the rounds: by default the median at
    reference host speed."""
    samples: Dict[str, List[float]] = {}
    for r in rounds:
        for key, ms in zip(r["ops"], r[field]):
            samples.setdefault(key, []).append(ms)
    return {key: pick(v) for key, v in samples.items()}


def end_to_end(doc: dict, setup_s: float) -> Dict[str, dict]:
    typical = list(op_latencies(doc["rounds"]).values())
    measured = sum(op_latencies(doc["rounds"], "op_ms").values()) / 1000.0
    print(f"wall_s {sum(typical) / 1000.0:.3f} at reference speed, {measured:.3f} as measured",
          file=sys.stderr)
    return {
        "wall_s": {"value": sum(typical) / 1000.0, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": doc["peak_rss_mb"], "unit": "MB"},
        "op_p50_ms": {"value": statistics.median(typical), "unit": "ms"},
        "op_p95_ms": {"value": percentile(typical, 95), "unit": "ms"},
    }


def per_layer(doc: dict) -> Dict[str, dict]:
    """Counts from the first traced round (they repeat exactly), each self
    time at its smallest over the traced rounds, and the tracing overhead:
    a pass at best traced latencies against one at best untraced ones,
    both as measured."""
    traced = [r for r in doc["rounds"] if r["traced"]]
    values = dict(traced[0]["layers"])
    for name in values:
        if name.endswith(".self_s"):
            values[name] = min(r["layers"].get(name, 0.0) for r in traced)
    plain = sum(op_latencies([r for r in doc["rounds"] if not r["traced"]], "op_ms", min).values())
    values["trace.overhead_pct"] = 100.0 * (sum(op_latencies(traced, "op_ms", min).values()) / plain - 1)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "moorev1", "cli.py")):
        print(f"error: no moorev1 sources under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench", "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    setup: List[float] = []
    try:
        if not args.trace:
            # the first probe writes the bytecode cache and is not counted;
            # probes before and after the worker see more of the host's load
            setup_samples(1)
            setup += setup_samples(SETUP_PROBES)
        extra = []
        if WORKLOADS[args.workload].cached:
            cache = os.path.join(work, "cache")
            shutil.copytree(filled_cache(args.workload), cache)
            extra = ["--cache", cache]
        if args.trace:
            spans_dir = os.path.join(ROOT, ".perfbench", "spans")
            os.makedirs(spans_dir, exist_ok=True)
            extra += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
        doc = run_worker(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--work", work,
            ] + extra,
            CHILD_TIMEOUT_S,
        )
        if not args.trace:
            setup += setup_samples(SETUP_PROBES)
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(doc) if args.trace else end_to_end(doc, statistics.median(setup))
    print(f"{len(doc['rounds'])} rounds, {doc['attempted']} ops", file=sys.stderr)
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
