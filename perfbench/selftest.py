"""Self-tests of the benchmark, not of moorev1.

    python3 perfbench/selftest.py

1. metric list: BENCHMARK.json names the same per-layer metrics, with the
   same units, as tracer.PER_LAYER.
2. tamper: the ext_tables ops run through the harness twice, once as they
   are (fail ratio 0) and once with one byte of one artifact flipped right
   after the op wrote it (fail ratio above 0).
3. counts: two traced runs of every workload give identical counts, and
   the counts match the anchors seen at the commit that defined the
   benchmark.
4. speed: twice the program's work reads as about twice the time at
   reference host speed, so the host-speed scaling cannot hide a slower
   program.

Exits 0 when every test passes.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys

import oracle
from speed import SpeedProbe
from tracer import PER_LAYER
from worker import import_cli, run_round
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (workload, metric, value) seen at the commit that defined the benchmark
ANCHORS = (
    ("verify_default", "gf2poly.enumerate_window.calls", 13),
    ("verify_default", "gf2poly.enumerate_window.distinct", 5),
    ("verify_default", "dga.PagePresentation.apply_monomial.calls", 101250),
    ("verify_default", "dga.PagePresentation.apply_monomial.distinct", 53849),
    ("artifacts_t128", "gf2poly.enumerate_window.calls", 6),
    ("artifacts_t128", "gf2poly.enumerate_window.distinct", 6),
    ("ext_tables", "cobar.CobarComplex.matrix.calls", 972),
    ("replay_cached", "cli.cache_hits", 10),
    ("replay_cached", "cli.cache_misses", 0),
)


class TamperingCli:
    """moorev1.cli whose first op gets one byte of one artifact flipped."""

    def __init__(self, cli, artifact: str):
        self._cli = cli
        self._artifact = artifact
        self.tampered = False

    def run(self, argv):
        code = self._cli.run(argv)
        path = os.path.join(argv[argv.index("--out") + 1], self._artifact)
        if not self.tampered and os.path.exists(path):
            with open(path, "r+b") as f:
                first = f.read(1)
                f.seek(0)
                f.write(bytes([first[0] ^ 0x01]))
            self.tampered = True
        return code


def test_metric_list() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]
    assert declared == list(PER_LAYER), "BENCHMARK.json per_layer differs from tracer.PER_LAYER"


def test_tamper() -> None:
    cli = import_cli(os.path.join(ROOT, "src"))
    reference = oracle.load_reference()
    ops = list(WORKLOADS["ext_tables"].ops)
    work = os.path.join(ROOT, ".perfbench", "selftest")
    try:
        for label, runner, want_failed in (
            ("as is", cli, 0),
            ("one byte flipped", TamperingCli(cli, "ext-EndM.tsv"), 1),
        ):
            out = os.path.join(work, label.replace(" ", "-"))
            os.makedirs(out)
            res = run_round(runner, reference, ops, out)
            ratio = res.failed / res.attempted
            print(f"tamper, {label}: fail_ratio {res.failed}/{res.attempted} = {ratio:.3f}")
            assert res.failed == want_failed, f"expected {want_failed} failed ops"
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_counts(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    counts = {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")}
    for name, m in metrics.items():
        if name.endswith(".distinct_ratio"):
            span = name[: -len(".distinct_ratio")]
            counts[span + ".distinct"] = round(m["value"] * metrics[span + ".calls"]["value"])
    return counts


def test_counts() -> None:
    for workload in WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        differ = sorted(k for k in first if first[k] != second.get(k))
        assert not differ, f"{workload}: counts differ between two traced runs: {differ}"
        for w, name, want in ANCHORS:
            if w == workload:
                assert first[name] == want, f"{workload}: {name} is {first[name]}, anchor {want}"
        print(f"counts, {workload}: {len(first)} counts repeat exactly and match the anchors")


def test_speed() -> None:
    cli = import_cli(os.path.join(ROOT, "src"))
    out = os.path.join(ROOT, ".perfbench", "selftest")
    argv = ["ext", "--spectrum", "M", "--s-max", "8", "--t-max", "16", "--no-cache", "--out", out]
    probe = SpeedProbe()
    try:
        os.makedirs(out)
        once, twice = [], []
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(5):
                once.append(probe.time(lambda: cli.run(argv))[2])
                twice.append(probe.time(lambda: (cli.run(argv), cli.run(argv)))[2])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    ratio = statistics.median(twice) / statistics.median(once)
    print(f"speed: one op {statistics.median(once):.3f} s, two ops {statistics.median(twice):.3f} s "
          f"at reference speed, ratio {ratio:.2f}")
    assert 1.7 < ratio < 2.3, f"twice the work reads as {ratio:.2f} times the time"


def main() -> int:
    failed = 0
    for test in (test_metric_list, test_tamper, test_speed, test_counts):
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
