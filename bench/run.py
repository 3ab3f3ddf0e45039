"""The scaling ladder of `moorev1`: wall time and peak RSS per window.

    python3 bench/run.py

Each rung runs one `python -m moorev1 <command>` in a fresh interpreter,
with moorev1 imported from this checkout's `src/`, and prints the exit
code, the wall time from spawn to exit, and the peak RSS of the child as
os.wait4 reports it (ru_maxrss).  The `verify` rungs step t_max through
32, 64 (the default), 128, 192 and 256, then s_max through 16 and 20 at
the default t_max.  The `page4` rungs build page 4 of EndM
(`page --spectrum EndM --page 4`) at t_max 128 and 192.  The `chart`
rungs draw page 2 of M as SVG (`chart page --spectrum M --page 2
--format svg`) at t_max 128 and 192.  The `decompose` rungs run the
decomposition check (`decompose --format tsv`) at t_max 128 and 192, then
at s_max 20 and v1_min -32: the t_max rungs report the 2,030 cells of the
default window, and these two widen the cell box itself, to 2,262 and
4,590 cells.  All of these pass `--no-cache`.
The last two rungs draw the t_max 192 chart with the result cache on:
`cold` computes it into a fresh `--out` and writes the cache entry, and
`replay` runs it again on the same `--out` and replays that entry, so the
cache's write and read paths are on the ladder too.  Times are raw, not
scaled to a reference host speed, so host load moves them.  The artifacts
go to a temporary directory that is removed afterwards; rungs with the
same arguments share an output directory, every other rung has its own.
Exits 1 when a rung does not exit 0.

The layers below have their own micro-benchmarks in one process: the
window walk in `bench/micro_walk.py`, the pages and the reports decided
once per run in `bench/micro_pages.py` (`PYTHONPATH=src python -m pytest
bench/micro_walk.py bench/micro_pages.py`).
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAGE4 = ["page", "--spectrum", "EndM", "--page", "4"]
CHART = ["chart", "page", "--spectrum", "M", "--page", "2", "--format", "svg"]
NO_CACHE = "--no-cache"
CHART192 = [*CHART, "--t-max", "192"]
DECOMPOSE = ["decompose", "--format", "tsv"]
RUNGS = (
    ("t_max 32", ["verify", "--t-max", "32", NO_CACHE]),
    ("t_max 64", ["verify", "--t-max", "64", NO_CACHE]),
    ("t_max 128", ["verify", "--t-max", "128", NO_CACHE]),
    ("t_max 192", ["verify", "--t-max", "192", NO_CACHE]),
    ("t_max 256", ["verify", "--t-max", "256", NO_CACHE]),
    ("s_max 16", ["verify", "--s-max", "16", NO_CACHE]),
    ("s_max 20", ["verify", "--s-max", "20", NO_CACHE]),
    ("page4 t_max 128", [*PAGE4, "--t-max", "128", NO_CACHE]),
    ("page4 t_max 192", [*PAGE4, "--t-max", "192", NO_CACHE]),
    ("chart t_max 128", [*CHART, "--t-max", "128", NO_CACHE]),
    ("chart t_max 192", [*CHART192, NO_CACHE]),
    ("decompose t_max 128", [*DECOMPOSE, "--t-max", "128", NO_CACHE]),
    ("decompose t_max 192", [*DECOMPOSE, "--t-max", "192", NO_CACHE]),
    ("decompose s_max 20", [*DECOMPOSE, "--s-max", "20", NO_CACHE]),
    ("decompose v1_min -32", [*DECOMPOSE, "--v1-min", "-32", NO_CACHE]),
    ("chart t_max 192 cold", CHART192),
    ("chart t_max 192 replay", CHART192),
)


def rung(args, out):
    """(exit code, wall seconds, peak RSS in MB) of one moorev1 run."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    argv = [sys.executable, "-m", "moorev1", *args, "--out", out]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main() -> int:
    print(f"{'rung':<22} {'exit':>4} {'wall_s':>7} {'peak_rss_mb':>11}", flush=True)
    failed = False
    outs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in RUNGS:
            out = outs.setdefault(tuple(args), os.path.join(tmp, str(len(outs))))
            code, wall, rss = rung(args, out)
            failed = failed or code != 0
            print(f"{name:<22} {code:>4} {wall:>7.2f} {rss:>11.1f}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
