"""The scaling ladder of `moorev1`: wall time and peak RSS per window.

    python3 bench/run.py

Each rung runs one `python -m moorev1 <command> --no-cache` in a fresh
interpreter, with moorev1 imported from this checkout's `src/`, and prints
the exit code, the wall time from spawn to exit, and the peak RSS of the
child as os.wait4 reports it (ru_maxrss).  The `verify` rungs step t_max
through 32, 64 (the default), 128, 192 and 256, then s_max through 16 and
20 at the default t_max.  The `page4` rungs build page 4 of EndM
(`page --spectrum EndM --page 4`) at t_max 128 and 192.  The `chart`
rungs draw page 2 of M as SVG (`chart page --spectrum M --page 2
--format svg`) at t_max 128 and 192.  Times are raw, not scaled to a
reference host speed, so host load moves them.  The artifacts go to a
temporary directory that is removed afterwards.  Exits 1 when a rung does
not exit 0.
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
RUNGS = (
    ("t_max 32", ["verify", "--t-max", "32"]),
    ("t_max 64", ["verify", "--t-max", "64"]),
    ("t_max 128", ["verify", "--t-max", "128"]),
    ("t_max 192", ["verify", "--t-max", "192"]),
    ("t_max 256", ["verify", "--t-max", "256"]),
    ("s_max 16", ["verify", "--s-max", "16"]),
    ("s_max 20", ["verify", "--s-max", "20"]),
    ("page4 t_max 128", [*PAGE4, "--t-max", "128"]),
    ("page4 t_max 192", [*PAGE4, "--t-max", "192"]),
    ("chart t_max 128", [*CHART, "--t-max", "128"]),
    ("chart t_max 192", [*CHART, "--t-max", "192"]),
)


def rung(args, out):
    """(exit code, wall seconds, peak RSS in MB) of one moorev1 run."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    argv = [sys.executable, "-m", "moorev1", *args, "--no-cache", "--out", out]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main() -> int:
    print(f"{'rung':<15} {'exit':>4} {'wall_s':>7} {'peak_rss_mb':>11}", flush=True)
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in RUNGS:
            code, wall, rss = rung(args, os.path.join(tmp, name.replace(" ", "-")))
            failed = failed or code != 0
            print(f"{name:<15} {code:>4} {wall:>7.2f} {rss:>11.1f}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
