"""Micro-benchmarks of the command-line driver's fixed costs, with
pytest-benchmark:

    PYTHONPATH=src python -m pytest bench/micro_cli.py

Four cases: building the argument parser without its cache
(`_build_parser.__wrapped__`), which `cli.run` pays once per process;
`parse_args` on the shared parser; `cli.run` replaying `verify` from an
output directory its cache already holds; and a cold `ext --spectrum M
--s-max 8 --t-max 16` with `--no-cache`.  The file name does not match
`test_*.py`, so a plain `pytest` run of the repository leaves it out.
"""
import contextlib
import io

import pytest

from moorev1 import cli

pytest.importorskip("pytest_benchmark")


def quiet_run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def test_build_parser_uncached(benchmark):
    assert benchmark(cli._build_parser.__wrapped__).prog == "moorev1"


def test_parse_args_cached(benchmark):
    parser = cli._build_parser()
    argv = ["ext", "--spectrum", "M", "--s-max", "8", "--t-max", "16"]
    assert benchmark(parser.parse_args, argv).cmd == "ext"


def test_run_replays_verify(benchmark, tmp_path):
    argv = ["verify", "--out", str(tmp_path)]
    assert quiet_run(argv) == 0  # fills the cache
    assert benchmark(quiet_run, argv) == 0


def test_run_cold_ext(benchmark, tmp_path):
    argv = ["ext", "--spectrum", "M", "--s-max", "8", "--t-max", "16", "--no-cache", "--out", str(tmp_path)]
    assert benchmark(quiet_run, argv) == 0
