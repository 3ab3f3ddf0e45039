"""Micro-benchmarks of the window walk (`gf2poly._walk_parts`), with
pytest-benchmark:

    PYTHONPATH=src python -m pytest bench/micro_walk.py

Three cases: `enumerate_window` on E3(EndM) at t_max 128, the page the
walk builds the most parts for; `enumerate_window` on E2(M) at the
default window; and the five `count_window` calls of `moorev1 verify` at
the default window, run in turn as one case.  The file name does not
match `test_*.py`, so a plain `pytest` run of the repository leaves it
out.
"""
import pytest

from moorev1.gf2poly import Polynomial, Quotient, count_window, default_window, enumerate_window
from moorev1.specseq import Workbench

pytest.importorskip("pytest_benchmark")


def verify_count_calls():
    """(algebra, window, odd) of each count_window call of the default
    verify: the bases of E2(M), E2(EndM) and E3(EndM) as the d² reports
    count them, then E2(EndM) over alpha split by the generators with
    d2 != 0, and E2(S) over h(1,0), as the module isomorphisms count them."""
    bench = Workbench(default_window())
    window = bench.window
    endm = bench.presentation("EndM", 2)
    a, sphere = endm.alphabet, bench.alphabet("S", 2)
    odd = [g.name for gi, g in enumerate(a) if endm.derivation_value(gi, 1)]
    return [
        (bench.presentation("M", 2).quotient, window, ()),
        (bench.presentation("EndM", 3).quotient, window, ()),
        (endm.quotient, window, ()),
        (Quotient(a, tuple(Polynomial.parse(a, "alpha").terms)), window, odd),
        (Quotient(sphere, tuple(Polynomial.parse(sphere, "h(1,0)").terms)), window, ()),
    ]


def test_enumerate_e3_endm_t128(benchmark):
    window = default_window(128)
    quotient = Workbench(window).presentation("EndM", 3).quotient
    assert benchmark(enumerate_window, quotient, window).degrees()


def test_enumerate_m_default(benchmark):
    window = default_window()
    quotient = Workbench(window).presentation("M", 2).quotient
    assert benchmark(enumerate_window, quotient, window).degrees()


def test_verify_counts_default(benchmark):
    calls = verify_count_calls()
    counted = benchmark(lambda: [count_window(*call) for call in calls])
    assert all(c.total() for c in counted)
