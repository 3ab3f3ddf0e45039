"""Micro-benchmarks of the pages and the five reports `moorev1 verify`
decides once per run, with pytest-benchmark:

    PYTHONPATH=src python -m pytest bench/micro_pages.py

At the default window: the build of `PresentationPage` (E3(EndM)) and of
`MatchedPage` (page 3 of EndM) with their runs, `homology_page` of M's
r=3 presentation, and each report builder on a Workbench whose pages are
already built, so that a case times the report alone.  The file name does
not match `test_*.py`, so a plain `pytest` run of the repository leaves it
out.
"""
import pytest

from moorev1.dga import PresentationPage, homology_page
from moorev1.gf2poly import default_window
from moorev1.specseq import _E3_STEP, MatchedPage, Workbench

pytest.importorskip("pytest_benchmark")

REPORTS = (
    "verify_e3_presentation",
    "verify_w_grading",
    "verify_module_isomorphisms",
    "verify_e4_claims",
    "verify_e4_dimensions",
)


def built_bench():
    """A default-window Workbench with the counts and the pages the reports
    read already built."""
    bench = Workbench(default_window())
    bench.verify_differentials_square_to_zero()
    bench.page("EndM", 3)
    bench.page("M", 4)
    return bench


def test_presentation_page_runs(benchmark):
    bench = built_bench()
    pres = bench.presentation("EndM", 3)
    page = benchmark(lambda: PresentationPage(pres, bench.window).runs(_E3_STEP))
    assert page


def test_matched_page_runs(benchmark):
    bench = built_bench()
    pres, counts, odd = bench.presentation("EndM", 2), bench._alpha_free_endm(), bench._d2_odd_generators()
    assert benchmark(lambda: MatchedPage(pres, counts, odd).runs(_E3_STEP))


def test_homology_page_m3(benchmark):
    bench = built_bench()
    pres = bench.presentation("M", 3)
    assert benchmark(homology_page, pres, bench.window).degrees()


@pytest.mark.parametrize("name", REPORTS)
def test_report(benchmark, name):
    def setup():
        bench = built_bench()
        if name in ("verify_e4_claims", "verify_e4_dimensions"):
            bench.verify_w_grading()  # the w lists, as verify's order builds them
        return (bench,), {}

    report = benchmark.pedantic(lambda bench: getattr(bench, name)(), setup=setup, rounds=10)
    assert report.ok and report.checked
