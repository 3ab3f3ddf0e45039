"""Which report catches which wrong wired value.

Each mutant zeroes one wired differential (or breaks the w grading) and runs
`verify --t-max 32` through the CLI.  Every mutant must make verify exit 1
with its report written, and the reports that fail must be exactly the ones
listed.  The d3 values on x(n) are conjecture: verify checks their
consequences, and this table says which consequence pins each value.
Run with -s to print the table.
"""
import contextlib
import io
import json

from moorev1.cli import run
from moorev1.dga import PagePresentation
from moorev1.gf2poly import Polynomial
from moorev1.specseq import Workbench

_build_presentation = Workbench._build_presentation
_w_degree = Workbench.w_degree


def zeroed(tag, r, name):
    """Workbench._build_presentation with d(name) := 0 on (tag, r)."""

    def build(bench, tag_, r_):
        pres = _build_presentation(bench, tag_, r_)
        if (tag_, r_) != (tag, r):
            return pres
        diffs = {**pres.differentials, name: Polynomial.zero(pres.alphabet)}
        return PagePresentation(
            pres.alphabet,
            pres.degree_shift,
            diffs,
            relations=pres.relations,
            name=pres.name,
            conditional=pres.conditional,
        )

    return "_build_presentation", build


def w_degree_plus_h21(bench, mono):
    """One extra w on every h(2,1) factor."""
    hi = bench.alphabet("M", 2).index("h(2,1)")
    return _w_degree(bench, mono) + sum(e for g, e in mono if g == hi)


# mutant -> (the Workbench attribute it replaces, the replacement), and the
# reports that catch it
MUTANTS = {
    "d3(x(2)) := 0": (zeroed("EndM", 3, "x(2)"), {"e4-claims", "e4-closed-form", "survival"}),
    "d3(x(3)) := 0": (zeroed("EndM", 3, "x(3)"), {"e4-claims", "e4-closed-form", "survival"}),
    "d3(v1^2) := 0": (zeroed("EndM", 3, "v1"), {"e4-claims", "e4-closed-form"}),
    "d2(v1) := 0": (zeroed("EndM", 2, "v1"), {"e3-presentation"}),
    "d2(h(2,1)) := 0": (zeroed("EndM", 2, "h(2,1)"), {"e3-presentation"}),
    "d2(h(3,1)) := 0": (zeroed("EndM", 2, "h(3,1)"), {"e3-presentation", "survival"}),
    "w += #h(2,1)": (("w_degree", w_degree_plus_h21), {"w-grading", "e4-claims"}),
}


def test_every_mutant_fails_verify_in_the_listed_reports(tmp_path, monkeypatch):
    got, expected = {}, {}
    for label, ((attr, replacement), caught_by) in MUTANTS.items():
        out = tmp_path / str(len(got))
        with monkeypatch.context() as m, contextlib.redirect_stdout(io.StringIO()):
            m.setattr(Workbench, attr, replacement)
            code = run(["verify", "--t-max", "32", "--no-cache", "--out", str(out)])
        report = out / "verify-report.json"
        failed = "no report"
        if report.exists():
            failed = ", ".join(sorted(r["name"] for r in json.loads(report.read_text())["reports"] if not r["ok"]))
        got[label] = (code, failed)
        expected[label] = (1, ", ".join(sorted(caught_by)))
    width = max(map(len, got))
    print()
    for label, (code, failed) in got.items():
        print(f"{label:<{width}}  exit {code}  {failed}")
    assert got == expected
