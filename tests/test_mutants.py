"""Which report catches which wrong wired value.

Each mutant zeroes one wired differential, breaks the w grading, or breaks
one entry of the lift or projection table between the EndM and M pages, and
runs `verify --t-max 32` through the CLI.  Every mutant must make verify exit 1
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
from moorev1.gf2poly import Polynomial, default_window
from moorev1.specseq import Workbench
from oracles import induced_d3_by_lift, merged_terms

_build_presentation = Workbench._build_presentation
_w_degree = Workbench.w_degree
_TABLES = {"_projection_rules": Workbench._projection_rules, "_m_roles": Workbench._m_roles}


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


def edited(attr, edit):
    """The Workbench table method attr with edit(bench, table) applied to
    the table it returns.  Each edit is an assignment, so applying it again
    at every call changes nothing."""

    def table(bench):
        rows = _TABLES[attr](bench)
        edit(bench, rows)
        return rows

    return attr, table


def _endm(bench, name):
    return bench.alphabet("EndM", 3).index(name)


def _m(bench, name):
    return bench.alphabet("M", 2).index(name)


def x1_weight_0(bench, rules):
    """p(x(1)) = h(2,1) instead of v1*h(2,1)."""
    rules[_endm(bench, "x(1)")] = (0, _m(bench, "h(2,1)"))


def x2_to_h21(bench, rules):
    """p(x(2)) = v1*h(2,1) instead of v1*h(3,1)."""
    rules[_endm(bench, "x(2)")] = (1, _m(bench, "h(2,1)"))


def x1_killed(bench, rules):
    """p kills x(1) like a torsion class."""
    rules[_endm(bench, "x(1)")] = None


def h21_unshifted(bench, roles):
    """h(2,1) lifts to x(1) instead of v1^-1*x(1)."""
    roles[_m(bench, "h(2,1)")] = (1, _endm(bench, "x(1)"))


def h31_to_x1(bench, roles):
    """h(3,1) lifts to v1^-1*x(1) instead of v1^-1*x(2)."""
    roles[_m(bench, "h(3,1)")] = (3, _endm(bench, "x(1)"))


# a broken table breaks the lift/projection round trip, which the M r=3 d²
# proof checks; where it also makes the induced d3 leave the M basis, the
# page-4 build refuses it and every report reading that page fails with the
# refusal
_TABLE_CAUGHT = {"d-squared:M r=3", "w-grading", "e4-claims", "e4-closed-form"}

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
    "p(x(1)) := h(2,1)": (edited("_projection_rules", x1_weight_0), _TABLE_CAUGHT),
    "p(x(2)) := v1*h(2,1)": (edited("_projection_rules", x2_to_h21), _TABLE_CAUGHT),
    "p(x(1)) := 0": (edited("_projection_rules", x1_killed), {"d-squared:M r=3", "e4-claims", "e4-closed-form"}),
    "l(h(2,1)) := x(1)": (edited("_m_roles", h21_unshifted), _TABLE_CAUGHT),
    "l(h(3,1)) := v1^-1*x(1)": (edited("_m_roles", h31_to_x1), _TABLE_CAUGHT),
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


def test_induced_d3m_transport_matches_the_lift_definition_under_every_mutant(monkeypatch):
    """Workbench.induced_d3m_monomial against lift -> Leibniz apply ->
    projection under each mutant that changes a differential or a table,
    on every M basis monomial.  The definition's terms are merged first:
    under p(x(2)) := v1*h(2,1) and l(h(3,1)) := v1^-1*x(1), two EndM
    generators project to h(2,1), and the definition emits tuples that
    repeat its index, such as ((2, 1), (2, 2)), where the transport merges
    the exponents."""
    repeated = set()
    for label, ((attr, replacement), _) in MUTANTS.items():
        if attr == "w_degree":
            continue
        with monkeypatch.context() as patch:
            patch.setattr(Workbench, attr, replacement)
            bench = Workbench(default_window(24, 6, -7, 9))
            basis = bench.presentation("M", 3).basis(bench.window)
            for mono in (m for d in basis.degrees() for m in basis.basis(d)):
                want = induced_d3_by_lift(bench, mono)
                if any(len({gi for gi, _ in t}) < len(t) for t in want):
                    repeated.add(label)
                assert bench.induced_d3m_monomial(mono).terms == merged_terms(want), (label, mono)
    assert repeated == {"p(x(2)) := v1*h(2,1)", "l(h(3,1)) := v1^-1*x(1)"}
