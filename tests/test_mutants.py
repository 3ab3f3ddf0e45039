"""Which report catches which wrong wired value.

Each mutant zeroes one wired differential, gives one a wrong term of the
same degree, drops one relation, breaks the w grading, breaks one entry of
the lift or projection table between the EndM and M pages, loosens the
window trust rule, or breaks the coassociativity of the endomorphism
comodule, and runs `verify --t-max 32` through the CLI.  Every mutant must
make verify exit 1 with its report written, and the reports that fail must
be exactly the ones listed.  The d3 values on x(n) are conjecture: verify
checks their consequences, and this table says which consequence pins each
value.  Run with -s to print the table.
"""
import contextlib
import io
import json

import pytest

import moorev1.cli as cli
import moorev1.specseq as specseq
from moorev1.cli import run
from moorev1.dga import PagePresentation, PageRefusedError
from moorev1.gf2poly import Polynomial, _WindowTrust, default_window
from moorev1.specseq import InducedD3Presentation, Workbench
from oracles import induced_d3_by_lift
from test_cobar import non_coassociative_comodule
from test_specseq import reference_w_grading_rows

_build_presentation = Workbench._build_presentation
_w_degree = Workbench.w_degree
_TABLES = {"_projection_rules": Workbench._projection_rules, "_m_roles": Workbench._m_roles}


def rebuilt(tag, r, edit):
    """Workbench._build_presentation with the differentials and relations
    of (tag, r) passed through edit(alphabet, diffs, relations)."""

    def build(bench, tag_, r_):
        pres = _build_presentation(bench, tag_, r_)
        if (tag_, r_) != (tag, r):
            return pres
        diffs, relations = edit(pres.alphabet, pres.differentials, pres.relations)
        return PagePresentation(
            pres.alphabet,
            pres.degree_shift,
            diffs,
            relations=relations,
            name=pres.name,
            conditional=pres.conditional,
        )

    return Workbench, "_build_presentation", build


def zeroed(tag, r, name):
    """d(name) := 0 on (tag, r)."""
    return rebuilt(tag, r, lambda a, diffs, rels: ({**diffs, name: Polynomial.zero(a)}, rels))


def plus(tag, r, name, text):
    """d(name) += text on (tag, r), a term of the same degree; no change
    where the window's alphabet lacks name."""

    def edit(a, diffs, rels):
        if name not in diffs:
            return diffs, rels
        return {**diffs, name: diffs[name] + Polynomial.parse(a, text)}, rels

    return rebuilt(tag, r, edit)


def dropped(tag, r, text):
    """The relation text removed from (tag, r)."""

    def edit(a, diffs, rels):
        (mono,) = Polynomial.parse(a, text).terms
        assert mono in rels
        return diffs, [rel for rel in rels if rel != mono]

    return rebuilt(tag, r, edit)


def w_degree_plus_h21(bench, mono, walk=None):
    """One extra w on every h(2,1) factor."""
    hi = bench.alphabet("M", 2).index("h(2,1)")
    return _w_degree(bench, mono, walk) + sum(e for g, e in mono if g == hi)


def edited(attr, edit):
    """The Workbench table method attr with edit(bench, table) applied to
    the table it returns.  Each edit is an assignment, so applying it again
    at every call changes nothing."""

    def table(bench):
        rows = _TABLES[attr](bench)
        edit(bench, rows)
        return rows

    return Workbench, attr, table


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


_in_box = _WindowTrust._in_box


def in_box_one_past_s_max(trust, s, t, u):
    """_in_box with the s range one longer at the top."""
    return _in_box(trust, s - (s == trust.window.s_range[1] + 1), t, u)


def complete_at_d_only(trust, d, shift):
    """complete_around that tests d alone, not its neighbours d +- shift."""
    return trust.complete(d)


_trust_init = _WindowTrust.__init__


def trust_without_clipping(trust, window, truncated, alphabet):
    """A window trust that forgets the degrees the v1 range clips, so both
    complete and complete_around trust them."""
    _trust_init(trust, window, set(), alphabet)


def v1_period_times(k):
    """PagePresentation.v1_period as k * stride of v1 (2 is the true one)."""
    return property(lambda pres: pres.alphabet.v1 and k * pres.alphabet.v1.stride)


# a broken table breaks the lift/projection round trip, which the M r=3 d²
# proof checks and the d3 transport needs, so the page-4 build refuses it and
# every report reading that page fails with the refusal
_TABLE_CAUGHT = {"d-squared:M r=3", "w-grading", "e4-claims", "e4-closed-form"}
_TRUST_CAUGHT = {"w-grading", "e4-claims", "e4-closed-form", "survival"}
# a wrong d3 term of degree at most 32 breaks d3² on EndM and on M, the w
# grading and the slice claims
_D3_TERM_CAUGHT = {"d-squared:EndM r=3", "d-squared:M r=3", "w-grading", "e4-claims", "e4-closed-form"}

# mutant -> ((the object patched, its attribute, the replacement), the
# reports that catch it)
MUTANTS = {
    "d3(x(2)) := 0": (zeroed("EndM", 3, "x(2)"), {"e4-claims", "e4-closed-form", "survival"}),
    "d3(x(3)) := 0": (zeroed("EndM", 3, "x(3)"), {"e4-claims", "e4-closed-form", "survival"}),
    "d3(v1^2) := 0": (zeroed("EndM", 3, "v1"), {"e4-claims", "e4-closed-form"}),
    "d2(v1) := 0": (zeroed("EndM", 2, "v1"), {"e3-presentation"}),
    "d2(h(2,1)) := 0": (zeroed("EndM", 2, "h(2,1)"), {"e3-presentation"}),
    "d2(h(3,1)) := 0": (zeroed("EndM", 2, "h(3,1)"), {"e3-presentation", "survival"}),
    # the wrong terms: each wired differential that has another monomial of
    # its degree at t_max 32, outside the relations, gets it added (there is
    # one each).  d2(h(1,1)) is then mu*h(1,1), still a matching; d2(h(n,1))
    # with n >= 3 is not, so page 3 of EndM refuses it.  The added d3 terms
    # of h(1,1) and x(n) transport to v1^-2*h(1,1)^3, v1's own ratio, so in
    # M's d3 the two cancel on monomials odd in both generators.
    "d2(h(1,1)) += v1^-1*alpha*h(1,1)^3": (
        plus("EndM", 2, "h(1,1)", "v1^-1*alpha*h(1,1)^3"),
        {"e3-presentation"},
    ),
    "d2(h(3,1)) += v1^-1*alpha*h(2,1)^3": (
        plus("EndM", 2, "h(3,1)", "v1^-1*alpha*h(2,1)^3"),
        {"e3-presentation", "survival"},
    ),
    "d2(h(4,1)) += v1^-1*alpha*h(2,1)*h(3,1)^2": (
        plus("EndM", 2, "h(4,1)", "v1^-1*alpha*h(2,1)*h(3,1)^2"),
        {"e3-presentation", "survival"},
    ),
    "d2(h(5,1)) += v1^-1*alpha*h(2,1)*h(4,1)^2": (
        plus("EndM", 2, "h(5,1)", "v1^-1*alpha*h(2,1)*h(4,1)^2"),
        {"e3-presentation", "survival"},
    ),
    "d3(alphap) += v1^-2*alphap*h(1,1)^3": (plus("EndM", 3, "alphap", "v1^-2*alphap*h(1,1)^3"), {"survival"}),
    "d3(h(1,1)) += v1^-2*h(1,1)^4": (plus("EndM", 3, "h(1,1)", "v1^-2*h(1,1)^4"), _D3_TERM_CAUGHT | {"survival"}),
    "d3(x(1)) += v1^-2*h(1,1)^3*x(1)": (
        plus("EndM", 3, "x(1)", "v1^-2*h(1,1)^3*x(1)"),
        _D3_TERM_CAUGHT | {"survival"},
    ),
    "d3(x(2)) += v1^-2*h(1,1)^3*x(2)": (plus("EndM", 3, "x(2)", "v1^-2*h(1,1)^3*x(2)"), _D3_TERM_CAUGHT),
    "d3(x(3)) += v1^-2*h(1,1)^3*x(3)": (plus("EndM", 3, "x(3)", "v1^-2*h(1,1)^3*x(3)"), _D3_TERM_CAUGHT),
    "d3(x(4)) += v1^-2*h(1,1)^3*x(4)": (
        plus("EndM", 3, "x(4)", "v1^-2*h(1,1)^3*x(4)"),
        {"d-squared:EndM r=3", "d-squared:M r=3", "w-grading"},
    ),
    "drop alpha*h(1,1)^2": (dropped("EndM", 3, "alpha*h(1,1)^2"), {"e3-presentation"}),
    "drop alpha*alphap": (dropped("EndM", 3, "alpha*alphap"), {"e3-presentation"}),
    "w += #h(2,1)": ((Workbench, "w_degree", w_degree_plus_h21), {"w-grading", "e4-claims"}),
    "p(x(1)) := h(2,1)": (edited("_projection_rules", x1_weight_0), _TABLE_CAUGHT),
    "p(x(2)) := v1*h(2,1)": (edited("_projection_rules", x2_to_h21), _TABLE_CAUGHT),
    "p(x(1)) := 0": (edited("_projection_rules", x1_killed), _TABLE_CAUGHT),
    "l(h(2,1)) := x(1)": (edited("_m_roles", h21_unshifted), _TABLE_CAUGHT),
    "l(h(3,1)) := v1^-1*x(1)": (edited("_m_roles", h31_to_x1), _TABLE_CAUGHT),
    "trust s = s_max + 1": ((_WindowTrust, "_in_box", in_box_one_past_s_max), _TRUST_CAUGHT),
    "trust d without d +- shift": ((_WindowTrust, "complete_around", complete_at_d_only), _TRUST_CAUGHT),
    "trust ignores v1 clipping": ((_WindowTrust, "__init__", trust_without_clipping), {"e3-presentation"}),
    # page 4 shares a matrix between degrees one v1^period apart; a period
    # d does not commute with puts wrong matrices on M's page 4 (through
    # EndM's period too), which refuses its d∘d
    "InducedD3Presentation.v1_period := 2": (
        (InducedD3Presentation, "v1_period", property(lambda pres: 2)),
        {"w-grading", "e4-claims", "e4-closed-form"},
    ),
    "PagePresentation.v1_period := stride": (
        (PagePresentation, "v1_period", v1_period_times(1)),
        {"w-grading", "e4-claims", "e4-closed-form"},
    ),
    "psi(gamma) += xi1*alpha*gamma": (
        (cli, "endomorphism_comodule", non_coassociative_comodule),
        {"d-squared:cobar", "cobar-identity"},
    ),
}
TABLE_MUTANTS = [label for label, ((_, attr, _), _) in MUTANTS.items() if attr in _TABLES]


def verify_under(monkeypatch, mutant, out, *patches):
    """verify --t-max 32 under one mutant (and any further (target, attr,
    replacement) patches), its stdout dropped: the exit code."""
    with monkeypatch.context() as m, contextlib.redirect_stdout(io.StringIO()):
        for target, attr, replacement in (mutant, *patches):
            m.setattr(target, attr, replacement)
        return run(["verify", "--t-max", "32", "--no-cache", "--out", str(out)])


def test_every_mutant_fails_verify_in_the_listed_reports(tmp_path, monkeypatch):
    got, expected = {}, {}
    for label, (mutant, caught_by) in MUTANTS.items():
        out = tmp_path / str(len(got))
        code = verify_under(monkeypatch, mutant, out)
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


def test_a_multiple_of_the_v1_period_changes_no_report(tmp_path, monkeypatch):
    """Period 8, a multiple of the true 4, shares fewer matrices, all of
    them equal: verify writes the same report bytes."""
    clean, eight = tmp_path / "clean", tmp_path / "eight"
    assert verify_under(monkeypatch, (PagePresentation, "v1_period", PagePresentation.v1_period), clean) == 0
    assert verify_under(monkeypatch, (PagePresentation, "v1_period", v1_period_times(4)), eight) == 0
    assert (eight / "verify-report.json").read_bytes() == (clean / "verify-report.json").read_bytes()
    with monkeypatch.context() as m:
        m.setattr(PagePresentation, "v1_period", v1_period_times(4))
        bench = Workbench(default_window(32))
        assert bench.presentation("M", 3).v1_period == 8
        for tag in ("EndM", "M"):
            matrices = bench.page(tag, 4)._matrices
            assert len({id(rows) for rows in matrices.values()}) < len(matrices), tag


def test_induced_d3m_transport_matches_the_lift_definition_under_every_mutant(monkeypatch):
    """Workbench.induced_d3m_monomial against lift -> Leibniz apply ->
    projection, on every M basis monomial, under each mutant that changes a
    differential, a relation or a table.  A table mutant breaks the round
    trip the transport rests on, so the transport refuses it; what it does
    return before refusing (the monomials with no odd generator, whose d3
    is 0) is still the definition's."""
    refused = set()
    for label, ((target, attr, replacement), _) in MUTANTS.items():
        if target is not Workbench or attr == "w_degree":
            continue
        with monkeypatch.context() as patch:
            patch.setattr(target, attr, replacement)
            bench = Workbench(default_window(24, 6, -7, 9))
            basis = bench.presentation("M", 3).basis(bench.window)
            for mono in (m for d in basis.degrees() for m in basis.basis(d)):
                try:
                    got = bench.induced_d3m_monomial(mono)
                except PageRefusedError as exc:
                    assert str(exc).startswith("two-cell r=3: p(l("), (label, exc)
                    refused.add(label)
                    continue
                assert got.terms == induced_d3_by_lift(bench, mono), (label, mono)
    assert sorted(refused) == sorted(TABLE_MUTANTS)


def test_a_refused_m_page_stops_at_its_first_transported_ratio(tmp_path, monkeypatch):
    """Under each table mutant, every build of M's page 4 refuses at the
    first transported ratio: induced_d3m_monomial runs at most once per
    homology_page call on that page."""
    real_homology, real_induced = specseq.homology_page, Workbench.induced_d3m_monomial
    for i, label in enumerate(TABLE_MUTANTS):
        builds = calls = 0

        def homology_page(pres, window):
            nonlocal builds
            builds += pres.name == "two-cell r=3"
            return real_homology(pres, window)

        def induced_d3m_monomial(bench, mono):
            nonlocal calls
            calls += 1
            return real_induced(bench, mono)

        code = verify_under(
            monkeypatch,
            MUTANTS[label][0],
            tmp_path / str(i),
            (specseq, "homology_page", homology_page),
            (Workbench, "induced_d3m_monomial", induced_d3m_monomial),
        )
        assert code == 1 and builds and calls <= builds, (label, builds, calls)


def test_w_grading_rows_match_symbolic_reference_under_every_mutant(monkeypatch):
    """verify_w_grading reads one image per key (j mod 4, odd set), and
    reference_w_grading_rows computes the image of every monomial.  Under
    each mutant they give the same rows wherever page 4 of M builds; where
    it refuses, the report refuses with the same message."""
    refused, mismatched = set(), set()
    for label, ((target, attr, replacement), _) in MUTANTS.items():
        with monkeypatch.context() as patch:
            patch.setattr(target, attr, replacement)
            bench = Workbench(default_window(24, 6, -7, 9))
            try:
                bench.page("M", 4)
            except PageRefusedError as exc:
                with pytest.raises(PageRefusedError) as again:
                    bench.verify_w_grading()
                assert str(again.value) == str(exc), label
                refused.add(label)
                continue
            rows = bench.verify_w_grading().rows
            assert rows == reference_w_grading_rows(bench), label
            if any(r.status == "mismatch" for r in rows):
                mismatched.add(label)
    assert set(TABLE_MUTANTS) < refused
    assert "w += #h(2,1)" in mismatched


def test_decompose_reads_no_refusal_above_its_box(tmp_path, monkeypatch):
    """decompose builds page 4 of M over the decomposition box only.  Under
    d3(x(4)) += v1^-2*h(1,1)^3*x(4), d∘d is nonzero only at degrees above
    that box (x(4) sits at t = 64): the whole page refuses the mutant, and
    so does verify (the table above), but decompose --t-max 64 exits 0 and
    writes the unmutated report.  It exited 2 while it built the whole
    page."""
    mutant = MUTANTS["d3(x(4)) += v1^-2*h(1,1)^3*x(4)"][0]
    args = ["decompose", "--format", "tsv", "--t-max", "64", "--no-cache", "--out"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([*args, str(tmp_path / "clean")]) == 0
        with monkeypatch.context() as m:
            m.setattr(*mutant)
            assert run([*args, str(tmp_path / "mutant")]) == 0
            with pytest.raises(PageRefusedError, match="d squared is nonzero"):
                Workbench(default_window(64)).page("M", 4)
    for name in ("decomposition.tsv", "decomposition.json"):
        assert (tmp_path / "mutant" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()
