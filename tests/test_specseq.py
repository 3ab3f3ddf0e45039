import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moorev1.cli as cli
import moorev1.dga as dga
import moorev1.specseq as specseq
from moorev1.dga import (
    ComputedPage,
    PagePresentation,
    PresentationPage,
    UntrustedDegreeError,
    homology_page,
    verify_d_squared,
)
from moorev1.gf2linalg import kernel_basis, rank
from moorev1.gf2poly import (
    GF2PolyError,
    Multidegree,
    Polynomial,
    TruncationWindow,
    default_window,
)
from moorev1.specseq import (
    D3_SHIFT,
    CheckRow,
    InducedD3Presentation,
    MatchedPage,
    Report,
    Workbench,
    _cell_exact,
    _parts_sum,
    adams_bidegree,
    check_row,
    low_w_monomial_possible,
    pattern_stems,
    w_of_v1_exponent,
)
from oracles import (
    act,
    bo_pattern_dim,
    bu_pattern_dim,
    cell_covered_by_box,
    cell_rhs_over_every_p,
    e3_endm_by_ranks,
    e3_presentation_rows_every_degree,
    e4_claim_rows_every_degree,
    e4_closed_form_rows_every_degree,
    homology_matrices_every_degree,
    induced_d3_by_lift,
    induced_d3m,
    low_w_by_enumeration,
    low_w_by_search,
    module_isomorphism_rows_every_degree,
    parts_sum_by_search,
    project_to_m,
    w_grading_rows_every_degree,
)


@pytest.fixture(scope="module")
def wb():
    return Workbench(default_window(40, 8, -8, 8))


def parse(wb, tag, r, text):
    return Polynomial.parse(wb.alphabet(tag, r), text)


# ---- alphabets and construction ----


def test_alphabets_per_tag(wb):
    assert wb.alphabet("M", 2).names() == ("v1", "h(1,1)", "h(2,1)", "h(3,1)", "h(4,1)")
    assert wb.alphabet("S", 2).names()[:3] == ("v1", "h(1,0)", "h(1,1)")
    assert "alpha" in wb.alphabet("EndM", 2).names()
    a3 = wb.alphabet("EndM", 3)
    assert a3.generator("v1").stride == 2
    assert "alphap" in a3.names()
    assert "x(1)" in a3.names()


def test_x_truncation_tracks_h_truncation(wb):
    # every h(n,1) of the M alphabet can be rewritten through x(n-1)
    n_max = max(int(n[2 : n.index(",")]) for n in wb.alphabet("M", 2).names() if n.startswith("h("))
    assert f"x({n_max - 1})" in wb.alphabet("EndM", 3).names()


def test_build_page_kinds(wb):
    assert isinstance(wb.page("S", 2), PresentationPage)
    assert isinstance(wb.page("M", 2), PresentationPage)
    assert isinstance(wb.page("M", 3), PresentationPage)
    assert isinstance(wb.page("EndM", 2), PresentationPage)
    assert isinstance(wb.page("EndM", 3), MatchedPage)
    assert isinstance(wb.page("EndM", 4), ComputedPage)
    assert isinstance(wb.page("M", 4), ComputedPage)
    # d2 vanishes on M: its page 3 is its page 2, presented with the induced d3
    assert wb.page("M", 3) is wb.page("M", 2)
    assert not wb.page("M", 3).conditional
    pres = wb.presentation("M", 3)
    assert isinstance(pres, InducedD3Presentation) and pres.conditional
    assert wb.page("M", 4).presentation is pres and wb.page("M", 4).conditional


def test_unsupported_pages(wb):
    with pytest.raises(GF2PolyError):
        wb.page("S", 3)
    with pytest.raises(GF2PolyError):
        wb.page("M", 5)
    with pytest.raises(GF2PolyError):
        wb.page("X", 2)


def test_build_page_one_shot():
    page = Workbench(default_window(20, 6, -4, 4)).page("EndM", 2)
    assert page.dim(Multidegree(0, -1, 0)) == 1


@pytest.mark.parametrize(
    "window, tags",
    [
        (default_window(), ("EndM", "M")),
        (default_window(128), ("EndM",)),
        (default_window(v1_min=-3, v1_max=2), ("EndM", "M")),
        (default_window(v1_min=-5, v1_max=9), ("EndM", "M")),
    ],
)
def test_page4_matrices_match_the_ones_built_at_every_degree(window, tags):
    """Page 4 builds one matrix of d3 per v1-orbit and shares it with the
    orbit's translated degrees; the oracle builds each at its own degree.
    Every matrix, every trusted degree and its dimensions agree."""
    bench = Workbench(window)
    for tag in tags:
        page = bench.page(tag, 4)
        matrices, dims = homology_matrices_every_degree(bench.presentation(tag, 3), window)
        assert sorted(page._matrices) == sorted(matrices), tag
        for c, rows in matrices.items():
            assert page.matrix(c) == rows, (tag, c)
        assert page.degrees() == sorted(dims), tag
        for d, got in dims.items():
            assert page.dims_at(d) == got, (tag, d)


def test_page4_of_endm_shares_its_matrices_along_v1_orbits():
    """On the default window page 4 of EndM holds 4,565 matrix degrees and
    996 distinct matrix lists: one per v1^4-orbit of degrees."""
    page = Workbench(default_window()).page("EndM", 4)
    assert len(page._matrices) == 4565
    assert len({id(rows) for rows in page._matrices.values()}) == 996


def test_page4_of_endm_builds_a_basis_only_where_a_matrix_reads_it():
    """Page 4 of EndM on the default window builds the basis of a degree
    only at the source and the target of a matrix it builds, none where it
    shares a matrix along a v1-orbit: 2,822 of the 10,079 E3(EndM)
    monomials, at 1,210 of 5,379 degrees.  Building every basis, or a
    basis before the sharing test, fails here."""
    bench = Workbench(default_window())
    page = bench.page("EndM", 4)
    wb = bench.presentation("EndM", 3).basis(bench.window)
    shift = page.presentation.degree_shift
    first = {}  # id of a matrix list -> the degree that built it, the first to hold it
    for c, rows in page._matrices.items():
        first.setdefault(id(rows), c)
    assert set(wb._built) == {d for c in first.values() for d in (c, c + shift) if wb.size(d)}
    assert (len(wb._built), len(wb.degrees())) == (1210, 5379)
    assert sum(map(len, wb._built.values())) == 2822
    assert sum(map(wb.size, wb.degrees())) == 10079


# ---- frozen page dimensions ----


def test_page_dimensions(wb):
    assert wb.page("EndM", 2).dim(Multidegree(0, -1, 0)) == 1
    e3 = wb.page("EndM", 3)
    assert e3.dim(Multidegree(2, 3, 0)) == 0
    assert e3.dim(Multidegree(1, 3, 1)) == 1
    assert e3.dim(Multidegree(0, 0, 0)) == 1
    e4m = wb.page("M", 4)
    assert e4m.dim(Multidegree(3, 6, 0)) == 0
    assert e4m.dim(Multidegree(1, 8, 1)) == 1


def test_sphere_page_quotient_dims(wb):
    # killing h(1,0) in the sphere basis recovers the M dimensions
    sphere = wb.page("S", 2)
    d = Multidegree(2, 8, 1)
    hi = wb.alphabet("S", 2).index("h(1,0)")
    reduced = [m for m in sphere.basis(d) if all(gi != hi for gi, _ in m)]
    assert len(reduced) == wb.page("M", 2).dim(d)


# ---- module structure ----


def test_act_examples(wb):
    one_m = Polynomial.one(wb.alphabet("M", 2))
    assert act(wb, 2, parse(wb, "EndM", 2, "alpha"), one_m).is_zero()
    assert str(act(wb, 3, parse(wb, "EndM", 3, "x(1)"), parse(wb, "M", 2, "v1"))) == "v1^2*h(2,1)"
    assert str(act(wb, 2, parse(wb, "EndM", 2, "v1*h(1,1)"), one_m)) == "v1*h(1,1)"


def test_project_to_m(wb):
    assert str(project_to_m(wb, 3, parse(wb, "EndM", 3, "x(2)"))) == "v1*h(3,1)"
    assert project_to_m(wb, 3, parse(wb, "EndM", 3, "alphap*h(1,1)")).is_zero()
    got = project_to_m(wb, 3, parse(wb, "EndM", 3, "v1^-4*h(1,1)*x(1)*x(2)^2"))
    assert str(got) == "v1^-1*h(1,1)*h(2,1)*h(3,1)^2"


def reference_project_to_m(wb, r, e):
    """The EndM -> M quotient as a product of generator images, the
    definition Workbench._project_terms must agree with."""
    src = wb.alphabet("EndM", r)
    dst = wb.alphabet("M", 2)
    out = Polynomial.zero(dst)
    for mono in e.terms:
        term = Polynomial.one(dst)
        for gi, exp in mono:
            name = src[gi].name
            if name in ("alpha", "alphap"):
                term = Polynomial.zero(dst)
                break
            if name.startswith("x("):
                n = int(name[2:-1])
                term = term * Polynomial.gen(dst, "v1", exp) * Polynomial.gen(dst, f"h({n + 1},1)", exp)
            else:
                term = term * Polynomial.gen(dst, name, exp)
        out = out + term
    return out


@pytest.mark.parametrize("r", [2, 3])
def test_project_to_m_matches_product_definition(r):
    bench = Workbench(default_window(24))
    a = bench.alphabet("EndM", r)
    basis = bench.presentation("EndM", r).basis(bench.window)
    monos = [m for d in basis.degrees() for m in basis.basis(d)]
    for mono in monos:
        e = Polynomial.monomial(a, mono)
        assert project_to_m(bench, r, e) == reference_project_to_m(bench, r, e), mono
    # sums of overlapping pieces: the shared terms cancel before projecting
    rng = random.Random(5)
    for _ in range(300):
        shared = rng.sample(monos, 3)
        p = Polynomial(a, shared + rng.sample(monos, 4))
        q = Polynomial(a, shared + rng.sample(monos, 4))
        got = project_to_m(bench, r, p + q)
        assert got == reference_project_to_m(bench, r, p + q)
        assert got == project_to_m(bench, r, p) + project_to_m(bench, r, q)


def test_project_to_m_missing_target_raises():
    # this window keeps x(2) on the EndM page but h(3,1) off the M page
    bench = Workbench(default_window(8, 12, -1, 1))
    a3 = bench.alphabet("EndM", 3)
    assert "h(3,1)" not in bench.alphabet("M", 2).names()
    for proj in (project_to_m, reference_project_to_m):
        with pytest.raises(GF2PolyError, match=r"h\(3,1\)"):
            proj(bench, 3, Polynomial.parse(a3, "x(2)"))
        # a torsion factor kills the term before its x(2) is looked at
        assert proj(bench, 3, Polynomial.parse(a3, "alpha*x(2)")).is_zero()


def test_action_compatible_with_d2(wb):
    # d2(e*m) = d2(e)*m + e*d2(m): every piece vanishes on the M page
    # because d2(e) is always divisible by the torsion generator
    rng = random.Random(11)
    pres2 = wb.presentation("EndM", 2)
    pres_m2 = wb.presentation("M", 2)
    endm_page = wb.page("EndM", 2)
    m_page = wb.page("M", 2)
    endm_degrees = [d for d in endm_page.degrees() if endm_page.basis(d)]
    m_degrees = [d for d in m_page.degrees() if m_page.basis(d)]
    a_m = wb.alphabet("M", 2)
    for _ in range(40):
        e_mono = rng.choice(endm_page.basis(rng.choice(endm_degrees)))
        m_mono = rng.choice(m_page.basis(rng.choice(m_degrees)))
        e = Polynomial.monomial(pres2.alphabet, e_mono)
        m = Polynomial.monomial(a_m, m_mono)
        product = act(wb, 2, e, m)
        assert pres_m2.apply(product).is_zero()
        assert act(wb, 2, pres2.apply(e), m).is_zero()
        assert (product * pres_m2.apply(m)).is_zero()


# ---- the induced differential ----


def test_induced_d3m_values(wb):
    cases = [
        ("v1^2", "h(1,1)^3"),
        ("v1^4", "0"),
        ("v1", "0"),
        ("h(1,1)", "0"),
        ("h(2,1)", "v1^-2*h(1,1)^3*h(2,1)"),
        ("h(3,1)", "v1^-2*h(1,1)^3*h(3,1) + v1^-2*h(1,1)*h(2,1)^3"),
        ("h(4,1)", "v1^-2*h(1,1)^3*h(4,1) + v1^-2*h(1,1)*h(2,1)*h(3,1)^2"),
        ("v1*h(3,1)", "v1^-1*h(1,1)*h(2,1)^3"),
    ]
    a_m = wb.alphabet("M", 2)
    for text, want in cases:
        got = induced_d3m(wb, Polynomial.parse(a_m, text))
        assert got == Polynomial.parse(a_m, want), text


def m_basis_monomials(bench):
    basis = bench.presentation("M", 3).basis(bench.window)
    return [m for d in basis.degrees() for m in basis.basis(d)]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(4, 32),
    st.integers(1, 6),
    st.integers(-9, -1),
    st.integers(0, 4).map(lambda k: 2 * k + 1),
)
def test_induced_d3m_transport_matches_the_lift_definition(t_max, s_max, v1_min, v1_max):
    """The transported generator values against lift -> Leibniz apply ->
    projection, on every M basis monomial of a small window whose v1
    bounds are negative or odd."""
    bench = Workbench(default_window(t_max, s_max, v1_min, v1_max))
    for mono in m_basis_monomials(bench):
        assert bench.induced_d3m_monomial(mono).terms == induced_d3_by_lift(bench, mono), mono


def test_induced_d3m_not_naive_leibniz(wb):
    # v1 is not a cycle lift: d3(v1*h(3,1)) differs from v1*d3(h(3,1))
    a_m = wb.alphabet("M", 2)
    v1 = Polynomial.parse(a_m, "v1")
    naive = v1 * induced_d3m(wb, Polynomial.parse(a_m, "h(3,1)"))
    actual = induced_d3m(wb, Polynomial.parse(a_m, "v1*h(3,1)"))
    assert naive != actual


def test_induced_d3m_squares_to_zero(wb):
    rng = random.Random(23)
    page = wb.page("M", 3)
    degrees = [d for d in page.degrees() if page.basis(d)]
    for _ in range(60):
        mono = rng.choice(page.basis(rng.choice(degrees)))
        once = wb.induced_d3m_monomial(mono)
        assert induced_d3m(wb, once).is_zero()


def test_induced_d3m_is_additive(wb):
    a_m = wb.alphabet("M", 2)
    p = Polynomial.parse(a_m, "h(2,1) + h(3,1)")
    want = induced_d3m(wb, Polynomial.parse(a_m, "h(2,1)")) + induced_d3m(
        wb, Polynomial.parse(a_m, "h(3,1)")
    )
    assert induced_d3m(wb, p) == want


# ---- w grading ----


def test_w_of_v1_exponent():
    assert [w_of_v1_exponent(i) for i in range(-4, 5)] == [0, 0, 2, 2, 0, 0, 2, 2, 0]
    # period 4: the w-sliced reports are decided once per orbit under v1^4
    for j in range(-20, 21):
        assert w_of_v1_exponent(j + 4) == w_of_v1_exponent(j), j


def test_w_degree_values(wb):
    a_m = wb.alphabet("M", 2)
    cases = [
        ("v1", 0),
        ("v1^2", 2),
        ("v1^-1", 2),
        ("h(1,1)", 1),
        ("h(2,1)", 2),
        ("v1*h(2,1)", 0),
        ("h(2,1)^2", 2),
        ("v1^-2*h(1,1)^3", 5),
        ("v1^2*h(1,1)*h(3,1)", 1),
    ]
    for text, want in cases:
        mono = Polynomial.parse(a_m, text).monomials_sorted()[0]
        assert wb.w_degree(mono) == want, text


def test_w_grading_report(wb):
    rep = wb.verify_w_grading()
    assert rep.ok
    assert len(rep.rows) > 500
    assert rep.conditional


# ---- verification reports ----


def test_d_squared_reports(wb):
    reps = wb.verify_differentials_square_to_zero()
    assert set(reps) == {"EndM r=2", "M r=2", "EndM r=3", "M r=3"}
    for rep in reps.values():
        assert rep.ok
        assert rep.checked > 100


def test_d_squared_proofs_build_no_m_basis(monkeypatch):
    """The M r=3 proof takes its count from the M r=2 report, which counts
    the M basis without enumerating it; the EndM r=3 proof counts its
    quotient by the relations, so the proofs enumerate no basis at all."""
    enumerated = []
    real_enumerate = dga.enumerate_window
    monkeypatch.setattr(dga, "enumerate_window", lambda a, w: enumerated.append(a) or real_enumerate(a, w))
    bench = Workbench(default_window(24, 6, -6, 6))
    reps = bench.verify_differentials_square_to_zero()
    assert enumerated == []
    assert reps["M r=3"].checked == reps["M r=2"].checked > 100


def d_squared_sweeps(bench):
    """The four d² reports by the per-monomial sweep, the oracle."""
    window = bench.window
    return {
        "EndM r=2": verify_d_squared(bench.presentation("EndM", 2), window),
        "M r=2": verify_d_squared(bench.presentation("M", 2), window),
        "EndM r=3": verify_d_squared(bench.presentation("EndM", 3), window),
        "M r=3": verify_d_squared(bench.presentation("M", 3), window),
    }


@pytest.mark.parametrize("t_max", [24, 32])
def test_d_squared_proofs_count_what_the_sweeps_count(t_max):
    bench = Workbench(default_window(t_max, 6, -8, 8))
    proofs = bench.verify_differentials_square_to_zero()
    sweeps = d_squared_sweeps(bench)
    assert set(proofs) == set(sweeps)
    for key, sweep in sweeps.items():
        assert sweep.ok and proofs[key].ok, key
        assert proofs[key].checked == sweep.checked > 100, key


def test_lift_and_projection_round_trip_on_the_m_basis():
    bench = Workbench(default_window(32, 8, -8, 8))
    basis = bench.presentation("M", 3).basis(bench.window)
    v1 = bench.alphabet("EndM", 3).v1_index
    checked = odd = 0
    for d in basis.degrees():
        for mono in basis.basis(d):
            lifted, eps = bench.lift_to_endm(mono)
            assert eps in (0, 1) and dict(lifted).get(v1, 0) % 2 == 0, mono
            assert bench._project_terms([lifted], eps) == {mono}, mono
            checked += 1
            odd += eps
    assert checked > 1000 and 0 < odd < checked


def _rule_x1_weight(bench):
    rules = bench._projection_rules()
    i = bench.alphabet("EndM", 3).index("x(1)")
    rules[i] = (0, rules[i][1])


def _rule_x2_to_h21(bench):
    rules = bench._projection_rules()
    rules[bench.alphabet("EndM", 3).index("x(2)")] = (1, bench.alphabet("M", 2).index("h(2,1)"))


def _role_h21_unshifted(bench):
    roles = bench._m_roles()
    i = bench.alphabet("M", 2).index("h(2,1)")
    roles[i] = (1, roles[i][1])


def _role_h31_to_x1(bench):
    roles = bench._m_roles()
    i = bench.alphabet("M", 2).index("h(3,1)")
    roles[i] = (roles[i][0], bench.alphabet("EndM", 3).index("x(1)"))


@pytest.mark.parametrize(
    "mutate", [_rule_x1_weight, _rule_x2_to_h21, _role_h21_unshifted, _role_h31_to_x1]
)
def test_m_r3_mutants_fail_proof_and_sweep(mutate):
    bench = Workbench(default_window(24, 6, -8, 8))
    mutate(bench)
    proof = bench.verify_differentials_square_to_zero()
    assert proof["EndM r=3"].ok and not proof["M r=3"].ok
    # the round trip the proof fails on is the transport's precondition
    with pytest.raises(dga.PageRefusedError, match=r"^two-cell r=3: p\(l\("):
        verify_d_squared(bench.presentation("M", 3), bench.window)


def test_m_r3_fails_with_endm_r3():
    bench = Workbench(default_window(24, 6, -8, 8))
    pres = bench.presentation("EndM", 3)
    # d(x(1)) = v1^2 gives d²(x(1)) = h(1,1)^3
    pres.differentials["x(1)"] = Polynomial.parse(pres.alphabet, "v1^2")
    pres._dval_cache.clear()
    proof = bench.verify_differentials_square_to_zero()
    assert not proof["EndM r=3"].ok
    assert proof["M r=3"].failures == proof["EndM r=3"].failures
    assert not d_squared_sweeps(bench)["M r=3"].ok


def test_m_r3_proof_refuses_a_projection_no_lift_inverts():
    # this window keeps x(2) on the EndM page but h(3,1) off the M page;
    # sending x(2) to v1*h(2,1) makes the projection two to one, which no
    # M monomial's d3 reaches here, so only the proof sees it
    bench = Workbench(default_window(8, 12, -1, 1))
    a3, a_m = bench.alphabet("EndM", 3), bench.alphabet("M", 2)
    bench._projection_rules()[a3.index("x(2)")] = (1, a_m.index("h(2,1)"))
    failures = bench.verify_differentials_square_to_zero()["M r=3"].failures
    assert failures == [(Polynomial.parse(a3, "x(2)"), Polynomial.parse(a_m, "v1*h(2,1)"))]
    assert d_squared_sweeps(bench)["M r=3"].ok


def test_m_r3_proof_raises_where_the_induced_d3_cannot_project():
    # this window keeps x(2) on the EndM page but h(3,1) off the M page, so
    # d(x(1)) = x(2) sends the lift of h(2,1) where the projection is undefined
    bench = Workbench(default_window(8, 12, -1, 1))
    pres = bench.presentation("EndM", 3)
    pres.differentials["x(1)"] = Polynomial.parse(pres.alphabet, "x(2)")
    pres._dval_cache.clear()
    with pytest.raises(GF2PolyError, match=r"h\(3,1\)"):
        bench.verify_differentials_square_to_zero()
    with pytest.raises(GF2PolyError, match=r"h\(3,1\)"):
        d_squared_sweeps(bench)


def test_m_r3_proof_refuses_a_projection_that_kills_a_lift():
    # killing x(1) like a torsion class leaves h(2,1) with no preimage, so
    # the proof fails and the transport refuses to induce any d3
    bench = Workbench(default_window(24, 6, -8, 8))
    bench._projection_rules()[bench.alphabet("EndM", 3).index("x(1)")] = None
    a_m = bench.alphabet("M", 2)
    failures = bench.verify_differentials_square_to_zero()["M r=3"].failures
    assert failures == [(Polynomial.parse(a_m, "h(2,1)"), Polynomial.zero(a_m))]
    with pytest.raises(dga.PageRefusedError, match=r"^two-cell r=3: p\(l\(h\(2,1\)\)\) \* v1\^eps is 0,"):
        verify_d_squared(bench.presentation("M", 3), bench.window)


def test_m_r3_proof_needs_d3_to_keep_torsion_in_the_torsion_ideal():
    # d(alphap) = h(1,1)^2*x(1) keeps EndM r=3 a dga (d² = 0 and both
    # relations preserved) but lets the quotient by (alpha, alphap) see d3
    # of a class it kills; no M monomial lifts to alphap, so only the
    # proof can see it
    bench = Workbench(default_window(24, 6, -8, 8))
    pres = bench.presentation("EndM", 3)
    pres.differentials["alphap"] = Polynomial.parse(pres.alphabet, "h(1,1)^2*x(1)")
    pres._dval_cache.clear()
    proof = bench.verify_differentials_square_to_zero()
    assert proof["EndM r=3"].ok
    assert [m for m, _ in proof["M r=3"].failures] == [Polynomial.parse(pres.alphabet, "alphap")]


def test_e3_presentation_report(wb):
    rep = wb.verify_e3_presentation()
    assert rep.ok
    rows = {r.degree: r for r in rep.rows}
    assert rows[(1, 3, 1)].lhs == rows[(1, 3, 1)].rhs == 1
    assert rows[(2, 3, 0)].lhs == 0
    assert rows[(0, 0, 0)].lhs == 1


def assert_counted_e3_matches_ranks(bench):
    """page("EndM", 3), counted off the d2 matching, against the ranked
    homology of (E2(EndM), d2): degrees, trust inside and around the box,
    dimensions, and the class test on every basis monomial."""
    counted, ranked = bench.page("EndM", 3), e3_endm_by_ranks(bench)
    assert counted.degrees() == ranked.degrees()
    w = bench.window
    for s in range(w.s_range[0] - 3, w.s_range[1] + 3):
        for t in range(w.t_range[0] - 2, w.t_range[1] + 3):
            for u in range(w.u_range[0] - 2, w.u_range[1] + 3):
                d = Multidegree(s, t, u)
                assert counted.trusted(d) == ranked.trusted(d), d
                if not ranked.trusted(d):
                    with pytest.raises(UntrustedDegreeError):
                        counted.dim(d)
                    continue
                assert (counted.dim(d), counted.dims_at(d)) == (ranked.dim(d), ranked.dims_at(d)), d
    a = bench.alphabet("EndM", 2)
    for d in ranked.degrees():
        for m in ranked.basis(d):
            poly = Polynomial.monomial(a, m)
            try:
                want = ranked.class_is_nonzero(poly, d)
            except GF2PolyError:
                with pytest.raises(GF2PolyError, match="not a cycle"):
                    counted.class_is_nonzero(poly, d)
            else:
                assert counted.class_is_nonzero(poly, d) == want, (poly, d)
    return counted


@settings(max_examples=100, deadline=None)
@given(st.integers(-1, 24), st.integers(0, 4), st.integers(-4, 2), st.integers(0, 4))
def test_counted_e3_matches_ranked_homology(t_max, s_max, v1_min, v1_span):
    assert_counted_e3_matches_ranks(Workbench(default_window(t_max, s_max, v1_min, v1_min + v1_span)))


def test_counted_e3_class_test_on_sums(wb):
    """A sum is a cycle when each term is, and a boundary when each term
    is: the term-by-term class test agrees with the ranked one on sums."""
    counted, ranked = wb.page("EndM", 3), e3_endm_by_ranks(wb)
    a = wb.alphabet("EndM", 2)
    rng = random.Random(3)
    checked = Counter()
    for d in ranked.degrees():
        basis = ranked.basis(d)
        for _ in range(3 if len(basis) > 1 else 0):
            poly = Polynomial(a, rng.sample(basis, rng.randint(2, len(basis))))
            try:
                want = ranked.class_is_nonzero(poly, d)
            except GF2PolyError:
                want = None
                with pytest.raises(GF2PolyError, match="not a cycle"):
                    counted.class_is_nonzero(poly, d)
            else:
                assert counted.class_is_nonzero(poly, d) == want, (poly, d)
            checked[want] += 1
    assert set(checked) == {None, False, True}


def test_counted_e3_refuses_a_d2_off_the_matching():
    """d2(h(3,1)) := v1^-1*alpha*h(2,1)^3 has the right degree but is not
    mu*h(3,1), so d2 is no longer multiplication by mu times a parity."""
    bench = Workbench(default_window(24, 6, -6, 6))
    pres = bench.presentation("EndM", 2)
    pres.differentials["h(3,1)"] = Polynomial.parse(pres.alphabet, "v1^-1*alpha*h(2,1)^3")
    pres._dval_cache.clear()
    with pytest.raises(GF2PolyError, match=r"d2\(h\(3,1\)\)"):
        bench.page("EndM", 3)


def test_counted_e3_follows_a_zeroed_d2_and_the_e3_report_catches_it():
    """With d2(h(2,1)) := 0, h(2,1) leaves the odd set: the count still
    equals the ranked homology, and no longer matches the presented page 3."""
    bench = Workbench(default_window(32, 6, -8, 8))
    pres = bench.presentation("EndM", 2)
    pres.differentials["h(2,1)"] = Polynomial.zero(pres.alphabet)
    pres._dval_cache.clear()
    assert bench._d2_odd_generators() == {pres.alphabet.index(n) for n in ("v1", "h(3,1)", "h(4,1)")}
    assert_counted_e3_matches_ranks(bench)
    assert not bench.verify_e3_presentation().ok


def test_module_isomorphism_report(wb):
    rep = wb.verify_module_isomorphisms()
    assert rep.ok
    claims = {r.claim for r in rep.rows}
    assert claims == {"m-vs-endm-mod-alpha", "m-vs-s-mod-h10"}


def test_e4_claims_report(wb):
    rep = wb.verify_e4_claims()
    assert rep.ok
    names = {r.claim for r in rep.rows}
    assert names == {"claim-1", "claim-2", "claim-3", "claim-4", "claim-i", "claim-ii"}
    spot = [r for r in rep.rows if r.claim == "claim-1" and r.degree == (1, 8, 1)]
    assert spot and spot[0].lhs == spot[0].rhs == 1
    assert all(r.rhs == 0 for r in rep.rows if r.claim == "claim-4")


# ---- the w-sliced complex against a per-monomial symbolic reference ----


def reference_slice_matrix(bench, d, n):
    """d3 from slice n at d to slice n+1 at d+shift in the slice bases,
    assembled one induced_d3m_monomial image at a time; a term outside
    slice n+1 fails the lookup."""
    page = bench.page("M", 3)
    source = [m for m in page.basis(d) if bench.w_degree(m) == n]
    target = [m for m in page.basis(d + D3_SHIFT) if bench.w_degree(m) == n + 1]
    index = {m: i for i, m in enumerate(target)}
    rows = [0] * len(target)
    for j, mono in enumerate(source):
        for term in bench.induced_d3m_monomial(mono).terms:
            rows[index[term]] |= 1 << j
    return len(source), rows


@pytest.mark.parametrize("t_max", [24, 32])
def test_slice_ranks_match_symbolic_assembly(t_max):
    # every (d, n) whose slice ranks verify_e4_claims reads: trusted d, and
    # the degree one shift below it (windows of `--t-max 24` and `32`)
    bench = Workbench(default_window(t_max))
    page4 = bench.page("M", 4)
    checked = nonzero = 0
    for d in page4.degrees():
        for c in (d - D3_SHIFT, d):
            for n in sorted(set(bench._w_list(c))):
                ncols, rows = reference_slice_matrix(bench, c, n)
                assert bench._slice_rank(c, n) == rank(rows), (c, n)
                assert bench._slice_kernel_dim(c, n) == len(kernel_basis(rows, ncols)), (c, n)
                checked += 1
                nonzero += rank(rows) > 0
    assert checked > 1000 and nonzero > 500


@pytest.mark.parametrize("broken", [False, True])
def test_w_grading_rows_match_symbolic_reference(monkeypatch, broken):
    bench = Workbench(default_window(32))
    if broken:
        # one extra w on every h(2,1) factor breaks the grading somewhere
        hi = bench.alphabet("M", 2).index("h(2,1)")
        w_degree = bench.w_degree
        monkeypatch.setattr(bench, "w_degree", lambda m, walk=None: w_degree(m, walk) + sum(e for g, e in m if g == hi))
    bench.page("M", 4)
    matrices, images = [], []
    real_matrix, real_induced = ComputedPage.matrix, bench.induced_d3m_monomial
    with monkeypatch.context() as patch:
        patch.setattr(ComputedPage, "matrix", lambda page, d: matrices.append(d) or real_matrix(page, d))
        patch.setattr(bench, "induced_d3m_monomial", lambda m: images.append(m) or real_induced(m))
        got = bench.verify_w_grading().rows
    assert got == w_grading_rows_every_degree(bench)
    assert any(r.status == "mismatch" for r in got) == broken
    # one route: no page-4 matrix is read, and one image per key
    # (j mod 4, odd set) decides the rows of every monomial with that key
    def key(m):
        j, _, odd = bench._m_walk(m)
        return j % 4, odd

    keys = {key(m) for m in m_basis_monomials(bench)}
    called = [key(m) for m in images]
    assert matrices == []
    assert len(called) == len(set(called)) <= len(keys) < 200 < len(got)


@settings(max_examples=20, deadline=None)
@given(st.integers(-1, 32), st.integers(0, 6), st.integers(-9, 0), st.integers(0, 9))
def test_w_grading_rows_match_symbolic_reference_on_random_windows(t_max, s_max, v1_min, v1_max):
    bench = Workbench(default_window(t_max, s_max, v1_min, v1_max))
    assert bench.verify_w_grading().rows == w_grading_rows_every_degree(bench)


def test_each_slice_ranked_once(monkeypatch):
    """One rank per distinct (matrix list, w list, n) with a nonempty
    slice, counted here over the degrees verify_e4_claims reads slices at
    (each trusted d and d - D3_SHIFT; a trusted d + D3_SHIFT with a
    nonempty basis is a trusted d itself), and none on a second pass."""
    calls = []
    monkeypatch.setattr(specseq, "rank", lambda rows: calls.append(rows) or rank(rows))
    bench = Workbench(default_window(24, 6, -6, 6))
    first = bench.verify_e4_claims()
    page4 = bench.page("M", 4)
    slices = set()
    for d in page4.degrees():
        for c in (d - D3_SHIFT, d):
            w_list = bench._w_list(c)
            slices.update((id(page4.matrix(c)), id(w_list), n) for n in set(w_list))
    assert len(calls) == len(slices) > 50
    # the second pass reads every rank from the first
    assert bench.verify_e4_claims().rows == first.rows
    assert len(calls) == len(slices)


def test_w_lists_shared_along_v1_orbits():
    """On the default window 881 distinct w lists cover the 4,799 degrees
    of M's page 3, and each is the list walked at its own degree."""
    bench = Workbench(default_window())
    bench.verify_w_grading()
    page = bench.page("M", 3)
    degrees = page.degrees()
    lists = [bench._w_list(d) for d in degrees]
    assert len(degrees) == 4799
    assert len({id(w_list) for w_list in lists}) == 881
    for d, w_list in zip(degrees, lists):
        assert w_list == [bench.w_degree(m) for m in page.basis(d)], d


def test_pattern_counts_agree_along_the_w_step():
    """_pattern_count takes the same value, or refuses, at d and at
    d + (0, 8, 4) = d + 4 * |v1|, for every degree of M's page 3 on the
    default window: the e4 reports sum the counts once per run along it."""
    bench = Workbench(default_window())
    step = Multidegree(0, 8, 4)

    def outcome(kind, d, a, residues):
        try:
            return bench._pattern_count(kind, d, a, residues)
        except UntrustedDegreeError:
            return "refused"

    nonzero = 0
    for d in bench.page("M", 3).degrees():
        for kind in "ZBH":
            for a in range(-1, 5):
                for residues in ((0, 1), (2, 3)):
                    got = outcome(kind, d, a, residues)
                    assert got == outcome(kind, d + step, a, residues), (kind, d, a, residues)
                    nonzero += got not in (0, "refused")
    assert nonzero > 1000


# the windows the e4 reports are checked on against their every-degree oracles
E4_WINDOWS = {
    "default": default_window(),
    "t128": default_window(128),
    "t40-v1[-3,5]": default_window(40, v1_min=-3, v1_max=5),
    "t48-v1[-5,9]": default_window(48, v1_min=-5, v1_max=9),
    "t32-s6": default_window(32, 6),
    "s16": default_window(s_max=16),
}


def assert_rows_match(report, want):
    """A report decided once per run against the rows of its every-degree
    oracle: the same rows in the same order, the same count, and the same
    failing rows expanded from the failing groups alone."""
    assert report.rows == want
    assert report.checked == len(want)
    assert report.failures() == [row for row in want if row.status != "ok"]


@pytest.mark.parametrize("window", E4_WINDOWS.values(), ids=E4_WINDOWS.keys())
def test_w_sliced_rows_match_every_degree_oracles(window):
    """The five reports decided once per run, in verify's order, against
    what the oracles compute at every degree."""
    bench = Workbench(window)
    assert_rows_match(bench.verify_e3_presentation(), e3_presentation_rows_every_degree(bench))
    assert_rows_match(bench.verify_w_grading(), w_grading_rows_every_degree(bench))
    assert_rows_match(bench.verify_module_isomorphisms(), module_isomorphism_rows_every_degree(bench))
    assert_rows_match(bench.verify_e4_claims(), e4_claim_rows_every_degree(bench))
    assert_rows_match(bench.verify_e4_dimensions(), e4_closed_form_rows_every_degree(bench))


@settings(max_examples=20, deadline=None)
@given(st.integers(-1, 32), st.integers(0, 6), st.integers(-9, 0), st.integers(0, 9))
def test_e4_rows_match_every_degree_oracles_on_random_windows(t_max, s_max, v1_min, v1_max):
    # the claims first, so that their w lists come from _w_list alone
    bench = Workbench(default_window(t_max, s_max, v1_min, v1_max))
    assert_rows_match(bench.verify_e4_claims(), e4_claim_rows_every_degree(bench))
    assert_rows_match(bench.verify_e4_dimensions(), e4_closed_form_rows_every_degree(bench))
    assert_rows_match(bench.verify_e3_presentation(), e3_presentation_rows_every_degree(bench))
    assert_rows_match(bench.verify_w_grading(), w_grading_rows_every_degree(bench))
    assert_rows_match(bench.verify_module_isomorphisms(), module_isomorphism_rows_every_degree(bench))


def test_e4_closed_form_report(wb):
    rep = wb.verify_e4_dimensions()
    assert rep.ok
    assert len(rep.rows) > 200


def test_survival_report(wb):
    rep = wb.survival_report()
    assert rep.ok
    named = [r for r in rep.rows if r.claim.startswith("survives-to-e4:")]
    assert [r.claim.split(":")[1] for r in named] == ["alpha", "alphap", "h(1,1)", "x(1)"]
    fates = [r for r in rep.rows if r.claim.startswith("dies:")]
    assert len(fates) > 10


@pytest.mark.parametrize(
    "window",
    [(8, 2, -2, 2), (16, 3, -16, 16), (24, 6, -6, 6), (24, 6, -2, 2), (32, 8, -8, 8), (32, 8, -2, 3), (40, 12, -3, 5)],
    ids=["t8", "t16-s3", "t24", "t24-v1", "t32", "t32-v1", "t40-v1"],
)
def test_survivors_decided_around_their_degrees_match_the_whole_page_4(window):
    """The four survivor rows, trusted off the E3(EndM) counts and decided
    on page 4 over the window around each degree, against page 4 of EndM
    built over the whole window."""
    bench = Workbench(default_window(*window))
    page4 = bench.page("EndM", 4)
    a3 = bench.alphabet("EndM", 3)
    rows = [r for r in bench.survival_report().rows if r.claim.startswith("survives-to-e4:")]
    assert len(rows) == 4
    for row in rows:
        d = Multidegree(*row.degree)
        trusted = page4.trusted(d)
        assert (row.status != "insufficient") == trusted, row
        if trusted:
            assert row.lhs == int(page4.class_is_nonzero(Polynomial.parse(a3, row.claim.split(":")[1]), d)), row


def test_survivors_at_untrusted_degrees_are_insufficient():
    bench = Workbench(default_window(t_max=8, s_max=2, v1_min=-2, v1_max=2))
    page4 = bench.page("EndM", 4)
    rows = bench.survival_report().rows
    assert [r.claim for r in rows] == [
        f"survives-to-e4:{g}" for g in ("alpha", "alphap", "h(1,1)", "x(1)")
    ]
    for r in rows:
        assert not page4.trusted(Multidegree(*r.degree))
        assert (r.status, r.lhs) == ("insufficient", 0)


def test_survival_rows_under_a_zeroed_d3_of_x2():
    # with d3(x(2)) := 0 the classes v1^m*x(2), m = 0 mod 4, support no d3
    # and are no d2 boundary: a mismatch where page 3 trusts the degree,
    # insufficient at its edge; the four survivors stay ok
    bench = Workbench(default_window(16, 4, -4, 4))
    pres = bench.presentation("EndM", 3)
    pres.differentials["x(2)"] = Polynomial.zero(pres.alphabet)
    pres._dval_cache.clear()
    rows = bench.survival_report().rows
    assert all(r.status == "ok" for r in rows if r.claim.startswith("survives-to-e4:"))
    assert [r for r in rows if r.status != "ok"] == [
        CheckRow("dies:v1^-4*x(2)", (1, 8, -3), 0, 1, "mismatch"),
        CheckRow("dies:v1^0*x(2)", (1, 16, 1), 0, 1, "insufficient"),
    ]


def test_xn_fates_at_untrusted_degrees_are_insufficient(monkeypatch):
    bench = Workbench(default_window(16, 4, -4, 4))
    fates = bench._xn_fates()
    assert {r.status for r in fates} == {"ok"}
    # every even-m class here supports d3; were it a d3-cycle at a degree
    # page 3 does not trust, its fate could not be decided
    pres3 = bench.presentation("EndM", 3)
    monkeypatch.setattr(pres3, "apply", lambda poly: Polynomial.zero(pres3.alphabet))
    monkeypatch.setattr(bench.page("EndM", 3), "trusted", lambda d: False)
    undecided = bench._xn_fates()
    assert [r.claim for r in undecided] == [r.claim for r in fates]
    for r in undecided:
        m = int(r.claim.split("^")[1].split("*")[0])
        assert (r.status, r.lhs) == (("ok", 1) if m % 2 else ("insufficient", 0))
    assert {r.status for r in undecided} == {"ok", "insufficient"}


# ---- patterns ----


def test_bo_pattern_placement():
    assert bo_pattern_dim(0, 0) == 1
    assert bo_pattern_dim(1, 2) == 1  # h(1,1)
    assert bo_pattern_dim(2, 4) == 1  # h(1,1)^2
    assert bo_pattern_dim(1, 3) == 1  # v1
    assert bo_pattern_dim(2, 6) == 0  # v1^2 is cut: m = 2 mod 4
    assert bo_pattern_dim(2, 7) == 0  # nothing with a = -1
    assert bo_pattern_dim(4, 12) == 1  # v1^4
    assert bo_pattern_dim(3, 7) == 1  # v1*h(1,1)^2
    assert bo_pattern_dim(3, 8) == 0  # v1^2*h(1,1) is cut: m = 2 mod 4


def test_bu_pattern_placement():
    assert bu_pattern_dim(0, 0) == 1
    assert bu_pattern_dim(1, 3) == 1
    assert bu_pattern_dim(-2, -6) == 1
    assert bu_pattern_dim(1, 2) == 0


def test_pattern_suspension():
    # a pattern suspended by (p, q) is read at (s - p, t - q)
    assert bo_pattern_dim(2 - 2, 9 - 9) == 1
    assert bo_pattern_dim(3 - 2, 11 - 9) == 1
    assert bo_pattern_dim(2 - 2, 10 - 9) == 0
    assert bu_pattern_dim(7 - 6, 30 - 27) == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(-9, 41), st.integers(-60, 200), st.integers(-30, 30))
def test_pattern_stems_hit_exactly_the_cells_of_each_pattern(p, q, filt):
    """pattern_stems solves each pattern for its stems on filt; the cell
    tests of the oracle find the same stems, for odd p and negative
    filtrations too."""
    bo, bu = pattern_stems(p, q, filt)
    stems = range(-400, 401)
    assert sorted(bo) == [stem for stem in stems if bo_pattern_dim(filt - p, stem + filt - q)]
    assert len(set(bo)) == len(bo)
    assert [stem for stem in stems if bu_pattern_dim(filt - p, stem + filt - q)] == [bu]


def test_adams_collapse():
    assert adams_bidegree(Multidegree(0, 0, 0)) == (0, 0)
    assert adams_bidegree(Multidegree(0, 2, 1)) == (1, 3)  # v1
    assert adams_bidegree(Multidegree(1, 2, 0)) == (1, 2)  # h(1,1)
    assert adams_bidegree(Multidegree(1, 16, 1)) == (2, 17)  # x(2)


# ---- decomposition ----


def test_low_w_monomial_possible():
    # degrees are given as (s, t - 2u, u)
    assert low_w_monomial_possible(0, 0, 0)
    assert low_w_monomial_possible(1, 2, 0)
    assert low_w_monomial_possible(1, 6, 0)
    # only v1^-1*h(1,1)^3 lives at (3, 4, -1) and it has w = 5
    assert not low_w_monomial_possible(3, 6, -1)
    assert not low_w_monomial_possible(-1, 0, 0)
    assert not low_w_monomial_possible(1, 3, 0)


def test_parts_sum_matches_the_search():
    """The popcount test of _parts_sum against the recursive search over
    the menu 6, 14, 30, ..., at every count 0..40 and total -50..1500."""
    grid = [(count, total) for count in range(41) for total in range(-50, 1501)]
    got = [pair for pair in grid if _parts_sum(*pair)]
    assert got == [pair for pair in grid if parts_sum_by_search(*pair)]
    assert len(got) > 1000 and (0, 0) in got and (40, 240) in got


@pytest.fixture(scope="module")
def low_w_bench():
    """A Workbench whose M alphabet holds every h(n,1) that the degrees
    probed below afford."""
    return Workbench(default_window(90, 8, -28, 15))


@settings(max_examples=500, deadline=None)
@given(st.integers(-1, 8), st.integers(-40, 89), st.integers(-20, 14))
def test_low_w_monomial_possible_matches_enumeration(low_w_bench, s, t, u):
    d = Multidegree(s, t, u)
    low = low_w_by_enumeration(low_w_bench, [d])[d]
    assert low_w_monomial_possible(s, t - 2 * u, u) == (low is not None and low <= 2)


def decomposition_cells(window):
    """(stem, filtration) of every cell mahowald_decomposition_check reports."""
    for stem in range(window.t_range[0] - window.s_range[1], specseq.DECOMPOSITION_STEM_MAX + 1):
        for filt in range(window.u_range[0], specseq.DECOMPOSITION_FILT_MAX + 1):
            yield stem, filt


class _TrustAll:
    """A page that trusts every degree, so that the scan of _cell_covered
    runs through its whole s range."""

    def trusted(self, d):
        return True


def watch_scan(bench, page, cells=None):
    """Run _cell_covered on page at each cell (those of the check's box by
    default) and record, per cell, the tridegrees it visits (one call of
    low_w_monomial_possible each), those it reads trust at, and whether
    it calls the cell covered: {(stem, filt): (visited, read, covered)}."""
    low_w = specseq.low_w_monomial_possible
    watched = {}

    def visit(s, internal, u):
        visited.append(Multidegree(s, internal + 2 * u, u))
        return low_w(s, internal, u)

    class Reader:
        def trusted(self, d):
            read.append(d)
            return page.trusted(d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specseq, "low_w_monomial_possible", visit)
        for stem, filt in decomposition_cells(bench.window) if cells is None else cells:
            visited, read = [], []
            watched[(stem, filt)] = (visited, read, bench._cell_covered(Reader(), stem, filt))
    return watched


def box_page(bench):
    """Page 4 of M over the decomposition box, as the check builds it."""
    return homology_page(bench.presentation("M", 3), bench._decomposition_window())


def test_no_low_w_monomial_past_the_decomposition_scan(low_w_bench):
    """_cell_covered scans the s = -c mod 4 up to the (c + 8) // 3 cut-off
    (or the window's s_max, here 0), c = stem - 2*filt, and takes every
    other tridegree of the cell to hold no monomial of w <= 2.  Enumeration
    finds none in the tridegrees the scan skips below the cut-off or in the
    six past it, at every cell of the default decomposition corner."""
    bench = Workbench(default_window(64, 0, -16, 16))
    cells = list(decomposition_cells(default_window()))
    degrees = cell_degrees(bench, cells)
    probes = []
    for (stem, filt), (visited, _, _) in watch_scan(bench, _TrustAll(), cells).items():
        passed, c = degrees[stem, filt], stem - 2 * filt
        assert visited == [d for d in passed if (d.s + c) % 4 == 0]
        probes += [d for d in passed if (d.s + c) % 4]
        probes += [Multidegree(s, stem + s, filt - s) for s in range(len(passed), len(passed) + 6)]
    low = low_w_by_enumeration(low_w_bench, probes)
    assert not [d for d in probes if low[d] is not None and low[d] <= 2]
    assert len(probes) > 10000 and sum(w is not None for w in low.values()) > 1000


def test_cell_exact_bound_drops_no_class():
    """_cell_exact calls a cell exact when its tables reach p_pot, the
    largest p of a class whose pattern can reach the cell, since the
    complex of squares forces q >= 9p/2 (test_mahowald checks that).  At
    each cell the smaller tables of a t_max 40 window call exact, the
    search over every p of the default window's larger tables finds the
    same pattern sum as that window's report."""
    small = Workbench(default_window(40, 8, -8, 8))
    tables = small.mahowald_tables()
    larger = Workbench(default_window()).mahowald_tables()
    assert (tables.p_max, tables.q_max) < (larger.p_max, larger.q_max)
    rows = {row.degree: row for row in small.mahowald_decomposition_check().rows}
    exact = nonzero = 0
    for stem, filt in decomposition_cells(small.window):
        if _cell_exact(tables, stem, filt):
            rhs = rows[(filt, stem + filt)].rhs
            assert rhs == cell_rhs_over_every_p(larger, filt, stem + filt), (stem, filt)
            exact += 1
            nonzero += rhs > 0
    assert 0 < exact < len(rows) and nonzero > 50


def test_decomposition_report(wb):
    rep = wb.mahowald_decomposition_check()
    assert not [r for r in rep.rows if r.status == "mismatch"]
    rows = {r.degree: r for r in rep.rows}
    for cell in [(0, 0), (1, 2), (2, 4), (6, 27), (7, 30)]:
        assert rows[cell].status == "ok"
        assert rows[cell].lhs == rows[cell].rhs == 1, cell
    assert rows[(1, 3)].lhs == 1  # the bu copy of v1 itself
    # insufficiency at the window edge is reported, not dropped
    assert any(r.status == "insufficient" for r in rep.rows)


def test_decomposition_positive_quadrant_covered():
    # the full default window settles every cell with stem and filtration >= 0
    rep = Workbench(default_window()).mahowald_decomposition_check()
    bad = [
        r.degree
        for r in rep.rows
        if r.status == "insufficient" and r.degree[0] >= 0 and r.degree[1] >= r.degree[0]
    ]
    assert bad == []


def cell_degrees(bench, cells=None):
    """Each cell of the check's box (or of cells) with the tridegrees
    (s, stem + s, filt - s) collapsing to it, in rising s up to the cut-off
    of _cell_covered's scan: (c + 8) // 3 with c = stem - 2*filt, or the
    window's s_max.  The scan visits those with s = -c mod 4."""
    s_max = bench.window.s_range[1]
    return {
        (stem, filt): [Multidegree(s, stem + s, filt - s) for s in range(max(s_max, (stem - 2 * filt + 8) // 3) + 1)]
        for stem, filt in (decomposition_cells(bench.window) if cells is None else cells)
    }


def scanned_degrees(bench):
    """Every tridegree the coverage scan of mahowald_decomposition_check
    passes, visited or not, in order."""
    return [d for degrees in cell_degrees(bench).values() for d in degrees]


@pytest.mark.parametrize("window", [default_window(), default_window(40, 12, -3, 5)], ids=["default", "t40-v1"])
def test_decomposition_sides_match_their_second_methods(window):
    """The report's two sides, built as dicts by the chart's rules, against
    a cell-by-cell reading: lhs is the sum of the whole page 4 of M over
    the tridegrees of the cell up to the scan's cut-off, and rhs is the
    search over every (p, q) of the tables."""
    bench = Workbench(window)
    rows = {row.degree: row for row in bench.mahowald_decomposition_check().rows}
    whole = bench.page("M", 4)
    tables = bench.mahowald_tables()
    scans = cell_degrees(bench)
    assert len(rows) == len(scans)
    for (stem, filt), read in scans.items():
        row = rows[(filt, stem + filt)]
        dims = [whole.dims_at(d) for d in read]
        assert row.lhs == sum(z - b for z, b in filter(None, dims)), (stem, filt)
        assert row.rhs == cell_rhs_over_every_p(tables, filt, stem + filt), (stem, filt)
    assert sum(row.lhs > 0 for row in rows.values()) > 30
    assert sum(row.rhs > 0 for row in rows.values()) > 30


def box_and_whole_reads(bench):
    """dims_at of page 4 of M over the decomposition box and over the whole
    window, at every tridegree the decomposition scan passes."""
    box = box_page(bench)
    whole = bench.page("M", 4)
    read = scanned_degrees(bench)
    return [box.dims_at(d) for d in read], [whole.dims_at(d) for d in read]


def test_decomposition_scan_reads_trust_only_where_a_low_w_monomial_can_lie():
    """_cell_covered visits the tridegrees of its s range with s = -c mod
    4, reads page 4's trust only where a monomial of w <= 2 can lie, in
    scan order, and stops at the first such tridegree that is untrusted.
    On the default window: 6,783 tridegrees visited, 1,267 of them low-w
    (as many as the 27,030 tridegrees of the whole s ranges hold), 962
    trust reads and 395 uncovered cells."""
    bench = Workbench(default_window())
    box = box_page(bench)
    every = watch_scan(bench, _TrustAll())
    watched = watch_scan(bench, box)
    visited = [d for v, _, _ in every.values() for d in v]
    low = [d for _, r, _ in every.values() for d in r]
    assert low == [d for d in visited if low_w_by_search(d)]
    passed = scanned_degrees(bench)
    assert (len(passed), sum(map(low_w_by_search, passed))) == (27030, len(low))
    for cell, (_, read, covered) in watched.items():
        trusted = [box.trusted(d) for d in read]
        assert all(trusted[:-1]), cell
        if covered:
            assert read == every[cell][1] and all(trusted), cell
        else:
            assert read == every[cell][1][: len(read)] and not trusted[-1], cell
    reads = sum(len(read) for _, read, _ in watched.values())
    uncovered = sum(not covered for _, _, covered in watched.values())
    assert (len(visited), len(low), reads, uncovered) == (6783, 1267, 962, 395)


@pytest.mark.parametrize("window", [default_window(), default_window(40, 12, -3, 5)], ids=["default", "t40-v1"])
def test_cell_covered_matches_the_box_scan(window):
    """_cell_covered against the scan it replaced, which visits every
    tridegree and reads trust inside page 4's box before the low-w search,
    at every cell of the check's box."""
    bench = Workbench(window)
    box = box_page(bench)
    cells = list(decomposition_cells(window))
    got = [bench._cell_covered(box, *cell) for cell in cells]
    assert got == [cell_covered_by_box(bench, box, *cell) for cell in cells]
    assert 0 < sum(got) < len(got)


@settings(max_examples=20, deadline=None)
@given(
    st.tuples(st.integers(-8, 0), st.integers(0, 8)),
    st.tuples(st.integers(-2, 2), st.integers(2, 12)),
    st.tuples(st.integers(-20, 30), st.integers(0, 64)),
    st.tuples(st.integers(-20, 4), st.integers(0, 16)),
)
def test_cell_covered_matches_the_box_scan_on_random_windows(v1, s, t, u):
    """The same equality over random truncation windows, whose t floor may
    lie above the decomposition box's top and whose s and u floors may be
    negative."""
    window = TruncationWindow(v1, s, (t[0], max(t)), (u[0], max(u)))
    bench = Workbench(window)
    box = box_page(bench)
    for cell in decomposition_cells(window):
        assert bench._cell_covered(box, *cell) == cell_covered_by_box(bench, box, *cell), cell


@pytest.mark.parametrize("window", [default_window(), default_window(40, 12, -3, 5)], ids=["default", "t40-v1"])
def test_decomposition_box_page_agrees_with_the_whole_page(window, monkeypatch):
    """The decomposition check builds page 4 of M over its box only, with t
    clipped to DECOMPOSITION_STEM_MAX + s_max - 1.  At every degree its scan
    visits, that page's dims_at equals the whole page's, None included: the
    report bytes alone would not show a box one too small."""
    bench = Workbench(window)
    built = []

    def recorded(pres, w):
        built.append((pres, w))
        return homology_page(pres, w)

    monkeypatch.setattr(specseq, "homology_page", recorded)
    bench.mahowald_decomposition_check()
    monkeypatch.undo()
    assert built == [(bench.presentation("M", 3), bench._decomposition_window())]
    assert bench._decomposition_window().t_range == (window.t_range[0], specseq.DECOMPOSITION_STEM_MAX + 11)
    box, whole = box_and_whole_reads(bench)
    assert box == whole
    assert sum(dims is not None for dims in box) > 1000
    assert sum(bool(dims and dims[0] > dims[1]) for dims in box) > 10


@settings(max_examples=12, deadline=None)
@given(st.integers(16, 48), st.integers(2, 12), st.integers(-6, 0), st.integers(0, 6))
def test_decomposition_box_page_agrees_on_random_windows(t_max, s_max, v1_min, v1_max):
    box, whole = box_and_whole_reads(Workbench(default_window(t_max, s_max, v1_min, v1_max)))
    assert box == whole


def test_decomposition_box_above_the_scan_reads_nothing():
    """A window whose t floor lies above the clipped top: the box keeps its
    floor as its top, and no degree the scan visits is trusted, on the box
    page as on the whole one."""
    bench = Workbench(TruncationWindow((-2, 2), (0, 3), (27, 40), (-2, 2)))
    assert bench._decomposition_window().t_range == (27, 27)
    rows = bench.mahowald_decomposition_check().rows
    assert len(rows) == 15 and not [r for r in rows if r.status == "mismatch"]
    box, whole = box_and_whole_reads(bench)
    assert box == whole == [None] * len(box) and box


# ---- report plumbing ----


def test_check_row_statuses():
    assert check_row("c", Multidegree(1, 2, 3), 4, 4) == CheckRow("c", (1, 2, 3), 4, 4, "ok")
    assert check_row("c", (1, 2), 4, 5).status == "mismatch"
    # an undecided row is insufficient whatever its two sides read
    assert check_row("c", (1, 2), 4, 4, decided=False).status == "insufficient"
    assert check_row("c", (1, 2), 4, 5, decided=False).status == "insufficient"


def test_check_row_keeps_its_degree():
    d = Multidegree(1, 2, 3)
    assert check_row("c", d, 1, 1).degree is d


def test_report_json_shape(tmp_path, capsys):
    # this window cannot decide two survival rows, and no row is a
    # mismatch: verify exits 1, and the report reads insufficient, not FAIL
    assert cli.run(["verify", "--t-max", "16", "--s-max", "3", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "survival: INSUFFICIENT (30 checked)" in lines
    assert not [line for line in lines[:-1] if "FAIL" in line]
    doc = json.loads((tmp_path / "verify-report.json").read_text())
    assert len(doc["reports"]) == 13
    rows = []
    for summary in doc["reports"]:
        assert set(summary) == {"name", "ok", "conditional", "checked", "failures"}
        rows += summary["failures"]
    # each failure row is written as an object with exactly the five
    # fields, its degree a list
    assert rows == [
        {"claim": "survives-to-e4:h(1,1)", "degree": [1, 2, 0], "lhs": 0, "rhs": 1, "status": "insufficient"},
        {"claim": "survives-to-e4:x(1)", "degree": [1, 8, 1], "lhs": 0, "rhs": 1, "status": "insufficient"},
    ]


def test_report_failure_surfacing():
    from moorev1.specseq import CheckRow

    rep = Report("demo", [CheckRow("c", (0,), 1, 2, "mismatch")])
    assert not rep.ok
    assert len(rep.failures()) == 1


# ---- sharing within one Workbench ----

VERIFY_SEQUENCE = (
    "verify_differentials_square_to_zero",
    "verify_e3_presentation",
    "verify_w_grading",
    "verify_module_isomorphisms",
    "verify_e4_claims",
    "verify_e4_dimensions",
    "survival_report",
)


def test_each_basis_enumerated_once_per_workbench(monkeypatch):
    """Over the verify sequence each basis (alphabet, relations, window) is
    enumerated at most once, also where two presentations share it (M r=2
    and M r=3), and a second Workbench enumerates everything again: no
    basis outlives the Workbench that built it.  E3(EndM) is counted over
    the window: its basis is enumerated, and its page 4 built, only over the
    small window around each survivor's degree."""
    enumerating = []  # the presentation whose basis is being built
    calls = Counter()
    pages = []  # (presentation name, window) of each homology_page call
    real_basis = PagePresentation.basis
    real_enumerate = dga.enumerate_window
    real_homology = specseq.homology_page

    def basis(self, window):
        enumerating.append(self)
        try:
            return real_basis(self, window)
        finally:
            enumerating.pop()

    def counting(algebra, window):
        pres = enumerating[-1]
        assert pres.quotient == algebra
        calls[(pres.alphabet, pres.relations, window)] += 1
        return real_enumerate(algebra, window)

    monkeypatch.setattr(PagePresentation, "basis", basis)
    monkeypatch.setattr(dga, "enumerate_window", counting)
    monkeypatch.setattr(specseq, "homology_page", lambda pres, w: pages.append((pres.name, w)) or real_homology(pres, w))
    window = default_window(16, 4, -4, 4)
    bench = Workbench(window)
    for name in VERIFY_SEQUENCE:
        getattr(bench, name)()
    first = dict(calls)
    assert first and set(first.values()) == {1}
    # the module isomorphisms count the S monomials instead, and page 3
    # and the d² proof count the E2(EndM) monomials
    counted = {bench.alphabet("S", 2), bench.alphabet("EndM", 2)}
    assert not counted & {a for a, _, _ in first}
    e3 = bench.alphabet("EndM", 3)
    survivors = [r.degree for r in bench.survival_report().rows if r.claim.startswith("survives-to-e4:")]
    around = {bench._window_around(Multidegree(*d)) for d in survivors}
    assert len(around) == 4 and window not in around
    assert {w for name, w in pages if name == "endomorphism r=3"} == around
    assert {w for a, _, w in first if a == e3} == around
    full = {(a, rel) for a, rel, w in first if w == window}
    used = {(pres.alphabet, pres.relations) for pres in bench._presentations.values()}
    assert full == {(a, rel) for a, rel in used if a not in counted | {e3}}
    assert bench.presentation("M", 2).basis(window) is bench.presentation("M", 3).basis(window)
    calls.clear()
    again = Workbench(window)
    for name in VERIFY_SEQUENCE:
        getattr(again, name)()
    assert dict(calls) == first


def test_e3_endm_basis_builds_only_its_quotient(monkeypatch):
    """PagePresentation.basis walks the E3(EndM) quotient itself: its one
    enumeration returns exactly the monomials basis_counts counts, and no
    built monomial is tested against a relation afterwards."""
    window = default_window()
    pres = Workbench(window).presentation("EndM", 3)
    returned, tested = [], []
    real_enumerate, real_divides = dga.enumerate_window, dga.mono_divides

    def enumerate_window(algebra, w):
        got = real_enumerate(algebra, w)
        returned.append(sum(len(got.basis(d)) for d in got.degrees()))
        return got

    monkeypatch.setattr(dga, "enumerate_window", enumerate_window)
    monkeypatch.setattr(dga, "mono_divides", lambda rel, m: tested.append(m) or real_divides(rel, m))
    pres.basis(window)
    assert returned == [pres.basis_counts(window).total()] and returned[0] > 10000
    assert tested == []


def test_verify_sequence_builds_bases_only_where_vectors_are_read(monkeypatch):
    """Reports that read dimensions cost one rank per matrix: kernel_basis
    runs only inside the vector accessors of a ComputedPage, once per
    degree, and only at the degrees of the survivors the survival report
    tests (page 3 of EndM decides its classes off the d2 matching).  No
    memo keeps those small pages: a second survival report builds each
    again, once."""
    asking = []  # (page, degree) of each vector accessor call in progress
    built = []
    real_homology = ComputedPage._homology_at

    def homology_at(self, d):
        asking.append((self, tuple(d)))
        try:
            return real_homology(self, d)
        finally:
            asking.pop()

    def counting_kernel(rows, ncols):
        assert asking, "kernel_basis outside a vector accessor"
        built.append(asking[-1])
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(ComputedPage, "_homology_at", homology_at)
    monkeypatch.setattr(dga, "kernel_basis", counting_kernel)
    bench = Workbench(default_window(24, 6, -6, 6))
    assert VERIFY_SEQUENCE[-1] == "survival_report"
    for name in VERIFY_SEQUENCE[:-1]:
        getattr(bench, name)()
    assert built == []
    rows = bench.survival_report().rows
    survivors = sorted(
        r.degree for r in rows if r.claim.startswith("survives-to-e4:") and r.status != "insufficient"
    )
    assert len(survivors) == 4
    # each survivor's class is decided on page 4 of EndM over the window
    # around its degree, once
    assert sorted(d for _, d in built) == survivors
    for page, d in built:
        assert page.presentation is bench.presentation("EndM", 3)
        assert page.window == bench._window_around(Multidegree(*d))
    once = len(built)
    bench.survival_report()
    assert len(built) == 2 * once and sorted(d for _, d in built[once:]) == survivors
