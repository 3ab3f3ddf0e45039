import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moorev1 import dga
from moorev1.dga import (
    ComputedPage,
    D2Report,
    DimensionTable,
    MissingDifferentialError,
    PagePresentation,
    PresentationPage,
    UntrustedDegreeError,
    d_squared_on_generators,
    homology_page,
    page_dimension_table,
    verify_d_squared,
)
from moorev1.gf2linalg import Subspace, column_space_basis, kernel_basis, subquotient_basis
from moorev1.gf2poly import (
    Alphabet,
    Generator,
    GF2PolyError,
    Multidegree,
    Polynomial,
    TruncationWindow,
    default_window,
    mono_degree,
)
from moorev1.specseq import Workbench
from oracles import quotient_basis_by_filter

SHIFT2 = Multidegree(2, 1, -1)
SHIFT3 = Multidegree(3, 2, -2)


def leibniz_reference(pres, mono):
    """d(mono) summed with Polynomial arithmetic: the reduced sum over the
    factors g^e of d(g^e) * (mono without g^e), products by __mul__."""
    a = pres.alphabet
    total = Polynomial.zero(a)
    for pos, (gi, e) in enumerate(mono):
        rest = Polynomial.monomial(a, mono[:pos] + mono[pos + 1 :])
        total = total + pres.derivation_value(gi, e) * rest
    return Polynomial(a, [m for m in total.terms if pres.is_reduced_monomial(m)])


def leibniz_reference_poly(pres, poly):
    total = Polynomial.zero(pres.alphabet)
    for m in poly.terms:
        total = total + leibniz_reference(pres, m)
    return total


def quotient_alphabet(n_max=4):
    gens = [
        Generator("v1", Multidegree(0, 2, 1), invertible=True),
        Generator("alpha", Multidegree(0, -1, 0), nilpotent_square=True),
    ]
    gens += [Generator(f"h({n},1)", Multidegree(1, 2 ** (n + 1) - 2, 0)) for n in range(1, n_max + 1)]
    return Alphabet(gens)


def quotient_presentation(n_max=4):
    a = quotient_alphabet(n_max)
    p = lambda s: Polynomial.parse(a, s)
    d = {"v1": p("alpha*h(1,1)^2"), "alpha": p("0"), "h(1,1)": p("0")}
    for n in range(2, n_max + 1):
        d[f"h({n},1)"] = p(f"v1^-1*alpha*h(1,1)^2*h({n},1)")
    return PagePresentation(a, SHIFT2, d)


def stride_presentation():
    gens = [
        Generator("v1", Multidegree(0, 2, 1), invertible=True, stride=2),
        Generator("alpha", Multidegree(0, -1, 0), nilpotent_square=True),
        Generator("alphap", Multidegree(0, 1, 1), nilpotent_square=True),
        Generator("h(1,1)", Multidegree(1, 2, 0)),
        Generator("x(1)", Multidegree(1, 8, 1)),
        Generator("x(2)", Multidegree(1, 16, 1)),
        Generator("x(3)", Multidegree(1, 32, 1)),
    ]
    a = Alphabet(gens)
    p = lambda s: Polynomial.parse(a, s)
    mono = lambda s: p(s).monomials_sorted()[0]
    relations = (mono("alpha*h(1,1)^2"), mono("alpha*alphap"))
    d = {
        "v1": p("h(1,1)^3"),
        "alpha": p("0"),
        "alphap": p("0"),
        "h(1,1)": p("0"),
        "x(1)": p("0"),
        "x(2)": p("v1^-4*h(1,1)*x(1)^3"),
        "x(3)": p("v1^-4*h(1,1)*x(1)*x(2)^2"),
    }
    return PagePresentation(a, SHIFT3, d, relations=relations)


class UnvalidatedPresentation(PagePresentation):
    def _validate(self):  # skip the construction checks, to build what they refuse
        pass


class IdentityPresentation(PagePresentation):
    """d(m) = m: it keeps the degree, so every image misses the basis one
    shift up."""

    def apply_monomial(self, mono):
        return Polynomial.monomial(self.alphabet, mono)


def broken_presentation():
    a = quotient_alphabet(2)
    p = lambda s: Polynomial.parse(a, s)
    d = {
        "v1": p("alpha*h(1,1)^2"),
        "alpha": p("0"),
        "h(1,1)": p("0"),
        # wrong sign structure: d(h(2,1)) = alpha h^2 h(2,1) without v1^-1
        # is not even homogeneous, so break it differently: make d(alpha)
        # nonzero so that d(d(v1)) = d(alpha) h^2 survives
    }
    d["h(2,1)"] = p("v1^-1*alpha*h(1,1)^2*h(2,1)")
    broken = dict(d)
    broken["alpha"] = p("v1^-1*h(1,1)^2")
    return UnvalidatedPresentation(a, SHIFT2, broken)


def unpreserved_relation_presentation(cls=UnvalidatedPresentation):
    """d(a) = c, d(x) = y, c and y cycles, and the relation c*x = 0, which
    d does not preserve: d(c*x) = c*y.  So d² = 0 on every generator, yet
    on the quotient d(d(a*x)) = d(a*y) = c*y."""
    gens = [
        Generator("h(1,1)", Multidegree(1, 1, 0)),  # a
        Generator("h(2,1)", Multidegree(2, 2, 0)),  # c
        Generator("h(3,1)", Multidegree(1, 3, 0)),  # x
        Generator("h(4,1)", Multidegree(2, 4, 0)),  # y
    ]
    a = Alphabet(gens)
    p = lambda s: Polynomial.parse(a, s)
    d = {"h(1,1)": p("h(2,1)"), "h(2,1)": p("0"), "h(3,1)": p("h(4,1)"), "h(4,1)": p("0")}
    relation = p("h(2,1)*h(3,1)").monomials_sorted()[0]
    return cls(a, Multidegree(1, 1, 0), d, relations=(relation,))


class TestValidation:
    def test_inhomogeneous_differential_rejected(self):
        a = quotient_alphabet(1)
        with pytest.raises(GF2PolyError):
            PagePresentation(a, SHIFT2, {"v1": Polynomial.parse(a, "h(1,1)")})

    def test_stride_scales_expected_degree(self):
        # d(v1^2) = h^3 only typechecks against twice the v1 degree
        stride_presentation()
        gens = [
            Generator("v1", Multidegree(0, 2, 1), invertible=True),
            Generator("h(1,1)", Multidegree(1, 2, 0)),
        ]
        a = Alphabet(gens)
        with pytest.raises(GF2PolyError):
            PagePresentation(a, SHIFT3, {"v1": Polynomial.parse(a, "h(1,1)^3")})

    def test_relation_must_be_preserved(self):
        a = quotient_alphabet(1)
        p = lambda s: Polynomial.parse(a, s)
        mono = p("alpha*h(1,1)^2").monomials_sorted()[0]
        with pytest.raises(GF2PolyError):
            # d(alpha) = h breaks d(alpha*h^2) = 0
            PagePresentation(
                a,
                Multidegree(1, 3, 0),
                {"alpha": p("h(1,1)"), "h(1,1)": p("0"), "v1": p("0")},
                relations=(mono,),
            )

    def test_invertible_cannot_appear_in_relations(self):
        a = quotient_alphabet(1)
        mono = Polynomial.parse(a, "v1*alpha").monomials_sorted()[0]
        with pytest.raises(GF2PolyError):
            PagePresentation(a, SHIFT2, {}, relations=(mono,))


class TestDerivation:
    def test_leibniz_on_product(self):
        pres = quotient_presentation()
        a = pres.alphabet
        p = lambda s: Polynomial.parse(a, s)
        # d(v1 * h(2,1)) = d(v1) h(2,1) + v1 d(h(2,1)): the two terms add
        got = pres.apply(p("v1*h(2,1)"))
        assert got.is_zero()  # equal terms cancel over GF(2)
        got = pres.apply(p("v1^2*h(2,1)"))
        assert str(got) == "v1*alpha*h(1,1)^2*h(2,1)"

    def test_even_powers_are_cycles(self):
        pres = quotient_presentation()
        p = lambda s: Polynomial.parse(pres.alphabet, s)
        assert pres.apply(p("v1^4")).is_zero()
        assert str(pres.apply(p("v1^3"))) == "v1^2*alpha*h(1,1)^2"

    def test_negative_powers(self):
        pres = quotient_presentation()
        p = lambda s: Polynomial.parse(pres.alphabet, s)
        assert str(pres.apply(p("v1^-1"))) == "v1^-2*alpha*h(1,1)^2"
        assert pres.apply(p("v1^-2")).is_zero()

    def test_stride_leibniz(self):
        pres = stride_presentation()
        p = lambda s: Polynomial.parse(pres.alphabet, s)
        assert str(pres.apply(p("v1^2"))) == "h(1,1)^3"
        assert pres.apply(p("v1^4")).is_zero()
        assert str(pres.apply(p("v1^-2"))) == "v1^-4*h(1,1)^3"
        assert str(pres.apply(p("v1^6*x(1)"))) == "v1^4*h(1,1)^3*x(1)"

    def test_output_reduced_by_relations(self):
        pres = stride_presentation()
        p = lambda s: Polynomial.parse(pres.alphabet, s)
        # d(v1^2 alpha) = alpha h^3, divisible by the relation alpha h^2
        assert pres.apply(p("v1^2*alpha")).is_zero()

    def test_missing_differential(self):
        a = quotient_alphabet(1)
        p = lambda s: Polynomial.parse(a, s)
        pres = PagePresentation(a, SHIFT2, {"v1": p("alpha*h(1,1)^2")})
        with pytest.raises(MissingDifferentialError):
            pres.apply(p("h(1,1)"))
        # an even exponent never needs the missing value
        assert pres.apply(p("h(1,1)^2")).is_zero()

    def test_window_overflow(self):
        # application is symbolic: d(x(2)) keeps its v1^-4 even where a
        # window would cut v1 exponents off at -2
        pres = stride_presentation()
        p = lambda s: Polynomial.parse(pres.alphabet, s)
        assert not pres.apply(p("x(2)")).is_zero()
        assert pres.apply(p("x(2)")) == p("v1^-4*h(1,1)*x(1)^3")


class TestDSquared:
    def test_holds_for_both_pages(self):
        w = default_window(t_max=36, s_max=7, v1_min=-7, v1_max=7)
        for pres in (quotient_presentation(), stride_presentation()):
            report = verify_d_squared(pres, w)
            assert report.ok
            assert report.checked > 100

    def test_catches_a_broken_differential(self):
        pres = broken_presentation()
        report = verify_d_squared(pres, default_window(t_max=20, s_max=5, v1_min=-4, v1_max=4))
        assert not report.ok
        for m, twice in report.failures:
            once = leibniz_reference_poly(pres, m)
            assert twice == leibniz_reference_poly(pres, once)
            assert not twice.is_zero()

    def test_skips_unknown_differentials(self):
        a = quotient_alphabet(1)
        p = lambda s: Polynomial.parse(a, s)
        pres = PagePresentation(a, SHIFT2, {"v1": p("alpha*h(1,1)^2")})
        report = verify_d_squared(pres, default_window(t_max=10, s_max=3, v1_min=-2, v1_max=2))
        # d(v1^odd) needs d(alpha) and d(h) downstream, so nothing fully checks
        # except monomials with even v1 exponent, whose d is zero outright
        assert report.ok


class TestDSquaredOnGenerators:
    """The generator proof against the verify_d_squared sweep as oracle."""

    @pytest.mark.parametrize("t_max,s_max", [(24, 5), (36, 7)])
    def test_counts_match_the_sweep(self, t_max, s_max):
        w = default_window(t_max=t_max, s_max=s_max, v1_min=-7, v1_max=7)
        for pres in (quotient_presentation(), stride_presentation()):
            proof = d_squared_on_generators(pres, w)
            sweep = verify_d_squared(pres, w)
            assert proof.ok and sweep.ok
            assert proof.checked == sweep.checked > 100

    def test_broken_differential_fails_both(self):
        pres = broken_presentation()
        w = default_window(t_max=20, s_max=5, v1_min=-4, v1_max=4)
        assert not verify_d_squared(pres, w).ok
        proof = d_squared_on_generators(pres, w)
        assert not proof.ok
        assert {str(m) for m, _ in proof.failures} == {"v1", "alpha", "h(2,1)"}
        for m, twice in proof.failures:
            once = leibniz_reference_poly(pres, m)
            assert twice == leibniz_reference_poly(pres, once) != Polynomial.zero(pres.alphabet)

    def test_unpreserved_relation_fails_both(self):
        with pytest.raises(GF2PolyError, match="does not preserve the relation"):
            unpreserved_relation_presentation(PagePresentation)
        pres = unpreserved_relation_presentation()
        w = default_window(t_max=12, s_max=6, v1_min=0, v1_max=0)
        p = lambda s: Polynomial.parse(pres.alphabet, s)
        sweep = verify_d_squared(pres, w)
        assert (p("h(1,1)*h(3,1)"), p("h(2,1)*h(4,1)")) in sweep.failures
        proof = d_squared_on_generators(pres, w)
        assert proof.failures == [(p("h(2,1)*h(3,1)"), p("h(2,1)*h(4,1)"))]
        assert proof.checked == sweep.checked

    def test_missing_differential_raises(self):
        a = quotient_alphabet(1)
        pres = PagePresentation(a, SHIFT2, {"v1": Polynomial.parse(a, "alpha*h(1,1)^2")})
        w = default_window(t_max=10, s_max=3, v1_min=-2, v1_max=2)
        with pytest.raises(MissingDifferentialError):
            d_squared_on_generators(pres, w)


class TestApplyMonomialOracle:
    """apply_monomial against the Polynomial-level Leibniz sum, on every
    basis monomial of a small window."""

    @staticmethod
    def presentations():
        bench = Workbench(default_window(t_max=20, s_max=5, v1_min=-6, v1_max=6))
        yield bench.window, bench.presentation("EndM", 2)
        yield bench.window, bench.presentation("EndM", 3)
        yield bench.window, bench.presentation("S", 2)
        yield bench.window, bench.presentation("M", 2)
        small = default_window(t_max=32, s_max=6, v1_min=-6, v1_max=6)
        yield small, quotient_presentation(3)
        yield small, stride_presentation()

    def test_matches_leibniz_reference(self):
        checked = missing = nonzero = 0
        for window, pres in self.presentations():
            wb = pres.basis(window)
            for d in wb.degrees():
                for m in wb.basis(d):
                    try:
                        want = leibniz_reference(pres, m)
                    except MissingDifferentialError:
                        with pytest.raises(MissingDifferentialError):
                            pres.apply_monomial(m)
                        missing += 1
                        continue
                    got = pres.apply_monomial(m)
                    assert got == want, (pres.name, m)
                    checked += 1
                    nonzero += bool(got)
        assert checked > 1000 and nonzero > 100 and missing > 0


def reference_homology(pres, window):
    """Cycles, boundaries and representatives at every degree homology_page
    computes, from matrices assembled straight from apply_monomial, two per
    degree; with them, the matrix at every source degree it assembled."""
    wb = quotient_basis_by_filter(pres.alphabet, window, pres.relations)
    shift = pres.degree_shift

    def matrix(source, target):
        index = {m: i for i, m in enumerate(target)}
        rows = [0] * len(target)
        for j, m in enumerate(source):
            for term in pres.apply_monomial(m).terms:
                rows[index[term]] |= 1 << j
        return rows

    out = {}
    matrices = {}
    for d in wb.degrees():
        if not (wb.complete(d - shift) and wb.complete(d) and wb.complete(d + shift)):
            continue
        basis, below = wb.basis(d), wb.basis(d - shift)
        matrices[d] = matrix(basis, wb.basis(d + shift))
        matrices[d - shift] = matrix(below, basis)
        cycles = kernel_basis(matrices[d], len(basis))
        boundaries = Subspace(column_space_basis(matrices[d - shift], len(below)))
        out[d] = (Subspace(cycles), boundaries, subquotient_basis(cycles, boundaries))
    return out, matrices


@pytest.fixture(scope="module")
def page():
    w = default_window(t_max=40, s_max=8, v1_min=-8, v1_max=8)
    return homology_page(quotient_presentation(), w)


class TestHomology:
    def test_killed_class(self, page):
        assert page.dim(Multidegree(2, 3, 0)) == 0

    def test_surviving_torsion_class(self, page):
        d = Multidegree(0, 1, 1)
        assert page.dim(d) == 1
        (rep,) = page.representatives(d)
        assert str(rep) == "v1*alpha"

    def test_odd_power_dies_even_survives(self, page):
        assert page.dim(Multidegree(0, 2, 1)) == 0
        assert page.dim(Multidegree(0, 4, 2)) == 1

    def test_untrusted_raises(self, page):
        with pytest.raises(UntrustedDegreeError):
            page.dim(Multidegree(8, 16, 8))

    def test_representatives_are_cycles_not_boundaries(self, page):
        for d in [Multidegree(0, 1, 1), Multidegree(1, 3, 1), Multidegree(0, 4, 2)]:
            for rep in page.representatives(d):
                assert page.presentation.apply(rep).is_zero()
                assert page.class_is_nonzero(rep, d)

    def test_matches_reference_assembly(self):
        w = default_window(t_max=32, s_max=6, v1_min=-6, v1_max=6)
        for pres in (quotient_presentation(3), stride_presentation()):
            page = homology_page(pres, w)
            want, matrices = reference_homology(pres, w)
            assert page.degrees() == sorted(want)
            assert any(boundaries.dim for _, boundaries, _ in want.values())
            assert any(reps for _, _, reps in want.values())
            for d, (cycles, boundaries, reps) in want.items():
                assert page._homology_at(d).cycles == cycles
                assert page.boundaries_subspace(d) == boundaries
                assert [page.vector_of(p, d) for p in page.representatives(d)] == reps
            assert any(any(rows) for rows in matrices.values())
            for c, rows in matrices.items():
                assert page.matrix(c) == rows

    def test_trusted_is_the_three_complete_rule(self):
        """trusted(d) answers stored degrees from the page and the rest by
        completeness at d and d +- shift; the two must agree everywhere,
        also at the empty-basis degrees the decomposition scan asks about."""
        w = default_window(t_max=24, s_max=5, v1_min=-5, v1_max=5)
        for pres in (quotient_presentation(3), stride_presentation()):
            page = homology_page(pres, w)
            wb, shift = pres.basis(w), pres.degree_shift
            empty_trusted = 0
            for s in range(w.s_range[0] - 4, w.s_range[1] + 5):
                for t in range(w.t_range[0] - 3, w.t_range[1] + 4):
                    for u in range(w.u_range[0] - 3, w.u_range[1] + 4):
                        d = Multidegree(s, t, u)
                        want = wb.complete(d) and wb.complete(d - shift) and wb.complete(d + shift)
                        assert page.trusted(d) == want, d
                        empty_trusted += want and not wb.basis(d)
            assert empty_trusted
            assert page.degrees() == [d for d in wb.degrees() if page.trusted(d)]

    def test_image_outside_basis_names_page_and_degree(self):
        pres = IdentityPresentation(quotient_alphabet(2), SHIFT2, {}, name="broken")
        w = default_window(t_max=12, s_max=3, v1_min=-3, v1_max=3)
        with pytest.raises(GF2PolyError, match=r"^broken: image of a degree \(.+\) monomial misses the basis at \(.+\)$"):
            homology_page(pres, w)

    def test_euler_characteristic_consistency(self, page):
        # dim H = dim Z - dim B at every trusted degree
        for d in page.degrees()[:200]:
            cycles, boundaries = page.dims_at(d)
            assert page.dim(d) == cycles - boundaries


    def test_nonzero_d_squared_is_refused(self):
        # d² = 0 on every generator, but d does not preserve the relation,
        # so on the quotient d(d(h(1,1)*h(3,1))) = h(2,1)*h(4,1)
        pres = unpreserved_relation_presentation()
        pres.name = "unpreserved"
        w = default_window(t_max=12, s_max=6, v1_min=0, v1_max=0)
        with pytest.raises(
            GF2PolyError, match=r"^unpreserved: d squared is nonzero from degree \(2, 4, 0\) through \(3, 5, 0\)$"
        ):
            homology_page(pres, w)

    def test_broken_presentation_is_refused(self):
        # its d(alpha) is off-degree, so the matrices themselves cannot be
        # assembled, before any product of two of them is taken
        w = default_window(t_max=20, s_max=5, v1_min=-4, v1_max=4)
        with pytest.raises(GF2PolyError, match=r"^page: image of a degree \(.+\) monomial misses the basis"):
            homology_page(broken_presentation(), w)

    def test_bases_are_built_only_where_asked(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dga, "kernel_basis", lambda rows, n: calls.append(n) or kernel_basis(rows, n))
        w = default_window(t_max=32, s_max=6, v1_min=-6, v1_max=6)
        page = homology_page(quotient_presentation(3), w)
        for d in page.degrees():
            page.dim(d), page.dims_at(d)
        assert calls == []
        d = Multidegree(0, 1, 1)
        first = page.representatives(d)
        assert page.class_is_nonzero(first[0], d)
        assert len(calls) == 1
        assert page.representatives(d) == first and len(calls) == 1


# ---- rank-nullity and the Euler characteristic on random complexes ----


def _left_kernel(rows, n_rows):
    """Every b with the sum of the rows at its set bits zero (b·M = 0), by
    brute force over all 2^n_rows vectors."""
    out = []
    for b in range(1 << n_rows):
        acc = 0
        for i in range(n_rows):
            if b >> i & 1:
                acc ^= rows[i]
        if not acc:
            out.append(b)
    return out


class MatrixPresentation(PagePresentation):
    """A page whose d is given by one matrix per source s (rows one per
    target basis monomial) over the basis of one window: d of a basis
    monomial is the target monomials at the set bits of its column."""

    def __init__(self, alphabet, shift, window):
        super().__init__(alphabet, shift, {}, name="random")
        self.window = window
        self.maps = {}

    def apply_monomial(self, mono):
        wb = self.basis(self.window)
        s = mono_degree(self.alphabet, mono).s
        source = wb.basis(Multidegree(s, 0, 0))
        target = wb.basis(Multidegree(s + 2, 0, 0))
        j = source.index(mono)
        return Polynomial(self.alphabet, [target[i] for i, row in enumerate(self.maps[s]) if row >> j & 1])


@st.composite
def random_complexes(draw, square_zero=True):
    """A page over n nilpotent generators of degree (1, 0, 0) with shift
    (2, 0, 0): two bounded complexes, on even and on odd s, of dimensions
    C(n, s).  Each map is a random matrix (rows one per target basis
    monomial); with square_zero each row of a map lies in the left kernel
    of the map before it, so B·A = 0, and otherwise some B·A is nonzero."""
    n = draw(st.integers(2, 5))
    a = Alphabet([Generator(f"h({i},1)", Multidegree(1, 0, 0), nilpotent_square=True) for i in range(1, n + 1)])
    w = TruncationWindow((0, 0), (0, n + 2), (0, 0), (0, 0))
    pres = MatrixPresentation(a, Multidegree(2, 0, 0), w)
    wb = pres.basis(w)
    dims = [len(wb.basis(Multidegree(s, 0, 0))) for s in range(n + 3)]
    maps = {}
    for s in range(n + 1):
        n_src, n_tgt = dims[s], dims[s + 2]
        prev = maps.get(s - 2)
        if square_zero and prev is not None:
            # rows of this map vanish on the image of the previous one
            allowed = _left_kernel(prev, n_src)
            rows = [draw(st.sampled_from(allowed)) for _ in range(n_tgt)]
        else:
            rows = [draw(st.integers(0, (1 << n_src) - 1)) for _ in range(n_tgt)]
        maps[s] = rows
    if not square_zero:
        assume(any(any(_composite(maps[s + 2], maps[s])) for s in range(n - 1)))
    pres.maps = maps
    return pres, w, dims, maps


def _composite(outgoing, incoming):
    """Rows of outgoing·incoming."""
    out = []
    for row in outgoing:
        acc = 0
        for i, r in enumerate(incoming):
            if row >> i & 1:
                acc ^= r
        out.append(acc)
    return out


class TestRankNullityOracle:
    @settings(max_examples=60, deadline=None)
    @given(random_complexes())
    def test_dimensions_match_bases_and_euler_characteristic(self, case):
        pres, w, dims, maps = case
        page = homology_page(pres, w)
        n = len(dims) - 3
        homology = []
        for s in range(n + 1):
            d = Multidegree(s, 0, 0)
            assert page.trusted(d)
            incoming = maps.get(s - 2, [0] * dims[s])
            cycles = kernel_basis(maps[s], dims[s])
            boundaries = Subspace(column_space_basis(incoming, dims[s - 2] if s >= 2 else 0))
            assert page.dims_at(d) == (len(cycles), boundaries.dim)
            assert page.dim(d) == len(subquotient_basis(cycles, boundaries))
            homology.append(page.dim(d))
        for parity in (0, 1):
            chain = range(parity, n + 1, 2)
            euler = sum((-1) ** (s // 2) * dims[s] for s in chain)
            assert euler == sum((-1) ** (s // 2) * homology[s] for s in chain)

    @settings(max_examples=30, deadline=None)
    @given(random_complexes(square_zero=False))
    def test_nonzero_product_is_refused(self, case):
        pres, w, dims, maps = case
        with pytest.raises(GF2PolyError, match=r"^random: d squared is nonzero from degree"):
            homology_page(pres, w)


class TestPresentationPage:
    def test_dims_and_trust(self):
        pres = quotient_presentation(2)
        w = default_window(t_max=20, s_max=4, v1_min=-4, v1_max=4)
        page = PresentationPage(pres, w)
        assert page.dim(Multidegree(2, 3, 0)) == 1  # alpha h^2 not a relation here
        assert page.dim(Multidegree(0, -1, 0)) == 1  # alpha itself
        with pytest.raises(UntrustedDegreeError):
            page.dim(Multidegree(5, 10, 0))

    def test_relations_thin_the_basis(self):
        pres = stride_presentation()
        w = default_window(t_max=20, s_max=4, v1_min=-4, v1_max=4)
        page = PresentationPage(pres, w)
        assert page.dim(Multidegree(2, 3, 0)) == 0  # alpha h^2 is a relation
        assert page.dim(Multidegree(0, 0, 2)) == 0  # alpha' alpha' and v1 alpha alpha' die
        assert page.dim(Multidegree(0, 3, 2)) == 1  # v1^2 alpha' survives (v1 alpha alpha' dies too)


def presentation_page_probes(pres, w):
    """Compare PresentationPage.trusted with the completeness of the basis
    on every degree in and around the box, s < 0 included; returns how
    many in-window degrees the v1 range clipped."""
    page = PresentationPage(pres, w)
    wb = pres.basis(w)
    clipped = 0
    for s in range(-2, w.s_range[1] + 3):
        for t in range(w.t_range[0] - 3, w.t_range[1] + 4):
            for u in range(w.u_range[0] - 3, w.u_range[1] + 4):
                d = Multidegree(s, t, u)
                assert page.trusted(d) == wb.complete(d), d
                if page.trusted(d):
                    assert page.dims_at(d) == (len(wb.basis(d)), 0), d
                else:
                    with pytest.raises(UntrustedDegreeError):
                        page.dim(d)
                clipped += w.contains(d) and not wb.complete(d)
    assert page.degrees() == [d for d in wb.degrees() if wb.complete(d)]
    return clipped


class TestPresentationPageTrust:
    """A PresentationPage is a _PageDims with shift 0, so its trust must be
    exactly the completeness of the window basis."""

    @settings(max_examples=40, deadline=None)
    @given(st.booleans(), st.integers(-1, 24), st.integers(0, 4), st.integers(-4, 0), st.integers(0, 4))
    def test_trusted_is_basis_completeness(self, strided, t_max, s_max, v1_min, v1_span):
        pres = stride_presentation() if strided else quotient_presentation(3)
        presentation_page_probes(pres, default_window(t_max, s_max, v1_min, v1_min + v1_span))

    def test_v1_clipping_is_untrusted(self):
        # alphap and the x(n) carry u = 1, so a degree inside the u range
        # can need a v1 exponent below the window's
        w = default_window(t_max=24, s_max=4, v1_min=-2, v1_max=2)
        assert presentation_page_probes(stride_presentation(), w) > 0


class TestDimensionTable:
    def test_round_trips(self):
        t = DimensionTable(
            ("s", "t", "u"),
            {(0, 1, 1): 1, (2, 3, 0): 2, (-1, -2, -3): 4},
            {"page": "3", "note": "x=1"},
        )
        assert t.to_tsv() == (
            "# note=x=1\n"
            "# page=3\n"
            "s\tt\tu\tdim\n"
            "-1\t-2\t-3\t4\n"
            "0\t1\t1\t1\n"
            "2\t3\t0\t2\n"
        )
        assert t.to_json_obj() == {
            "coords": ["s", "t", "u"],
            "meta": {"page": "3", "note": "x=1"},
            "rows": [[-1, -2, -3, 4], [0, 1, 1, 1], [2, 3, 0, 2]],
        }

    def test_missing_rows_are_zero(self):
        t = DimensionTable(("p", "q"), {(2, 9): 1})
        assert t.dim(2, 9) == 1
        assert t.dim(0, 1) == 0

    def test_from_page(self):
        pres = quotient_presentation(2)
        w = default_window(t_max=16, s_max=4, v1_min=-3, v1_max=3)
        page = homology_page(pres, w)
        table = page_dimension_table(page, meta={"kind": "homology"})
        assert table.dim(0, 1, 1) == 1
        assert all(dim > 0 for _, dim in table.sorted_items())
