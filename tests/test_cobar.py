import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moorev1.cobar import (
    COALGEBRA,
    CobarCochain,
    CobarComplex,
    Comodule,
    QuotientCoalgebra,
    class_identity_check,
    cobar_differential,
    endomorphism_comodule,
    ext_dimensions,
    moore_comodule,
    trivial_comodule,
    verify_cobar_d_squared,
)
from moorev1.gf2poly import GF2PolyError
from oracles import (
    PRODUCTS,
    coalgebra_is_coassociative,
    cobar_ext_dim,
    cobar_d_squared_by_sweep,
    comodule_is_valid,
    endomorphism_products,
)


@pytest.fixture(scope="module")
def endo():
    return endomorphism_comodule()


@pytest.fixture(scope="module")
def moore():
    return moore_comodule()


class TestCoalgebra:
    def test_reduced_diagonal_table(self):
        assert COALGEBRA.delta_reduced(1) == ()
        assert COALGEBRA.delta_reduced(2) == ()
        assert set(COALGEBRA.delta_reduced(3)) == {(1, 2), (2, 1)}

    def test_coassociative(self):
        assert coalgebra_is_coassociative(COALGEBRA)

    def test_full_diagonal_has_primitive_parts(self):
        assert set(COALGEBRA.delta_full(2)) == {(0, 2), (2, 0)}

    def test_diagonals_built_once_per_instance(self):
        c = QuotientCoalgebra()
        for i in range(c.height):
            assert c.delta_full(i) is c.delta_full(i)
            assert c.delta_reduced(i) is c.delta_reduced(i)
            assert c.delta_full(i) == COALGEBRA.delta_full(i)
        with pytest.raises(GF2PolyError):
            c.delta_full(c.height)
        with pytest.raises(GF2PolyError):
            c.delta_reduced(-1)


class TestComodules:
    def test_all_verify(self, endo, moore):
        assert set(PRODUCTS) == {trivial_comodule().name, endo.name}
        for com in (trivial_comodule(), moore, endo):
            assert comodule_is_valid(com)

    def test_moore_coactions(self, moore):
        assert moore.coact("x0") == frozenset({(0, "x0")})
        assert moore.coact("x1") == frozenset({(0, "x1"), (1, "x0")})

    def test_endomorphism_coactions(self, endo):
        assert endo.coact("gamma") == frozenset({(0, "gamma"), (1, "1"), (2, "alpha")})
        assert endo.coact("alpha*gamma") == frozenset({(0, "alpha*gamma"), (1, "alpha")})
        assert endo.coact("alpha") == frozenset({(0, "alpha")})
        assert endo.coact("1") == frozenset({(0, "1")})

    def test_endomorphism_degrees(self, endo):
        assert dict(zip(endo.labels, endo.degree_of)) == {
            "1": 0,
            "alpha": -1,
            "gamma": 1,
            "alpha*gamma": 0,
        }

    def test_multiplication_table(self, endo):
        product = endomorphism_products()
        assert set(product) == {(a, b) for a in endo.labels for b in endo.labels}
        assert product[("alpha", "alpha")] == frozenset()
        assert product[("gamma", "gamma")] == frozenset()
        assert product[("alpha", "gamma")] == frozenset({"alpha*gamma"})
        # the two products differ by the unit
        assert product[("gamma", "alpha")] == frozenset({"1", "alpha*gamma"})
        assert product[("alpha*gamma", "alpha*gamma")] == frozenset({"alpha*gamma"})
        assert product[("alpha*gamma", "alpha")] == frozenset({"alpha"})
        assert product[("gamma", "alpha*gamma")] == frozenset({"gamma"})

    def test_unknown_label(self, moore):
        with pytest.raises(GF2PolyError):
            moore.coact("x2")


class TestDifferential:
    def test_identity_coboundary(self, endo):
        dg = cobar_differential(CobarCochain.basis_element(endo, (), "gamma"))
        expected = CobarCochain.basis_element(endo, (1,), "1") + CobarCochain.basis_element(
            endo, (2,), "alpha"
        )
        assert dg == expected
        assert str(dg) == "xi1|1 + xi1^2|alpha"

    def test_moore_coboundary(self, moore):
        dx1 = cobar_differential(CobarCochain.basis_element(moore, (), "x1"))
        assert dx1 == CobarCochain.basis_element(moore, (1,), "x0")
        assert cobar_differential(dx1).is_zero()

    def test_bidegree_shift(self, endo):
        c = CobarCochain.basis_element(endo, (2, 3), "alpha")
        s, t = c.bidegree()
        assert (s, t) == (2, 4)
        dc = cobar_differential(c)
        assert dc.bidegree() == (3, 4)

    def test_d_squared_exhaustive(self, endo, moore):
        for com in (trivial_comodule(), moore, endo):
            report = verify_cobar_d_squared(com, 5, (-1, 12))
            assert report.ok
            assert report.checked > 200

    def test_mixed_bidegree_rejected(self, endo):
        c = CobarCochain.basis_element(endo, (1,), "1") + CobarCochain.basis_element(
            endo, (1,), "alpha"
        )
        with pytest.raises(GF2PolyError):
            c.bidegree()


class TestExtDimensions:
    # the Koszul complex is cheap, so the closed forms are checked on a box
    # far past the cobar envelope
    S_MAX, T_RANGE = 40, (-1, 100)

    def check(self, com, expected):
        table = ext_dimensions(com, self.S_MAX, self.T_RANGE)
        assert table.meta == {"comodule": com.name, "s_max": "40", "t_range": "-1..100"}
        for s in range(self.S_MAX + 1):
            for t in range(self.T_RANGE[0], self.T_RANGE[1] + 1):
                assert table.dim(s, t) == expected(s, t), (s, t)
        return table

    def test_trivial_closed_form(self):
        # polynomial algebra on classes in bidegrees (1,1) and (1,2)
        table = self.check(trivial_comodule(), lambda s, t: int(s <= t <= 2 * s))
        assert table.dim(2, 3) == 1

    def test_endomorphism_closed_form(self, endo):
        table = self.check(endo, lambda s, t: int(t == 2 * s) + int(t == 2 * s - 1))
        assert table.dim(1, 2) == 1

    def test_moore_closed_form(self, moore):
        table = self.check(moore, lambda s, t: int(t == 2 * s))
        assert table.dim(1, 1) == 0


def eta_cone_comodule():
    """Cells in degrees 0 and 2 joined by xi1^2 alone: Ext is F2[h10]."""
    return Comodule("eta-cone", ("y0", "y2"), (0, 2), (((0, "y0"),), ((0, "y2"), (2, "y0"))))


def cofree_comodule():
    """The coalgebra coacting on itself: Ext is F2 in bidegree (0, 0)."""
    powers = range(COALGEBRA.height)
    labels = tuple(f"xi1^{i}" for i in powers)
    coaction = tuple(tuple((j, labels[k]) for j, k in COALGEBRA.delta_full(i)) for i in powers)
    return Comodule("cofree", labels, tuple(powers), coaction)


def non_coassociative_comodule():
    """The endomorphism comodule with xi1 (x) alpha*gamma added to the
    coaction of gamma: (1 (x) psi)psi(gamma) then holds xi1 (x) xi1 (x)
    alpha, which (Delta (x) 1)psi(gamma) lacks."""
    endo = endomorphism_comodule()
    table = list(endo.coaction_table)
    i = endo.index("gamma")
    table[i] = tuple(sorted(table[i] + ((1, "alpha*gamma"),)))
    return Comodule(endo.name, endo.labels, endo.degree_of, tuple(table))


def shifted(com, k):
    return Comodule(f"{com.name}[{k}]", com.labels, tuple(d + k for d in com.degree_of), com.coaction_table)


def direct_sum(a, b):
    def part(com, tag):
        table = tuple(tuple((i, tag + m) for i, m in psi) for psi in com.coaction_table)
        return tuple(tag + m for m in com.labels), table

    (la, ca), (lb, cb) = part(a, "L"), part(b, "R")
    return Comodule(f"({a.name}+{b.name})", la + lb, a.degree_of + b.degree_of, ca + cb)


def tensor(a, b):
    """psi(m n) = sum of xi1^(i+j) (x) m' n' over xi1^i (x) m' in psi(m) and
    xi1^j (x) n' in psi(n), with i + j < 4."""
    labels, degrees, table = [], [], []
    for m, dm, psi_m in zip(a.labels, a.degree_of, a.coaction_table):
        for n, dn, psi_n in zip(b.labels, b.degree_of, b.coaction_table):
            labels.append(f"({m}|{n})")
            degrees.append(dm + dn)
            terms = set()
            for i, m2 in psi_m:
                for j, n2 in psi_n:
                    if i + j < COALGEBRA.height:
                        terms ^= {(i + j, f"({m2}|{n2})")}
            table.append(tuple(sorted(terms)))
    return Comodule(f"({a.name}*{b.name})", tuple(labels), tuple(degrees), tuple(table))


def random_comodules():
    base = st.sampled_from([trivial_comodule(), moore_comodule(), endomorphism_comodule()])
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.tuples(kids, st.integers(-3, 3)).map(lambda p: shifted(*p)),
            st.tuples(kids, kids).map(lambda p: direct_sum(*p)),
            st.tuples(kids, kids).map(lambda p: tensor(*p)),
        ),
        max_leaves=3,
    )


class TestKoszulAgainstCobar:
    """ext_dimensions uses the Koszul complex; the cobar complex is the
    independent oracle on the envelope the CLI exports, for the three
    comodules of the workbench and two that exercise the xi1^2 and xi1^3
    coaction terms."""

    @pytest.mark.parametrize(
        "make",
        [trivial_comodule, moore_comodule, endomorphism_comodule, eta_cone_comodule, cofree_comodule],
    )
    def test_matches_cobar_on_envelope(self, make):
        com = make()
        assert comodule_is_valid(com)
        table = ext_dimensions(com, 8, (-1, 16))
        cx = CobarComplex(com)
        for s in range(9):
            for t in range(-1, 17):
                assert table.dim(s, t) == cobar_ext_dim(cx, s, t), (com.name, s, t)

    @settings(max_examples=30, deadline=None)
    @given(random_comodules())
    def test_matches_cobar_on_random_comodules(self, com):
        assume(len(com.labels) <= 16)
        assert comodule_is_valid(com)
        table = ext_dimensions(com, 4, (-4, 12))
        cx = CobarComplex(com)
        for s in range(5):
            for t in range(-4, 13):
                assert table.dim(s, t) == cobar_ext_dim(cx, s, t), (com.name, s, t)

    def test_test_comodules_closed_forms(self):
        eta = ext_dimensions(eta_cone_comodule(), 8, (-1, 16))
        assert eta.rows == {(s, s): 1 for s in range(9)}
        assert ext_dimensions(cofree_comodule(), 8, (-1, 16)).rows == {(0, 0): 1}


TEST_COMODULES = [
    trivial_comodule,
    moore_comodule,
    endomorphism_comodule,
    eta_cone_comodule,
    cofree_comodule,
    non_coassociative_comodule,
]


class TestShortCellProof:
    """verify_cobar_d_squared proves d² = 0 on the short cells and counts
    the box; the sweep of every cell through cobar_differential twice is its
    oracle."""

    @pytest.mark.parametrize("make", TEST_COMODULES)
    def test_matches_the_sweep_on_the_verify_box(self, make):
        com = make()
        proof = verify_cobar_d_squared(com, 6, (-1, 12))
        sweep = cobar_d_squared_by_sweep(com, 6, (-1, 12))
        assert (proof.ok, proof.checked) == (sweep.ok, sweep.checked)
        assert proof.ok == (make is not non_coassociative_comodule)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(TEST_COMODULES),
        st.integers(0, 5),
        st.integers(-4, 8),
        st.integers(0, 10),
    )
    def test_matches_the_sweep_on_random_boxes(self, make, s_max, t_lo, t_span):
        com = make()
        t_range = (t_lo, t_lo + t_span)
        proof = verify_cobar_d_squared(com, s_max, t_range)
        sweep = cobar_d_squared_by_sweep(com, s_max, t_range)
        assert (proof.ok, proof.checked) == (sweep.ok, sweep.checked)

    def test_the_broken_coaction_fails_on_its_label(self):
        com = non_coassociative_comodule()
        assert not comodule_is_valid(com)
        proof = verify_cobar_d_squared(com, 6, (-1, 12))
        assert [str(c) for c, _ in proof.failures] == ["gamma"]
        assert str(proof.failures[0][1]) == "xi1|xi1|alpha"

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(TEST_COMODULES[:-1]),
        st.integers(0, 4),
        st.integers(-4, 8),
        st.integers(0, 10),
    )
    def test_a_non_coassociative_diagonal_matches_the_sweep(self, make, s_max, t_lo, t_span):
        """xi1^2 -> xi1|xi1 and xi1^3 -> xi1|xi1^2 alone: d²(xi1^3) =
        xi1|xi1|xi1.  The defect of the entry xi1^3 is checked once, and
        only where a cell of the box carries xi1^3."""
        broken = {1: (), 2: ((1, 1),), 3: ((1, 2),)}
        com = make()
        t_range = (t_lo, t_lo + t_span)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(COALGEBRA, "delta_reduced", broken.__getitem__)
            proof = verify_cobar_d_squared(com, s_max, t_range)
            sweep = cobar_d_squared_by_sweep(com, s_max, t_range)
        assert (proof.ok, proof.checked) == (sweep.ok, sweep.checked)
        assert sum(str(c).startswith("xi1^3|") for c, _ in proof.failures) <= 1

    def test_a_non_coassociative_diagonal_fails_on_its_entry(self, moore):
        broken = {1: (), 2: ((1, 1),), 3: ((1, 2),)}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(COALGEBRA, "delta_reduced", broken.__getitem__)
            proof = verify_cobar_d_squared(moore, 6, (-1, 12))
        assert [(str(c), str(d)) for c, d in proof.failures] == [("xi1^3|x0", "xi1|xi1|xi1|x0")]


class TestClassIdentity:
    def test_identity_class_dies(self, endo):
        c = CobarCochain.basis_element(endo, (1,), "1") + CobarCochain.basis_element(
            endo, (2,), "alpha"
        )
        assert class_identity_check(endo, c) == "zero-in-cohomology"

    def test_moore_verdicts(self, moore):
        assert class_identity_check(moore, CobarCochain.basis_element(moore, (1,), "x0")) == "zero-in-cohomology"
        assert class_identity_check(moore, CobarCochain.basis_element(moore, (2,), "x0")) == "nonzero"
        assert class_identity_check(moore, CobarCochain.basis_element(moore, (), "x1")) == "not-a-cycle"

    def test_surviving_zero_cochain(self, moore):
        assert class_identity_check(moore, CobarCochain(moore)) == "zero-in-cohomology"
        assert class_identity_check(moore, CobarCochain.basis_element(moore, (), "x0")) == "nonzero"


class TestComplexPlumbing:
    def test_basis_sizes(self, endo):
        cx = CobarComplex(endo)
        # s=1, t=1: xi1|1, xi1|alpha*gamma, xi1^2|alpha
        assert len(cx.basis(1, 1)) == 3
        assert cx.basis(0, -1) == (((), "alpha"),)
        assert cx.basis(2, 1) == (((1, 1), "alpha"),)

    def test_ext_dim_rank_nullity(self, moore):
        cx = CobarComplex(moore)
        assert cobar_ext_dim(cx, 0, 0) == 1
        assert cobar_ext_dim(cx, 1, 2) == 1
        assert cobar_ext_dim(cx, 1, 1) == 0
