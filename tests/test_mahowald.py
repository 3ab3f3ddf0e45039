import pytest

from moorev1.dga import UntrustedDegreeError, verify_d_squared
from moorev1.gf2poly import GF2PolyError, Multidegree, Polynomial
from moorev1.mahowald import (
    MAHOWALD_SHIFT,
    _box_window,
    mahowald_presentation,
    x_alphabet,
    x_degree,
    zbh_bases,
)
from oracles import zbh_class_nonzero, zbh_is_boundary, zbh_is_cycle


@pytest.fixture(scope="module")
def tables():
    return zbh_bases(24, 132)


def test_squares_complex_forces_q_at_least_9p_over_2():
    """The bound the decomposition check's pattern sum rests on: the lowest
    nonempty q at each p is 9p/2 (x(1)^(p/2)) and odd p is empty."""
    box = zbh_bases(16, 90)
    lowest = {}
    for p in range(17):
        for q in range(91):
            if box.basis(p, q):
                lowest.setdefault(p, q)
    assert lowest == {p: 9 * p // 2 for p in range(0, 17, 2)}


def poly(tables, text):
    return Polynomial.parse(tables.alphabet, text)


def d_P(p):
    return mahowald_presentation(p.alphabet).apply(p)


class TestAlphabet:
    def test_generator_cutoff(self):
        assert x_alphabet(132).names() == ("x(1)", "x(2)", "x(3)", "x(4)", "x(5)")
        assert x_alphabet(9).names() == ("x(1)",)
        with pytest.raises(GF2PolyError):
            x_alphabet(8)

    def test_degrees(self):
        assert tuple(x_degree(1)) == (2, 9, 0)
        assert tuple(x_degree(3)) == (2, 33, 0)
        assert tuple(MAHOWALD_SHIFT) == (4, 10, 0)


class TestDerivation:
    def test_generator_values(self, tables):
        assert str(d_P(poly(tables, "x(2)"))) == "x(1)^3"
        assert d_P(poly(tables, "x(1)")).is_zero()
        assert str(d_P(poly(tables, "x(3)"))) == "x(1)*x(2)^2"

    def test_named_cycle(self, tables):
        # both terms map to x(1)^3 x(2)^2 and cancel
        assert d_P(poly(tables, "x(1)^2*x(3)+x(2)^3")).is_zero()

    def test_squares_are_cycles(self, tables):
        for text in ("x(2)", "x(3)", "x(1)*x(2)", "x(2)+x(3)"):
            sq = poly(tables, text) * poly(tables, text)
            assert d_P(sq).is_zero()

    def test_d_squared(self):
        report = verify_d_squared(mahowald_presentation(x_alphabet(80)), _box_window(16, 80))
        assert report.ok
        assert report.checked > 50

    def test_homogeneous_shift(self, tables):
        p = poly(tables, "x(4)")
        assert d_P(p).multidegree() == p.multidegree() + MAHOWALD_SHIFT


class TestHomologyClasses:
    # first few nonzero homology classes, pinned by membership
    NAMED = [
        ("1", 0, 0),
        ("x(1)", 2, 9),
        ("x(1)^2", 4, 18),
        ("x(2)^2", 4, 34),
        ("x(1)^2*x(3)+x(2)^3", 6, 51),
    ]

    def test_named_classes(self, tables):
        for text, p, q in self.NAMED:
            assert tables.h_dim(p, q) == 1, (p, q)
            assert zbh_class_nonzero(tables, poly(tables, text)), text

    def test_boundary_members(self, tables):
        for k in range(3, 10):
            assert zbh_is_boundary(tables, poly(tables, f"x(1)^{k}"))
        assert zbh_is_boundary(tables, poly(tables, "x(1)*x(2)^2"))
        assert not zbh_is_boundary(tables, poly(tables, "x(1)"))
        assert not zbh_is_boundary(tables, poly(tables, "x(1)^2"))

    def test_powers_of_x1_die_in_homology(self, tables):
        assert tables.h_dim(6, 27) == 0
        assert tables.h_dim(8, 36) == 0

    def test_low_boundary_slices(self, tables):
        # below q=43 the only boundaries are x(1)^3 and x(1)^4
        found = []
        for p in range(0, 25, 2):
            for q in range(0, 43):
                n = tables.b_dim(p, q)
                if n:
                    found.append((p, q, n))
        assert found == [(6, 27, 1), (8, 36, 1)]

    def test_rank_nullity(self, tables):
        for p in range(0, 25, 2):
            for q in range(0, 133):
                assert tables.h_dim(p, q) == tables.z_dim(p, q) - tables.b_dim(p, q)

    def test_odd_coordinates_empty(self, tables):
        # p is twice the monomial length and q = sum of odd degrees, so
        # q = p/2 (mod 2) for every monomial
        for p, q in [(1, 9), (2, 10), (3, 9)]:
            assert tables.z_dim(p, q) == 0


class TestQueries:
    @pytest.mark.parametrize("p_max, q_max", [(24, 132), (32, 216)])
    def test_box_reads_match_the_trusted_page(self, p_max, q_max):
        """dims and z/b/h_dim read the box without a trust test; at every
        (p, q) of the box they equal the page's trust-checked read."""
        box = zbh_bases(p_max, q_max)
        nonzero = 0
        for p in range(p_max + 1):
            for q in range(q_max + 1):
                z, b = box._page._require(Multidegree(p, q, 0))
                assert box.dims(p, q) == (z, b), (p, q)
                assert (box.z_dim(p, q), box.b_dim(p, q), box.h_dim(p, q)) == (z, b, z - b), (p, q)
                nonzero += z > 0
        assert nonzero > 50

    def test_outside_box_rejected(self, tables):
        with pytest.raises(UntrustedDegreeError):
            tables.h_dim(26, 9)
        for p, q in [(-1, 0), (0, -1), (25, 0), (0, 133)]:
            with pytest.raises(UntrustedDegreeError):
                tables.dims(p, q)
        with pytest.raises(UntrustedDegreeError):
            zbh_is_boundary(tables, Polynomial.parse(tables.alphabet, "x(1)^15"))

    def test_not_a_cycle_rejected(self, tables):
        with pytest.raises(GF2PolyError):
            zbh_class_nonzero(tables, poly(tables, "x(2)"))

    def test_is_cycle(self, tables):
        assert zbh_is_cycle(tables, poly(tables, "x(2)^2"))
        assert not zbh_is_cycle(tables, poly(tables, "x(2)"))
        # the page's cycles agree with applying d directly
        assert d_P(poly(tables, "x(2)^2")).is_zero()
        assert not d_P(poly(tables, "x(2)")).is_zero()


class TestExports:
    def test_dimension_table(self, tables):
        t = tables.dimension_table("H")
        assert t.dim(2, 9) == 1
        assert t.dim(6, 27) == 0
        assert t.coords == ("p", "q")

    def test_export_lines_format(self, tables):
        lines = tables.export_lines("H")
        assert "0 0 1" in lines
        assert "2 9 x(1)" in lines
        for line in lines:
            p, q, text = line.split(" ", 2)
            parsed = Polynomial.parse(tables.alphabet, text)
            assert parsed.multidegree() == (int(p), int(q), 0)

    def test_b_export_members(self, tables):
        lines = tables.export_lines("B")
        assert "6 27 x(1)^3" in lines

    def test_unknown_kind(self, tables):
        with pytest.raises(GF2PolyError):
            tables.dimension_table("Q")
