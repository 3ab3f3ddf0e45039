import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moorev1.gf2poly import (
    Alphabet,
    Generator,
    GF2PolyError,
    InvalidWindowError,
    Multidegree,
    ParseError,
    Polynomial,
    Quotient,
    TruncationWindow,
    UnknownGeneratorError,
    _PartPlan,
    count_window,
    default_window,
    enumerate_window,
    mono_degree,
    mono_divides,
    mono_mul,
    mono_sort_key,
    mono_str,
)
from moorev1.mahowald import _box_window
from moorev1.specseq import D2_SHIFT, D3_SHIFT, Workbench, sufficient_h_index, sufficient_x_index
from oracles import (
    complete_around_by_three,
    counts_by_enumeration,
    placements_per_j,
    quotient_basis_by_filter,
    window_basis_by_recursion,
)


def laurent_alphabet(n_max=5):
    gens = [Generator("v1", Multidegree(0, 2, 1), invertible=True)]
    gens += [Generator(f"h({n},1)", Multidegree(1, 2 ** (n + 1) - 2, 0)) for n in range(1, n_max + 1)]
    return Alphabet(gens)


def nilpotent_alphabet():
    return Alphabet(
        [
            Generator("v1", Multidegree(0, 2, 1), invertible=True),
            Generator("alpha", Multidegree(0, -1, 0), nilpotent_square=True),
            Generator("h(1,1)", Multidegree(1, 2, 0)),
            Generator("h(2,1)", Multidegree(1, 6, 0)),
        ]
    )


class TestMultidegree:
    def test_componentwise_arithmetic(self):
        a = Multidegree(1, 2, 3)
        b = Multidegree(4, -5, 6)
        for got, want in ((a + b, (5, -3, 9)), (a - b, (-3, 7, -3)), (a.scaled(3), (3, 6, 9))):
            assert type(got) is Multidegree and got == want and (got.s, got.t, got.u) == want

    def test_addition_is_not_tuple_concatenation(self):
        # tuples concatenate under +; the graded sum must not
        assert len(Multidegree(1, 1, 1) + Multidegree(0, 0, 0)) == 3

    def test_fields(self):
        d = Multidegree(1, 2, 3)
        assert (d.s, d.t, d.u) == (1, 2, 3)


class TestAlphabet:
    def test_canonical_order(self):
        gens = [
            Generator("h(2,1)", Multidegree(1, 6, 0)),
            Generator("v1", Multidegree(0, 2, 1), invertible=True),
            Generator("alpha", Multidegree(0, -1, 0), nilpotent_square=True),
            Generator("h(1,1)", Multidegree(1, 2, 0)),
        ]
        a = Alphabet(gens)
        assert a.names() == ("v1", "alpha", "h(1,1)", "h(2,1)")
        assert a.v1_index == 0

    def test_single_invertible(self):
        with pytest.raises(GF2PolyError, match="at most one invertible"):
            Alphabet(
                [
                    Generator("v1", Multidegree(0, 2, 1), invertible=True),
                    Generator("alphap", Multidegree(0, 1, 1), invertible=True),
                ]
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(GF2PolyError):
            Alphabet([Generator("h(1,1)", Multidegree(1, 2, 0))] * 2)

    def test_names_outside_the_grammar_rejected(self):
        # cobar's xi1 is a power in its own coalgebra, not a generator name here
        for name in ("xi1", "h(1)", "x(1,1)", "beta"):
            with pytest.raises(GF2PolyError, match="grammar"):
                Generator(name, Multidegree(0, 1, 0))
        with pytest.raises(ParseError):
            Polynomial.parse(laurent_alphabet(), "xi1")

    def test_stride_requires_invertible(self):
        with pytest.raises(GF2PolyError):
            Generator("alpha", Multidegree(0, -1, 0), stride=2)


class TestPolynomial:
    def test_addition_cancels(self):
        a = laurent_alphabet()
        h = Polynomial.gen(a, "h(1,1)")
        assert (h + h).is_zero()
        assert str(h + h) == "0"

    def test_multiplication_collects_exponents(self):
        a = laurent_alphabet()
        v = Polynomial.gen(a, "v1", -2)
        h = Polynomial.gen(a, "h(1,1)")
        p = v * h * h
        assert str(p) == "v1^-2*h(1,1)^2"

    def test_nilpotent_square_vanishes(self):
        a = nilpotent_alphabet()
        al = Polynomial.gen(a, "alpha")
        assert (al * al).is_zero()
        # cross terms cancel too: (alpha + h)(alpha + h) = h^2
        h = Polynomial.gen(a, "h(1,1)")
        assert (al + h) * (al + h) == h * h

    def test_multidegree_of_worked_monomial(self):
        a = laurent_alphabet()
        p = Polynomial.parse(a, "v1^-2*h(1,1)^3*h(3,1)")
        assert p.multidegree() == Multidegree(4, 16, -2)

    def test_multidegree_rejects_inhomogeneous(self):
        a = laurent_alphabet()
        p = Polynomial.parse(a, "h(1,1)+h(2,1)")
        with pytest.raises(GF2PolyError):
            p.multidegree()

    def test_zero_multidegree_is_none(self):
        a = laurent_alphabet()
        assert Polynomial.zero(a).multidegree() is None

    def test_negative_exponent_needs_invertible(self):
        a = laurent_alphabet()
        with pytest.raises(GF2PolyError):
            Polynomial.gen(a, "h(1,1)", -1)

    def test_stride_enforced(self):
        a = Alphabet(
            [
                Generator("v1", Multidegree(0, 2, 1), invertible=True, stride=2),
                Generator("h(1,1)", Multidegree(1, 2, 0)),
            ]
        )
        assert str(Polynomial.gen(a, "v1", 4)) == "v1^4"
        with pytest.raises(GF2PolyError):
            Polynomial.gen(a, "v1", 3)
        with pytest.raises(ParseError):
            Polynomial.parse(a, "v1^-3")

    def test_alphabet_mismatch(self):
        a = laurent_alphabet()
        b = nilpotent_alphabet()
        with pytest.raises(GF2PolyError):
            Polynomial.gen(a, "h(1,1)") + Polynomial.gen(b, "h(1,1)")


class TestParseFormat:
    def test_round_trip(self):
        a = nilpotent_alphabet()
        texts = [
            "0",
            "1",
            "alpha",
            "v1^-1*h(2,1)+h(1,1)^3",
            "v1^2*alpha*h(1,1)^2",
            "1+alpha",
        ]
        for text in texts:
            p = Polynomial.parse(a, text)
            assert Polynomial.parse(a, str(p)) == p

    def test_terms_sorted_canonically(self):
        a = nilpotent_alphabet()
        p = Polynomial.parse(a, "h(1,1)^3 + v1^-1*h(2,1)")
        q = Polynomial.parse(a, "v1^-1*h(2,1) + h(1,1)^3")
        assert str(p) == str(q) == "v1^-1*h(2,1)+h(1,1)^3"

    def test_whitespace_tolerated(self):
        a = nilpotent_alphabet()
        assert Polynomial.parse(a, " v1 ^ 2 * h( 1 , 1 ) ") == Polynomial.parse(a, "v1^2*h(1,1)")

    def test_alphap_not_swallowed_by_alpha(self):
        a = Alphabet(
            [
                Generator("alpha", Multidegree(0, -1, 0), nilpotent_square=True),
                Generator("alphap", Multidegree(0, 1, 1), nilpotent_square=True),
            ]
        )
        p = Polynomial.parse(a, "alphap")
        assert str(p) == "alphap"
        assert p.multidegree() == Multidegree(0, 1, 1)

    def test_parse_nilpotent_square_is_zero(self):
        a = nilpotent_alphabet()
        assert Polynomial.parse(a, "alpha^2").is_zero()
        assert Polynomial.parse(a, "alpha*v1*alpha").is_zero()

    def test_repeated_factor_collects(self):
        a = laurent_alphabet()
        assert str(Polynomial.parse(a, "h(1,1)*h(1,1)")) == "h(1,1)^2"
        assert str(Polynomial.parse(a, "v1*v1^-1")) == "1"

    def test_unknown_generator(self):
        a = laurent_alphabet()
        with pytest.raises(UnknownGeneratorError) as exc:
            Polynomial.parse(a, "h(1,1)+x(1)")
        assert exc.value.position == 7

    def test_syntax_errors_carry_position(self):
        a = laurent_alphabet()
        for text, pos in [
            ("h(1,1)++h(1,1)", 7),
            ("*h(1,1)", 0),
            ("h(1,1)^", 7),
            ("@", 0),
            ("v1 + h(1,1)^-1", 5),
            ("h(1,1)*v1 + v1*h(1,1)^-2*h(1,1)", 15),
        ]:
            with pytest.raises(ParseError) as exc:
                Polynomial.parse(a, text)
            assert exc.value.position == pos

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError):
            Polynomial.parse(laurent_alphabet(), "   ")


class TestWindow:
    def test_empty_ranges_rejected(self):
        with pytest.raises(InvalidWindowError):
            TruncationWindow((1, -1), (0, 4), (0, 10), (-2, 2))

    def test_contains(self):
        w = TruncationWindow((-2, 2), (0, 4), (-5, 10), (-2, 2))
        assert w.contains(Multidegree(0, 0, 0))
        assert not w.contains(Multidegree(5, 0, 0))
        assert not w.contains(Multidegree(0, 11, 0))

    def test_default_window_generator_cutoffs(self):
        # most negative v1 exponent extends the reachable internal degree
        assert sufficient_h_index(64, -16) == 5
        assert sufficient_x_index(64, -16) == 4
        assert sufficient_h_index(60, 0) == 4
        w = default_window()
        assert w.t_range == (-33, 64)
        assert w.v1_exponent_range == w.u_range == (-16, 16)


def basis_of(alphabet, window, d):
    return enumerate_window(alphabet, window).basis(d)


def brute_force_window(alphabet, w):
    """Oracle for enumerate_window: itertools.product over every generator's
    exponent range, keeping the monomials whose degree the window contains.
    Returns the sorted buckets and the in-window degrees that some monomial
    with a v1 exponent outside the window's v1 range lands on."""
    s_max = w.s_range[1]
    (v1_lo, v1_hi), (u_lo, u_hi) = w.v1_exponent_range, w.u_range

    def top(g):  # largest exponent of a non-invertible generator
        return 1 if g.nilpotent_square else s_max // g.degree.s

    rest_u = [g.degree.u * top(g) for g in alphabet if not g.invertible]
    ranges = []
    for g in alphabet:
        if not g.invertible:
            ranges.append(range(top(g) + 1))
            continue
        # wide enough that every exponent beyond it misses the u range
        j_lo = min(v1_lo, (u_lo - sum(x for x in rest_u if x > 0)) // g.degree.u)
        j_hi = max(v1_hi, -(-(u_hi - sum(x for x in rest_u if x < 0)) // g.degree.u))
        ranges.append([j for j in range(j_lo, j_hi + 1) if j % g.stride == 0])
    v1i = alphabet.v1_index
    buckets, clipped = {}, set()
    for exps in itertools.product(*ranges):
        mono = tuple((gi, e) for gi, e in enumerate(exps) if e)
        d = mono_degree(alphabet, mono)
        if not w.contains(d):
            continue
        if v1i is None or v1_lo <= exps[v1i] <= v1_hi:
            buckets.setdefault(d, []).append(mono)
        else:
            clipped.add(d)
    for monos in buckets.values():
        monos.sort(key=lambda m: mono_sort_key(alphabet, m))
    return buckets, clipped


def assert_matches_oracle(alphabet, w):
    wb = enumerate_window(alphabet, w)
    buckets, clipped = brute_force_window(alphabet, w)
    assert wb.degrees() == sorted(buckets)
    for d, monos in buckets.items():
        assert wb.basis(d) == tuple(monos), d
    for s in range(w.s_range[0], w.s_range[1] + 1):
        for t in range(w.t_range[0], w.t_range[1] + 1):
            for u in range(w.u_range[0], w.u_range[1] + 1):
                d = Multidegree(s, t, u)
                assert wb.complete(d) == (d not in clipped), d
    return buckets


# the generator shapes of the workbench alphabets: S, M, EndM r=2 and r=3
_GENERATOR_POOL = (
    Generator("alpha", Multidegree(0, -1, 0), nilpotent_square=True),
    Generator("alphap", Multidegree(0, 1, 1), nilpotent_square=True),
    Generator("h(1,0)", Multidegree(1, 1, 0)),
    Generator("h(1,1)", Multidegree(1, 2, 0)),
    Generator("h(2,1)", Multidegree(1, 6, 0)),
    Generator("h(3,1)", Multidegree(1, 14, 0)),
    Generator("x(1)", Multidegree(1, 8, 1)),
    Generator("x(2)", Multidegree(1, 16, 1)),
)


def _range_around_zero(lo, hi):
    return st.tuples(st.integers(lo, 0), st.integers(0, hi))


@st.composite
def small_alphabets_and_windows(draw):
    """A few generators of _GENERATOR_POOL, and v1 or not.  The workbench v1
    has degree (0, 2, 1); v1 is drawn here with its t-degree of either sign
    or 0 and a u-degree of 1 or 2, so the v1 exponents each part degree
    admits are bounded by the t range in both directions."""
    gens = draw(st.lists(st.sampled_from(_GENERATOR_POOL), unique=True, max_size=5))
    stride = draw(st.sampled_from((None, 1, 2)))
    if stride is not None:
        degree = Multidegree(0, draw(st.sampled_from((-2, 0, 1, 2, 3))), draw(st.sampled_from((1, 2))))
        gens.append(Generator("v1", degree, invertible=True, stride=stride))
    window = TruncationWindow(
        v1_exponent_range=draw(_range_around_zero(-4, 4)),
        s_range=(draw(st.integers(0, 1)), draw(st.integers(1, 4))),
        t_range=draw(_range_around_zero(-12, 24)),
        u_range=draw(_range_around_zero(-4, 4)),
    )
    return Alphabet(gens), window


class TestEnumerateWindowOracle:
    @settings(max_examples=300, deadline=None)
    @given(small_alphabets_and_windows())
    def test_random_windows_match_brute_force(self, case):
        assert_matches_oracle(*case)


class TestSolvedPlacementOracle:
    """_PartPlan.v1_exponents solves the v1 exponents of a part degree from
    the t and u ranges; trying each j the u range allows is its oracle."""

    @settings(max_examples=80, deadline=None)
    @given(small_alphabets_and_windows(), st.integers(0, 4))
    def test_solved_ranges_match_per_j(self, case, s):
        a, w = case
        plan = _PartPlan(a, w)
        (t_lo, t_hi), (u_lo, u_hi) = w.t_range, w.u_range
        for t in range(t_lo - 12, max(t_hi, plan.t_part_hi) + 13):
            for u in range(u_lo - 6, max(u_hi, plan.u_part_hi) + 7):
                below, kept, above = plan.v1_exponents(s, t, u)
                got = [(j, d, clipped) for js, clipped in ((below, True), (kept, False), (above, True))
                       for j, d in zip(js, plan.at(s, t, u, js))]
                assert got == placements_per_j(plan, s, t, u), (s, t, u)


def assert_counts_match_enumeration(alphabet, w, without=None, odd=()):
    """count_window against enumerate_window: per-degree counts of the
    monomials free of `without` and of the odd ones among them, the
    clipped degrees, and the trust flag on every degree of the window and
    a margin around it.  The two share one walk (_walk_parts), so the
    relation here is tested by filtering the whole alphabet's monomials
    by hand; brute_force_window checks that enumeration on its own."""
    wb = enumerate_window(alphabet, w)
    skip = None if without is None else alphabet.index(without)
    counts = count_window(Quotient(alphabet, () if skip is None else (((skip, 1),),)), w, odd)
    flips = {alphabet.index(name) for name in odd}
    want, want_odd = {}, {}
    for d in wb.degrees():
        free = [m for m in wb.basis(d) if all(gi != skip for gi, _ in m)]
        n_odd = sum(1 for m in free if sum(e for gi, e in m if gi in flips) % 2)
        if free:
            want[d] = len(free)
        if n_odd:
            want_odd[d] = n_odd
    assert counts._truncated == wb._truncated
    assert counts.degrees() == sorted(want)
    assert counts.total() == sum(want.values())
    for s in range(w.s_range[0] - 2, w.s_range[1] + 3):
        for t in range(w.t_range[0] - 2, w.t_range[1] + 3):
            for u in range(w.u_range[0] - 2, w.u_range[1] + 3):
                d = Multidegree(s, t, u)
                assert counts.count(d) == want.get(d, 0), d
                assert counts.odd_count(d) == want_odd.get(d, 0), d
                assert counts.complete(d) == wb.complete(d), d
    return want, wb._truncated


class TestCountWindowOracle:
    """count_window builds no monomial; enumerate_window is its oracle.
    Both read the parts of _walk_parts, so the independent checks of its
    relation rule are the enumerate-and-filter oracles, here and in
    TestQuotientCountOracle and TestPrunedWalkOracle, over a whole-alphabet
    enumeration that brute_force_window checks."""

    @settings(max_examples=200, deadline=None)
    @given(small_alphabets_and_windows(), st.integers(0, 5), st.integers(0, 63))
    def test_random_windows_match_enumeration(self, case, pick, odd_mask):
        a, w = case
        names = [g.name for g in a if not g.invertible]
        odd = [g.name for i, g in enumerate(a) if odd_mask >> i & 1]
        assert_counts_match_enumeration(a, w, names[pick] if pick < len(names) else None, odd)

    @pytest.mark.parametrize(
        "t_max, s_max", [(16, 4), (32, 12), (64, 12), (32, 16)], ids=["t16", "t32", "t64", "t32-s16"]
    )
    def test_workbench_alphabets_on_ladder_windows(self, t_max, s_max):
        bench = Workbench(default_window(t_max, s_max))
        for tag, r, without in (("S", 2, "h(1,0)"), ("EndM", 2, "alpha"), ("M", 2, None)):
            want, _ = assert_counts_match_enumeration(bench.alphabet(tag, r), bench.window, without)
            assert want

    def test_parity_of_the_e3_matching_on_ladder_windows(self):
        bench = Workbench(default_window(32, 8))
        a = bench.alphabet("EndM", 2)
        odd = [g.name for g in a if g.name not in ("alpha", "h(1,1)")]
        want, _ = assert_counts_match_enumeration(a, bench.window, "alpha", odd)
        assert want

    def test_clipping_when_u_range_is_wider_than_v1_range(self):
        w = TruncationWindow((-3, 3), (0, 6), (-15, 40), (-8, 8))
        bench = Workbench(default_window(40, 6, -8, 8))
        for tag, r, without in (("S", 2, "h(1,0)"), ("EndM", 2, "alpha"), ("M", 2, None), ("EndM", 3, "alphap")):
            want, clipped = assert_counts_match_enumeration(bench.alphabet(tag, r), w, without)
            assert want and clipped
        # alphap and x(n) carry u, so one degree mixes kept and clipped
        # monomials: its count is short, and the degree is not trusted
        assert any(d in clipped for d in want)


@st.composite
def windows_and_relations(draw):
    """A small alphabet and window with 0, 1 or 2 monomial relations on its
    non-invertible generators, each of one or two factors of exponent 1 or
    2 (alpha*h(1,1)^2 is of that shape)."""
    a, w = draw(small_alphabets_and_windows())
    names = [gi for gi, g in enumerate(a) if not g.invertible]
    relations = []
    for _ in range(draw(st.integers(0, 2)) if names else 0):
        factors = draw(st.lists(st.sampled_from(names), unique=True, min_size=1, max_size=2))
        relations.append(tuple(sorted((gi, draw(st.integers(1, 2))) for gi in factors)))
    return a, w, relations


def assert_quotient_counts_match_enumeration(alphabet, w, relations):
    """count_window with relations against enumerate and filter: each
    degree's count (probed past the window, s < 0 included), the total, the
    and the truncated set of the whole alphabet, which sets the trust."""
    want, truncated = counts_by_enumeration(alphabet, w, relations)
    counts = count_window(Quotient(alphabet, tuple(relations)), w)
    assert counts._truncated == truncated
    assert counts.degrees() == sorted(want)
    assert counts.total() == sum(want.values())
    for s in range(w.s_range[0] - 3, w.s_range[1] + 3):
        for t in range(w.t_range[0] - 2, w.t_range[1] + 3):
            for u in range(w.u_range[0] - 2, w.u_range[1] + 3):
                d = Multidegree(s, t, u)
                assert counts.count(d) == want.get(d, 0), d
    return want, truncated


class TestQuotientCountOracle:
    """count_window counts the quotient by monomial relations without
    building a monomial; enumerate and filter is its oracle."""

    @settings(max_examples=200, deadline=None)
    @given(windows_and_relations())
    def test_random_windows_and_relations_match_enumeration(self, case):
        assert_quotient_counts_match_enumeration(*case)

    @pytest.mark.parametrize(
        "window",
        [default_window(16, 4, -4, 4), default_window(32, 8, -8, 8), default_window(64, 12),
         TruncationWindow((-3, 3), (0, 6), (-15, 40), (-8, 8))],
        ids=["t16", "t32", "t64", "clipped"],
    )
    def test_e3_endm_relations(self, window):
        """E3(EndM)'s two relations, alpha*h(1,1)^2 with its exponent 2 and
        alpha*alphap, one at a time and together."""
        pres = Workbench(window).presentation("EndM", 3)
        assert len(pres.relations) == 2
        for relations in ((), pres.relations[:1], pres.relations[1:], pres.relations):
            want, truncated = assert_quotient_counts_match_enumeration(pres.alphabet, window, relations)
            assert want
        # alphap and each x(n) carry u, so the v1 range clips some degree
        assert truncated
        assert pres.basis_counts(window).total() == sum(want.values())

    def test_a_relation_on_the_invertible_generator_is_refused(self):
        a = nilpotent_alphabet()
        with pytest.raises(GF2PolyError, match="invertible"):
            Quotient(a, (((a.index("v1"), 1),),))
        with pytest.raises(GF2PolyError, match="non-invertible"):
            Quotient(a, ((),))


def assert_pruned_walk_matches_filter(alphabet, w, relations):
    """enumerate_window over the quotient against enumerate and filter:
    the same degrees, each bucket in the same order, and the truncated set
    of the whole alphabet."""
    want = quotient_basis_by_filter(alphabet, w, relations)
    assert_same_bases(enumerate_window(Quotient(alphabet, tuple(relations)), w), want)
    return want


def assert_same_bases(got, want):
    """The same degrees, each basis in the same order, and the same
    truncated set."""
    assert got.degrees() == want.degrees()
    for d in want.degrees():
        assert got.basis(d) == want.basis(d), d
    assert got._truncated == want._truncated


class TestPrunedWalkOracle:
    """enumerate_window drops a part as soon as a relation divides it and
    keeps walking its degree alone, for the clipping; enumerating the whole
    alphabet and filtering is its oracle."""

    @settings(max_examples=200, deadline=None)
    @given(windows_and_relations())
    def test_random_windows_and_relations_match_filter(self, case):
        assert_pruned_walk_matches_filter(*case)

    def test_e3_endm_relations_on_a_clipped_window(self):
        """E3(EndM)'s relations on a window where some degree is clipped
        only through monomials a relation divides, so the walk must take the
        clipping of its divided parts too."""
        w = TruncationWindow((-3, 3), (0, 6), (-15, 40), (-8, 8))
        pres = Workbench(default_window(40, 6, -8, 8)).presentation("EndM", 3)
        want = assert_pruned_walk_matches_filter(pres.alphabet, w, pres.relations)
        # every placement of the u range, with the v1 range opened up
        wide = enumerate_window(pres.alphabet, TruncationWindow((-99, 99), w.s_range, w.t_range, w.u_range))
        v1 = pres.alphabet.v1_index
        clipped_by = {}  # clipped degree -> whether a reduced monomial is clipped there
        for d in wide.degrees():
            for m in wide.basis(d):
                if not w.v1_exponent_range[0] <= dict(m).get(v1, 0) <= w.v1_exponent_range[1]:
                    clipped_by[tuple(d)] = clipped_by.get(tuple(d), False) or pres.is_reduced_monomial(m)
        assert set(clipped_by) == want._truncated
        assert not all(clipped_by.values())


def assert_walk_matches_recursion(algebra, w):
    """enumerate_window against the recursive walk of window_basis_by_recursion."""
    want = window_basis_by_recursion(algebra, w)
    assert_same_bases(enumerate_window(algebra, w), want)
    return want


class TestRecursiveWalkOracle:
    """enumerate_window keeps the parts of the dynamic program it shares
    with count_window and sorts each part degree's parts itself; a
    recursive walk that tests each relation where its factor walked last is
    placed, with one global sort of its part records, is its oracle."""

    @settings(max_examples=200, deadline=None)
    @given(windows_and_relations())
    def test_random_windows_and_relations(self, case):
        a, w, relations = case
        assert_walk_matches_recursion(Quotient(a, tuple(relations)), w)

    @pytest.mark.parametrize("t_max", [64, 128], ids=["t64", "t128"])
    @pytest.mark.parametrize("tag, r", [("EndM", 3), ("M", 2)], ids=["E3-EndM", "E2-M"])
    def test_workbench_pages(self, tag, r, t_max):
        window = default_window(t_max)
        want = assert_walk_matches_recursion(Workbench(window).presentation(tag, r).quotient, window)
        assert want.degrees()

    def test_decomposition_window(self):
        bench = Workbench(default_window())
        assert_walk_matches_recursion(bench.presentation("M", 3).quotient, bench._decomposition_window())

    def test_mahowald_box(self):
        tables = Workbench(default_window(128)).mahowald_tables()
        pres = tables._page.presentation
        want = assert_walk_matches_recursion(pres.quotient, _box_window(tables.p_max, tables.q_max))
        assert not want._truncated

    def test_e3_endm_relations_on_a_clipped_window(self):
        w = TruncationWindow((-3, 3), (0, 6), (-15, 40), (-8, 8))
        pres = Workbench(default_window(40, 6, -8, 8)).presentation("EndM", 3)
        want = assert_walk_matches_recursion(pres.quotient, w)
        assert want._truncated


class TestLazyBasisOracle:
    """enumerate_window files each degree as v1-free parts placed at v1
    exponents and builds a basis only when it is read; the eager
    enumerate-and-filter oracle builds every basis at once.  It reads its
    monomials off a whole-alphabet enumerate_window, so the canonical order
    is tested here on its own."""

    @settings(max_examples=200, deadline=None)
    @given(windows_and_relations())
    def test_reads_match_the_eager_oracle_at_every_degree(self, case):
        a, w, relations = case
        got = enumerate_window(Quotient(a, tuple(relations)), w)
        want = quotient_basis_by_filter(a, w, relations)
        assert got.degrees() == want.degrees()
        for s in range(w.s_range[0] - 2, w.s_range[1] + 3):
            for t in range(w.t_range[0] - 2, w.t_range[1] + 3):
                for u in range(w.u_range[0] - 2, w.u_range[1] + 3):
                    d = Multidegree(s, t, u)
                    basis = got.basis(d)
                    assert basis == want.basis(d), d
                    assert list(basis) == sorted(basis, key=lambda m: mono_sort_key(a, m)), d
                    assert got.size(d) == len(basis) == want.size(d), d
                    assert got.basis(d) is basis, d
                    assert got.complete(d) == want.complete(d), d
                    for shift in (D2_SHIFT, D3_SHIFT):
                        assert got.complete_around(d, shift) == want.complete_around(d, shift), (d, shift)


class TestBoxIndependence:
    """A degree's basis and its truncation flag depend on the degree, the
    alphabet and the v1 range, not on the box around it: survival_report
    decides its classes over the small window around each degree."""

    @settings(max_examples=150, deadline=None)
    @given(small_alphabets_and_windows(), st.data())
    def test_any_box_around_a_degree_holds_its_basis(self, case, data):
        a, w = case
        full = enumerate_window(a, w)
        degrees = sorted(set(full.degrees()) | {Multidegree(*d) for d in full._truncated})
        if not degrees:
            return
        d = data.draw(st.sampled_from(degrees))
        margins = st.tuples(st.integers(0, 3), st.integers(0, 3))
        box = [(c - lo, c + hi) for c, (lo, hi) in zip(d, (data.draw(margins) for _ in range(3)))]
        part = enumerate_window(a, TruncationWindow(w.v1_exponent_range, *box))
        assert part.basis(d) == full.basis(d)
        assert part.complete(d) == full.complete(d)


class TestCompleteAround:
    """complete_around, one lookup in a set and one box test, both built
    once per shift, against the three window tests they stand for."""

    # h(1,0) with s < 0: nothing vanishes below s = 0 over an alphabet with it
    NEGATIVE_S = Generator("h(1,0)", Multidegree(-1, 3, 0))

    @settings(max_examples=40, deadline=None)
    @given(
        small_alphabets_and_windows(),
        st.booleans(),
        st.lists(st.tuples(st.integers(-40, 40), st.integers(-400, 400), st.integers(-40, 40)), max_size=20),
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-30, 30), st.integers(-8, 8)), max_size=3),
    )
    def test_matches_three_window_tests(self, case, negative_s, far, shifts):
        """The page shifts and drawn ones with components of either sign,
        one of them wider in s than the s range, so that every d - shift or
        d + shift leaves the window and the rule below s = 0 decides."""
        a, w = case
        if negative_s:
            a = Alphabet([g for g in a if g.name != "h(1,0)"] + [self.NEGATIVE_S])
        trust = count_window(a, w)
        assert trust._vanishes_below_s0 is not negative_s
        probes = [Multidegree(*p) for p in far]
        for s in range(w.s_range[0] - 3, w.s_range[1] + 3):
            for t in range(w.t_range[0] - 2, w.t_range[1] + 3):
                for u in range(w.u_range[0] - 2, w.u_range[1] + 3):
                    probes.append(Multidegree(s, t, u))
        wide_s = Multidegree(w.s_range[1] - w.s_range[0] + 1, -1, 1)
        for shift in (D2_SHIFT, D3_SHIFT, wide_s, *(Multidegree(*x) for x in shifts)):
            for d in probes:
                assert trust.complete_around(d, shift) == complete_around_by_three(trust, d, shift), (d, shift)

    def test_clipped_degrees_and_their_neighbours_are_untrusted(self):
        bench = Workbench(default_window(40, 6, -8, 8))
        w = TruncationWindow((-3, 3), (0, 6), (-15, 40), (-8, 8))
        trust = enumerate_window(bench.alphabet("EndM", 3), w)
        assert trust._truncated
        for c in trust._truncated:
            for d in (c, Multidegree(*c) - D3_SHIFT, Multidegree(*c) + D3_SHIFT):
                assert not trust.complete_around(d, D3_SHIFT)


class TestEnumerateBasis:
    """The basis of one degree, read off the whole-window enumeration."""

    def test_single_degree(self):
        a = laurent_alphabet()
        basis = basis_of(a, default_window(), Multidegree(3, 6, 0))
        assert [mono_str(a, m) for m in basis] == ["h(1,1)^3"]

    def test_laurent_solution(self):
        a = laurent_alphabet()
        basis = basis_of(a, default_window(), Multidegree(1, 0, -1))
        assert [mono_str(a, m) for m in basis] == ["v1^-1*h(1,1)"]

    def test_empty_degree(self):
        a = laurent_alphabet()
        assert basis_of(a, default_window(), Multidegree(0, 1, 0)) == ()

    def test_respects_v1_range(self):
        a = laurent_alphabet()
        w = TruncationWindow((0, 4), (0, 12), (-33, 64), (-16, 16))
        assert basis_of(a, w, Multidegree(1, 0, -1)) == ()

    def test_nilpotent_capped(self):
        a = nilpotent_alphabet()
        wb = enumerate_window(a, default_window())
        assert [mono_str(a, m) for m in wb.basis(Multidegree(0, -1, 0))] == ["alpha"]
        assert wb.basis(Multidegree(0, -2, 0)) == ()

    def test_counts_match_compositions(self):
        # with only h generators, a basis of (s, t, 0) is the set of ways to
        # write t as an ordered multiset of h-degrees of size s
        a = Alphabet(
            [
                Generator("h(1,1)", Multidegree(1, 2, 0)),
                Generator("h(2,1)", Multidegree(1, 6, 0)),
                Generator("h(3,1)", Multidegree(1, 14, 0)),
            ]
        )
        w = TruncationWindow((0, 0), (0, 6), (0, 40), (0, 0))
        wb = enumerate_window(a, w)
        assert len(wb.basis(Multidegree(3, 10, 0))) == 1  # 2+2+6
        assert len(wb.basis(Multidegree(4, 24, 0))) == 2  # 2+2+6+14, 6+6+6+6


class TestEnumerateWindow:
    def test_matches_per_degree_enumeration(self):
        a = nilpotent_alphabet()
        w = TruncationWindow((-6, 6), (0, 8), (-13, 30), (-6, 6))
        assert len(assert_matches_oracle(a, w)) == 880

    def test_no_in_window_degree_missed(self):
        a = laurent_alphabet(2)
        w = TruncationWindow((-4, 4), (0, 4), (-9, 12), (-4, 4))
        assert len(assert_matches_oracle(a, w)) == 83

    def test_truncation_flagged_for_clipped_degrees(self):
        a = Alphabet(
            [
                Generator("v1", Multidegree(0, 2, 1), invertible=True),
                Generator("alphap", Multidegree(0, 1, 1), nilpotent_square=True),
            ]
        )
        w = TruncationWindow((-4, 4), (0, 0), (-9, 9), (-4, 4))
        wb = enumerate_window(a, w)
        # u = -4 realized by v1^-4 (in range) and v1^-5*alphap (clipped)
        d = Multidegree(0, -9, -4)
        assert not wb.complete(d)
        # u = -3 realized by v1^-3 and v1^-4*alphap, both in range
        assert wb.complete(Multidegree(0, -6, -3))
        assert wb.complete(Multidegree(0, -7, -3))

    def test_degrees_outside_window_not_complete(self):
        a = laurent_alphabet(2)
        w = TruncationWindow((-2, 2), (0, 2), (-5, 8), (-2, 2))
        wb = enumerate_window(a, w)
        assert not wb.complete(Multidegree(3, 6, 0))

    def test_below_s0_is_complete_only_when_nothing_lives_there(self):
        w = TruncationWindow((0, 0), (0, 3), (-4, 4), (0, 0))
        below = Multidegree(-1, 0, 0)
        plain = Alphabet([Generator("h(1,1)", Multidegree(1, 2, 0))])
        assert enumerate_window(plain, w).complete(below)
        assert count_window(plain, w).complete(below)
        # a generator of negative s puts monomials below s = 0, which the
        # window's s range leaves out
        sunk = Alphabet(plain.generators + (Generator("alpha", Multidegree(-1, 0, 0), nilpotent_square=True),))
        assert not enumerate_window(sunk, w).complete(below)
        assert not count_window(sunk, w).complete(below)

    def test_a_relation_drops_the_monomials_it_divides(self):
        a = nilpotent_alphabet()
        w = TruncationWindow((-2, 2), (0, 3), (-5, 10), (-2, 2))
        wb = enumerate_window(a, w)
        ai = a.index("alpha")
        no_alpha = enumerate_window(Quotient(a, (((ai, 1),),)), w)
        for d in wb.degrees():
            assert no_alpha.basis(d) == tuple(m for m in wb.basis(d) if all(gi != ai for gi, _ in m))
        assert len(no_alpha.degrees()) < len(wb.degrees())
        assert no_alpha._truncated == wb._truncated


class TestMonomialHelpers:
    def test_divides(self):
        a = laurent_alphabet()
        big = Polynomial.parse(a, "v1^2*h(1,1)^3").monomials_sorted()[0]
        small = Polynomial.parse(a, "h(1,1)^2").monomials_sorted()[0]
        assert mono_divides(small, big)
        assert not mono_divides(big, small)

    def test_divides_matches_exponent_dict(self):
        # all pairs of a small EndM r=3 window (v1 with stride 2, negative
        # v1 exponents, nilpotents) against the exponent-dict definition;
        # divisors carry positive exponents only, as relations do
        wb = Workbench(default_window(t_max=16, s_max=4, v1_min=-4, v1_max=4))
        basis = enumerate_window(wb.alphabet("EndM", 3), wb.window)
        monos = [m for d in basis.degrees() for m in basis.basis(d)]
        divisors = [m for m in monos if all(e > 0 for _, e in m)]
        hits = 0
        for x in divisors:
            for y in monos:
                want = all(dict(y).get(gi, 0) >= e for gi, e in x)
                assert mono_divides(x, y) == want, (x, y)
                hits += want
        assert len(divisors) < hits < len(divisors) * len(monos)


def reference_mono_mul(alphabet, a, b):
    """Monomial product through an exponent dict, the definition mono_mul's
    merge must agree with."""
    exps = dict(a)
    for gi, e in b:
        exps[gi] = exps.get(gi, 0) + e
    out = []
    for gi in sorted(exps):
        e = exps[gi]
        if e == 0:
            continue
        g = alphabet[gi]
        if g.nilpotent_square and e > 1:
            return None
        if e < 0 and not g.invertible:
            raise GF2PolyError(f"negative exponent on {g.name}")
        out.append((gi, e))
    return tuple(out)


class TestMonoMulOracle:
    @pytest.mark.parametrize("tag, r", [("EndM", 2), ("EndM", 3), ("S", 2)])
    def test_all_pairs_of_a_small_window(self, tag, r):
        wb = Workbench(default_window(t_max=16, s_max=4, v1_min=-4, v1_max=4))
        a = wb.alphabet(tag, r)
        basis = enumerate_window(a, wb.window)
        monos = [m for d in basis.degrees() for m in basis.basis(d)]
        v1i = a.v1_index
        seen = {"unit": 0, "nilpotent square": 0, "v1 cancels": 0}
        for x in monos:
            for y in monos:
                got = mono_mul(a, x, y)
                assert got == reference_mono_mul(a, x, y), (x, y)
                if not x or not y:
                    seen["unit"] += 1
                elif got is None:
                    seen["nilpotent square"] += 1
                elif any(gi == v1i for gi, _ in x) and not any(gi == v1i for gi, _ in got):
                    seen["v1 cancels"] += 1
        assert seen["unit"] and seen["v1 cancels"]
        assert seen["nilpotent square"] or tag == "S"


def stride_alphabet():
    return Alphabet(
        [
            Generator("v1", Multidegree(0, 2, 1), invertible=True, stride=2),
            Generator("alpha", Multidegree(0, -1, 0), nilpotent_square=True),
            Generator("alphap", Multidegree(0, 1, 1), nilpotent_square=True),
            Generator("h(1,1)", Multidegree(1, 2, 0)),
            Generator("x(1)", Multidegree(1, 8, 1)),
        ]
    )


_RING_ALPHABETS = (laurent_alphabet(3), nilpotent_alphabet(), stride_alphabet())


@st.composite
def alphabet_and_polynomials(draw, count=3):
    """One of the Laurent, nilpotent and stride alphabets and `count` small
    polynomials over it: up to four terms, v1 exponents in [-3, 3] (stride
    multiples), nilpotent exponents 0 or 1, the others up to 2."""
    a = draw(st.sampled_from(_RING_ALPHABETS))

    def exponent(g):
        if g.invertible:
            return st.integers(-3, 3).map(lambda k: k * g.stride)
        return st.integers(0, 1 if g.nilpotent_square else 2)

    monomial = st.tuples(*(exponent(g) for g in a)).map(
        lambda exps: tuple((gi, e) for gi, e in enumerate(exps) if e)
    )
    polys = [Polynomial(a, draw(st.lists(monomial, max_size=4))) for _ in range(count)]
    return a, polys


class TestPolynomialRingAxioms:
    @settings(max_examples=200, deadline=None)
    @given(alphabet_and_polynomials())
    def test_commutative_ring_of_characteristic_two(self, case):
        a, (p, q, r) = case
        zero, one = Polynomial.zero(a), Polynomial.one(a)
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p + p == zero
        assert p + zero == p
        assert p * one == p
        assert p * zero == zero
