"""Concrete pages and differentials for the three spectra of interest.

Tags: "S" (sphere-level page, presentation only), "M" (two-cell complex),
"EndM" (its endomorphism algebra).  Pages are indexed r = 2, 3, 4 with
differential shifts (2,1,-1) and (3,2,-2).

The page data wired in:
  d2(v1) = alpha*h(1,1)^2,  d2(h(n,1)) = v1^-1*alpha*h(1,1)^2*h(n,1) (n >= 2)
  d3(v1^2) = h(1,1)^3,      d3(x(n)) = v1^-4*h(1,1)*x(1)*x(n-1)^2    (n >= 2)
on EndM, plus d2(v1) = h(1,0)*h(1,1) on S.  The differentials on the M page
are induced through the module structure over EndM: the M page is generated
by {1, v1}, both d3-cycles, so d3 of an M monomial is d3 of its lift to
(EndM element) * v1^(0 or 1), projected back.  The projection is
multiplicative, so that d3 is computed from each EndM generator's d3 value,
transported to M once; that needs the lift and the projection to be inverse
on M's generators, and M's page 4 refuses a table that breaks this round
trip.  d2 vanishes on M, so M's page 3 is its page 2, presented with that
induced d3 (InducedD3Presentation).

Everything built on top of a d3 (pages r >= 3 of EndM, the induced M
differential, the w-graded claims, the decomposition identity) is flagged
conditional: the differential values for large generator indices are
wired-in conjecture, and the checks here test their consequences rather
than prove them.
"""
from __future__ import annotations

import weakref
from dataclasses import replace
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple, Union

from .dga import (
    D2Report,
    PagePresentation,
    PageRefusedError,
    PresentationPage,
    UntrustedDegreeError,
    _PageDims,
    d_squared_on_generators,
    homology_page,
)
from .gf2linalg import rank
from .gf2poly import (
    Alphabet,
    Generator,
    GF2PolyError,
    Monomial,
    Multidegree,
    Polynomial,
    Quotient,
    TruncationWindow,
    WindowBasis,
    WindowCounts,
    _name_rank,
    _xor,
    count_window,
    mono_degree,
    mono_divides,
    mono_mul,
    mono_str,
)
from .mahowald import ZBHTables, zbh_bases

__all__ = [
    "D2_SHIFT",
    "D3_SHIFT",
    "TAGS",
    "CheckRow",
    "Report",
    "Workbench",
    "check_row",
    "pattern_stems",
    "w_of_v1_exponent",
    "adams_bidegree",
]

D2_SHIFT = Multidegree(2, 1, -1)
D3_SHIFT = Multidegree(3, 2, -2)
TAGS = ("S", "M", "EndM")

V1_DEGREE = Multidegree(0, 2, 1)
ALPHA_DEGREE = Multidegree(0, -1, 0)
ALPHAP_DEGREE = Multidegree(0, 1, 1)

# d2 on E2(EndM) is multiplication by this monomial times a parity
D2_FACTOR = "v1^-1*alpha*h(1,1)^2"

# top corner of the Adams box the decomposition check compares
DECOMPOSITION_STEM_MAX = 24
DECOMPOSITION_FILT_MAX = 12


def h_degree(n: int) -> Multidegree:
    return Multidegree(1, 2 ** (n + 1) - 2, 0)


def x_degree(n: int) -> Multidegree:
    return Multidegree(1, 2 ** (n + 2), 1)


def sufficient_h_index(t_max: int, v1_min: int) -> int:
    """Largest n for which h(n,1) can appear in a monomial with internal
    degree at most t_max, given the most negative v1 exponent allowed."""
    cap = t_max - 2 * min(v1_min, 0) + 1
    n = 1
    while 2 ** (n + 2) - 2 <= cap:
        n += 1
    return n


def sufficient_x_index(t_max: int, v1_min: int) -> int:
    """Largest n for which x(n) (internal degree 2^(n+2)) fits under t_max.

    The lowest monomial holding x(n) is x(n)*alpha*v1^min(v1_min, 0), of
    internal degree 2^(n+2) - 1 + 2*min(v1_min, 0); the + 1 in the cap is
    alpha's -1.  A larger cap only admits an x(n) that no monomial of the
    window holds, so no page or report changes: the cap is tight for the
    alphabet's size, not for correctness."""
    cap = t_max - 2 * min(v1_min, 0) + 1
    n = 0
    while 2 ** (n + 3) <= cap:
        n += 1
    return n


# the period of w_of_v1_exponent in the v1 exponent
W_PERIOD = 4


def w_of_v1_exponent(i: int) -> int:
    """0 for exponents 0,1 mod 4 and 2 for exponents 2,3 mod 4."""
    return 0 if i % W_PERIOD in (0, 1) else 2


# multiplying by v1^W_PERIOD keeps w, so the w-sliced reports are decided
# once per orbit of degrees under this step (Workbench._w_list)
_W_STEP = V1_DEGREE.scaled(W_PERIOD)


def _orbit(d: Multidegree) -> Tuple[int, int, int]:
    """(s, t - 2u, u mod W_PERIOD): two degrees agree in it exactly when
    they differ by a multiple of _W_STEP = (0, 2, 1) * W_PERIOD.
    Workbench._pattern_count reads its degree only through s,
    q = t - 2u + 3s - 5a and (u - (s - a)) mod W_PERIOD, so it takes the
    same value, or refuses the same (p, q), at every degree of an orbit."""
    return d.s, d.t - 2 * d.u, d.u % W_PERIOD


def adams_bidegree(d: Multidegree) -> Tuple[int, int]:
    """Collapse a tridegree to Adams (s, t) by s -> s+u, t -> t+u."""
    s, t, u = d
    return (s + u, t + u)


def pattern_stems(p: int, q: int, filt: int) -> Tuple[Tuple[int, ...], int]:
    """(bo stems, bu stem) that the patterns of a class at (p, q) hit on
    Adams filtration filt.  The bo pattern holds v1^m h(1,1)^a at
    (p + m + a, q + 3m + 2a) for a in {0, 1, 2} and m = 0, 1 mod 4, so on
    filt it hits stem 2 filt - 3p + q - a where (filt - p - a) mod 4 is 0
    or 1; the bu pattern holds v1^m at (p + m, q + 3m) for every m."""
    bu = 2 * filt - 3 * p + q
    # with r = (filt - p) mod 4 those a are r - 1 and r, where in {0, 1, 2}
    r = (filt - p) % 4
    if r == 0:
        return (bu,), bu
    if r == 3:
        return (bu - 2,), bu
    return (bu - r + 1, bu - r), bu


class CheckRow(NamedTuple):
    """One per-degree verdict.  degree is what the row's builder passed, so
    rows at one degree share it; JSON writes it as a list."""

    claim: str
    degree: Tuple[int, ...]
    lhs: int
    rhs: int
    status: str  # ok | mismatch | insufficient


def check_row(claim: str, degree: Tuple[int, ...], lhs: int, rhs: int, decided: bool = True) -> CheckRow:
    """The one status rule of a report row: insufficient when the window
    cannot decide the row, else ok when the two sides agree, else mismatch."""
    status = "insufficient" if not decided else "ok" if lhs == rhs else "mismatch"
    return CheckRow(claim, degree, lhs, rhs, status)


class Report:
    """A flat list of per-degree check rows with a pass/fail summary."""

    def __init__(self, name: str, rows: List[CheckRow], conditional: bool = False):
        self.name = name
        self.rows = rows
        self.conditional = conditional

    @property
    def ok(self) -> bool:
        return all(r.status == "ok" for r in self.rows)

    def failures(self) -> List[CheckRow]:
        return [r for r in self.rows if r.status != "ok"]

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures())} failures"
        return f"Report({self.name}: {len(self.rows)} rows, {state})"


def _parts_sum(count: int, total: int) -> bool:
    """Can `count` parts 2^k - 2 (k >= 3), the internal degrees 6, 14, 30,
    ... of h(n,1) for n >= 2, sum to `total`?  Exactly when
    n = (total + 2*count)/8 is an integer that is a sum of `count` powers of
    two, which holds iff popcount(n) <= count <= n.  Not tied to any
    alphabet truncation."""
    n, rest = divmod(total + 2 * count, 8)
    return not rest and n.bit_count() <= count <= n


def low_w_monomial_possible(s: int, internal: int, u: int) -> bool:
    """Is there any M monomial of degree (s, t, u) with w <= 2, where
    internal = t - 2u?  Such a monomial is v1^u * h(1,1)^a1 times s - a1
    parts of _parts_sum.  Exact and window-independent: parts may use
    arbitrarily large generators."""
    for a1 in (0, 1, 2):
        count = s - a1
        if count >= 0 and w_of_v1_exponent(u - count) + a1 <= 2 and _parts_sum(count, internal - 2 * a1):
            return True
    return False


class MatchedPage(_PageDims):
    """The homology of (E2(EndM), d2), counted off the matching d2 makes.

    d2(m) = c(m)*mu*m with mu = D2_FACTOR and c(m) the parity of m's
    exponents on the odd generators (those with d2(g) = mu*g).  mu contains
    alpha once and alpha squares to zero, so d2 pairs each alpha-free odd
    monomial m with mu*m and kills every other monomial: a perfect
    matching.  Its unmatched monomials are a basis of the homology, so with
    N(d) the alpha-free monomials of degree d, N_o(d) the odd ones among
    them, and alpha*n running over the rest of the basis,
      cycles(d) = N(d) - N_o(d) + N(d - |alpha|),
      boundaries(d) = N_o(d - shift).
    This is algebraic discrete Morse theory in its simplest case
    (Skoldberg, Trans. AMS 2006); homology_page is the test oracle."""

    def __init__(self, pres: PagePresentation, counts: WindowCounts, odd: FrozenSet[int]):
        # counts: the alpha-free monomials of a window, parity-split on odd
        a = pres.alphabet
        (ds, dt, du), (a_s, a_t, a_u) = pres.degree_shift, a.generator("alpha").degree
        # the degrees with a nonempty basis: N(d) > 0 or N(d - |alpha|) > 0
        nonempty = set(counts.degrees())
        nonempty.update([(s + a_s, t + a_t, u + a_u) for s, t, u in nonempty])
        dims: Dict[Multidegree, Tuple[int, int]] = {}
        for s, t, u in nonempty:
            if counts.complete_around((s, t, u), pres.degree_shift):
                even = counts.count((s, t, u)) - counts.odd_count((s, t, u))
                dims[Multidegree(s, t, u)] = (
                    even + counts.count((s - a_s, t - a_t, u - a_u)),
                    counts.odd_count((s - ds, t - dt, u - du)),
                )
        super().__init__(pres, counts, dims, pres.degree_shift)
        self.conditional = True  # as every EndM page from r = 3 on
        self._mu = Polynomial.parse(a, D2_FACTOR).monomials_sorted()[0]
        self._odd = odd
        # the factors of mu a boundary mu*m must carry; v1 is invertible
        self._mu_cover = tuple((gi, e) for gi, e in self._mu if not a[gi].invertible)
        self._mu_parity = self._parity(self._mu)

    def _parity(self, mono: Monomial) -> int:
        return sum(e for gi, e in mono if gi in self._odd) & 1

    def class_is_nonzero(self, poly: Polynomial, d: Multidegree) -> bool:
        """True when a cycle polynomial is not a boundary.  Raises if the
        polynomial is not a cycle.  The cycles are spanned by the monomials
        m with d2(m) = 0 and the boundaries by the mu*m with m odd, so both
        tests go term by term."""
        self._require(d)
        a = self.presentation.alphabet
        for m in poly.terms:
            if mono_degree(a, m) != d:
                raise GF2PolyError(f"{mono_str(a, m)} is not a basis monomial of degree {tuple(d)}")
            if self._parity(m) and mono_mul(a, self._mu, m) is not None:
                raise GF2PolyError(f"{poly} is not a cycle in degree {tuple(d)}")
        return any(
            not mono_divides(self._mu_cover, m) or self._parity(m) == self._mu_parity for m in poly.terms
        )


class InducedD3Presentation(PagePresentation):
    """M's page 3: the algebra of M's page 2 (d2 vanishes on M) with the d3
    induced by E3(EndM) acting on M, Workbench.induced_d3m_monomial, which
    multiplies m by transported EndM generator values.  That d3 is no
    derivation in M's generators (d3(v1*h(3,1)) is not v1*d3(h(3,1))), so
    none carries a differential here, and the basis is M r=2's own."""

    def __init__(self, bench: "Workbench"):
        m2 = bench.presentation("M", 2)
        super().__init__(m2.alphabet, D3_SHIFT, {}, name="two-cell r=3", conditional=True)
        self._m2 = m2
        # weak, so that a Workbench and its presentations form no reference
        # cycle and the Workbench is freed as soon as its caller drops it
        self._bench = weakref.ref(bench)

    def apply_monomial(self, mono: Monomial) -> Polynomial:
        return self._bench().induced_d3m_monomial(mono)

    @property
    def v1_period(self) -> int:
        """EndM r=3's period, 4: d3(v1^4 * m) = v1^4 * d3(m) on M too.
        d3(m) = p(d_E(l(m))) * v1^eps, and v1^4 changes neither eps nor
        anything of l(m) but its v1 power: l(v1^4 * m) = v1^4 * l(m).  d_E
        commutes with v1^4 (PagePresentation.v1_period), and p sends v1 to
        v1, so p(v1^4 * y) = v1^4 * p(y)."""
        return self._bench().presentation("EndM", 3).v1_period

    def basis(self, window: TruncationWindow) -> WindowBasis:
        return self._m2.basis(window)


# how the projection to M rewrites one EndM generator (see Workbench._projection_rules)
_ProjectionRule = Union[None, str, Tuple[int, Optional[int]]]


def _merged(factors: Iterable[Tuple[int, int]]) -> Monomial:
    """The monomial of a list of (generator, exponent) factors that may
    repeat a generator: exponents summed, zeros dropped, sorted."""
    exps: Dict[int, int] = {}
    for gi, e in factors:
        exps[gi] = exps.get(gi, 0) + e
    return tuple(sorted((gi, e) for gi, e in exps.items() if e))


class Workbench:
    """All pages, actions, and verification reports over one window."""

    def __init__(self, window: TruncationWindow):
        self.window = window
        self._alphabets: Dict[str, Alphabet] = {}
        self._presentations: Dict[Tuple[str, int], PagePresentation] = {}
        self._pages: Dict[Tuple[str, int], _PageDims] = {}
        self._zbh: Optional[ZBHTables] = None
        self._alpha_free: Optional[WindowCounts] = None
        self._proj_rules: Optional[List[_ProjectionRule]] = None
        self._roles: Optional[List[Tuple[int, int]]] = None
        self._d3m_factors: Dict[FrozenSet[int], FrozenSet[Monomial]] = {}
        self._round_trip: Optional[List[Tuple[Polynomial, Polynomial]]] = None
        self._w_lists: Dict[Multidegree, List[int]] = {}
        # (id of a page-4 matrix, id of a w list, n) -> rank of the slice
        self._slice_ranks: Dict[Tuple[int, int, int], int] = {}

    # ---- alphabets ----

    def _h_index(self) -> int:
        w = self.window
        j_floor = min(w.v1_exponent_range[0], w.u_range[0])
        return sufficient_h_index(w.t_range[1], j_floor)

    def _x_index(self) -> int:
        w = self.window
        # alpha' and each x(n) carry u-degree 1, so monomials reach v1
        # exponents up to one per s below the u floor
        j_floor = min(w.v1_exponent_range[0], w.u_range[0] - (1 + w.s_range[1]))
        n = sufficient_x_index(w.t_range[1], j_floor)
        # the induced differential on the M page rewrites h(n,1) as an
        # x(n-1) lift, so keep the two truncations aligned
        return max(n, self._h_index() - 1)

    def alphabet(self, tag: str, r: int) -> Alphabet:
        if tag not in TAGS:
            raise GF2PolyError(f"unknown spectrum tag {tag!r}")
        key = tag + ("x" if tag == "EndM" and r >= 3 else "")
        got = self._alphabets.get(key)
        if got is not None:
            return got
        n_max = self._h_index()
        hs = [Generator(f"h({n},1)", h_degree(n)) for n in range(1, n_max + 1)]
        v1 = Generator("v1", V1_DEGREE, invertible=True)
        if tag == "S":
            gens = [v1, Generator("h(1,0)", Multidegree(1, 1, 0))] + hs
        elif tag == "M":
            gens = [v1] + hs
        elif r <= 2:
            gens = [v1, Generator("alpha", ALPHA_DEGREE, nilpotent_square=True)] + hs
        else:
            gens = [
                Generator("v1", V1_DEGREE, invertible=True, stride=2),
                Generator("alpha", ALPHA_DEGREE, nilpotent_square=True),
                Generator("alphap", ALPHAP_DEGREE, nilpotent_square=True),
                Generator("h(1,1)", h_degree(1)),
            ] + [Generator(f"x({n})", x_degree(n)) for n in range(1, self._x_index() + 1)]
        a = Alphabet(gens)
        self._alphabets[key] = a
        return a

    # ---- presentations ----

    def presentation(self, tag: str, r: int) -> PagePresentation:
        key = (tag, r)
        got = self._presentations.get(key)
        if got is None:
            got = self._build_presentation(tag, r)
            self._presentations[key] = got
        return got

    def _build_presentation(self, tag: str, r: int) -> PagePresentation:
        if tag == "S":
            if r != 2:
                raise GF2PolyError("only the r=2 page is presented for S")
            a = self.alphabet("S", 2)
            # one differential value is known here; the others stay
            # unspecified rather than silently zero
            return PagePresentation(
                a,
                D2_SHIFT,
                {"v1": Polynomial.parse(a, "h(1,0)*h(1,1)")},
                name="sphere r=2",
            )
        if tag == "M":
            if r == 2:
                a = self.alphabet("M", 2)
                zero = Polynomial.zero(a)
                diffs = {g.name: zero for g in a}
                return PagePresentation(a, D2_SHIFT, diffs, name="two-cell r=2")
            if r == 3:
                return InducedD3Presentation(self)
            raise GF2PolyError(f"no presentation for (M, r={r})")
        if r == 2:
            a = self.alphabet("EndM", 2)
            diffs = {
                "v1": Polynomial.parse(a, "alpha*h(1,1)^2"),
                "alpha": Polynomial.zero(a),
                "h(1,1)": Polynomial.zero(a),
            }
            for n in range(2, self._h_index() + 1):
                diffs[f"h({n},1)"] = Polynomial.parse(a, f"v1^-1*alpha*h(1,1)^2*h({n},1)")
            return PagePresentation(a, D2_SHIFT, diffs, name="endomorphism r=2")
        if r == 3:
            a = self.alphabet("EndM", 3)
            relations = tuple(
                Polynomial.parse(a, text).monomials_sorted()[0]
                for text in ("alpha*h(1,1)^2", "alpha*alphap")
            )
            diffs = {
                "v1": Polynomial.parse(a, "h(1,1)^3"),
                "alpha": Polynomial.zero(a),
                "alphap": Polynomial.zero(a),
                "h(1,1)": Polynomial.zero(a),
            }
            if "x(1)" in a.names():
                diffs["x(1)"] = Polynomial.zero(a)
            for n in range(2, self._x_index() + 1):
                diffs[f"x({n})"] = Polynomial.parse(a, f"v1^-4*h(1,1)*x(1)*x({n-1})^2")
            return PagePresentation(
                a, D3_SHIFT, diffs, relations=relations, name="endomorphism r=3", conditional=True
            )
        raise GF2PolyError(f"no presentation for (EndM, r={r})")

    # ---- pages ----

    def page(self, tag: str, r: int) -> _PageDims:
        key = (tag, r)
        got = self._pages.get(key)
        if got is None:
            got = self._make_page(tag, r)
            self._pages[key] = got
        return got

    def _make_page(self, tag: str, r: int):
        if tag not in TAGS:
            raise GF2PolyError(f"unknown spectrum tag {tag!r}")
        if tag == "S":
            if r == 2:
                return PresentationPage(self.presentation("S", 2), self.window)
            raise GF2PolyError(
                "pages past r=2 are not available for S: only d2(v1) is known there"
            )
        if r not in (2, 3, 4):
            raise GF2PolyError(f"page index {r} is not supported")
        if tag == "M":
            if r == 2:
                return PresentationPage(self.presentation("M", 2), self.window)
            if r == 3:
                return self.page("M", 2)  # d2 vanishes on M
            return homology_page(self.presentation("M", 3), self.window)
        if r == 2:
            return PresentationPage(self.presentation("EndM", 2), self.window)
        if r == 3:
            return MatchedPage(self.presentation("EndM", 2), self._alpha_free_endm(), self._d2_odd_generators())
        return homology_page(self.presentation("EndM", 3), self.window)

    def _alpha_free_endm(self) -> WindowCounts:
        """The alpha-free E2(EndM) monomials of the window, parity-split on
        the generators with d2 != 0, counted once per Workbench.  The module
        isomorphisms read only the counts, so they do not rest on the
        proof (_d2_odd_generators) that page 3 needs of that split."""
        if self._alpha_free is None:
            pres = self.presentation("EndM", 2)
            a = pres.alphabet
            odd = [g.name for gi, g in enumerate(a) if pres.derivation_value(gi, 1)]
            self._alpha_free = count_window(Quotient(a, tuple(Polynomial.parse(a, "alpha").terms)), self.window, odd)
        return self._alpha_free

    def _d2_odd_generators(self) -> FrozenSet[int]:
        """The generators g of E2(EndM) with d2(g) = mu*g, mu = D2_FACTOR,
        read off the wired d2 after proving that it is a matching: every
        other generator has d2(g) = 0, mu squares to zero and there are no
        relations.  Refuses a d2 of any other form."""
        pres = self.presentation("EndM", 2)
        a = pres.alphabet
        mu = Polynomial.parse(a, D2_FACTOR)
        if pres.relations:
            raise GF2PolyError(f"{pres.name}: page 3 is only counted over a basis without relations")
        if mu * mu:
            raise GF2PolyError(f"{pres.name}: ({mu})^2 is not zero")
        odd = set()
        for gi, g in enumerate(a):
            image = pres.derivation_value(gi, 1)
            if not image:
                continue
            if image == mu.mul_monomial(((gi, 1),)):
                odd.add(gi)
            else:
                # refused, so that the reports reading page 3 fail
                raise PageRefusedError(f"{pres.name}: d2({g.name}) = {image} is neither 0 nor ({mu})*{g.name}", True)
        return frozenset(odd)

    # ---- module structure ----

    def _projection_rules(self) -> List[_ProjectionRule]:
        """Per page-3 EndM generator, how _project_terms rewrites it: None
        kills the term, a string is the error for a target the M alphabet
        lacks, and (k, i) turns g^e into v1^(k*e) * (M generator i)^e (i
        None: v1 only).  Written apart from the lift table _m_roles, so that
        the M r=3 proof's round trip compares two independent tables.

        Apart from v1 the targets are distinct and rise with the source
        order (h(1,1) -> h(1,1) and x(n) -> h(n+1,1)), so a term's image
        comes out canonically sorted."""
        if self._proj_rules is not None:
            return self._proj_rules
        dst = self.alphabet("M", 2)
        rules: List[_ProjectionRule] = []
        for g in self.alphabet("EndM", 3):
            if g.name in ("alpha", "alphap"):
                rules.append(None)
                continue
            kind, n, _ = _name_rank(g.name)
            k, target = (1, f"h({n + 1},1)") if kind == 4 else (0, g.name)
            if target == "v1":
                rules.append((1, None))
            elif target in dst.names():
                rules.append((k, dst.index(target)))
            else:
                rules.append(f"generator {target!r} not in alphabet")
        self._proj_rules = rules
        return rules

    def _project_terms(self, terms: Iterable[Monomial], eps: int = 0) -> FrozenSet[Monomial]:
        """The quotient map from the EndM page 3 to the M page, times v1^eps,
        on a sum of EndM monomials: kill the monomials divisible by a
        torsion generator, rewrite each x(n) factor as v1*h(n+1,1), and sum
        the images mod 2."""
        v1i = self.alphabet("M", 2).v1_index
        rules = self._projection_rules()
        out: List[Monomial] = []
        for mono in terms:
            k = eps
            rest: List[Tuple[int, int]] = []
            for gi, exp in mono:
                rule = rules[gi]
                if rule is None:
                    break
                if type(rule) is str:
                    raise GF2PolyError(rule)
                k += rule[0] * exp
                if rule[1] is not None:
                    rest.append((rule[1], exp))
            else:
                out.append(((v1i, k), *rest) if k else tuple(rest))
        return _xor(out)

    def _m_roles(self) -> List[Tuple[int, int]]:
        """Per M generator, read once off the name grammar: (n, i) with n = 0
        for v1 and n >= 1 for h(n,1), and i the index of the page-3 EndM
        generator it lifts to (v1, h(1,1), or x(n-1))."""
        if self._roles is None:
            dst = self.alphabet("EndM", 3)
            self._roles = []
            for g in self.alphabet("M", 2):
                kind, n, _ = _name_rank(g.name)
                target = "v1" if kind == 0 else "h(1,1)" if n == 1 else f"x({n - 1})"
                self._roles.append((n, dst.index(target)))
        return self._roles

    def _m_walk(self, mono: Monomial) -> Tuple[int, int, FrozenSet[int]]:
        """(j, a, odd) of an M monomial m, in one walk of the role table: j
        the corrected v1 exponent (each h(n,1), n >= 2, is a v1^-1*x(n-1)),
        a the h(1,1) exponent, and odd the page-3 EndM generators whose
        exponent in l(m) = lift_to_endm(m), over their stride, is odd; l(m)
        carries v1^(j - j mod 2) and v1's stride is 2."""
        roles = self._m_roles()
        j = a = 0
        odd = []
        for gi, exp in mono:
            n, target = roles[gi]
            if n == 0:
                j += exp
                continue
            if n == 1:
                a = exp
            else:
                j -= exp
            # no two factors share a target: while the round trip holds, l
            # is one to one on generators, and otherwise _d3m_ratio refuses
            if exp & 1:
                odd.append(target)
        if j >> 1 & 1:
            odd.append(self.alphabet("EndM", 3).v1_index)
        return j, a, frozenset(odd)

    def lift_to_endm(self, mono: Monomial) -> Tuple[Monomial, int]:
        """Write an M monomial as (page-3 EndM monomial) * v1^epsilon with
        epsilon in {0,1}: each h(n,1) with n >= 2 becomes v1^-1*x(n-1) and
        the leftover odd v1 power is the second module generator."""
        roles = self._m_roles()
        j = 0
        parts: List[Tuple[int, int]] = []
        for gi, exp in mono:
            n, target = roles[gi]
            if n == 0:
                j += exp
                continue
            if n > 1:
                j -= exp
            parts.append((target, exp))
        eps = j % 2
        if j - eps != 0:
            parts.append((self.alphabet("EndM", 3).v1_index, j - eps))
        return tuple(sorted(parts)), eps

    def induced_d3m_monomial(self, mono: Monomial) -> Polynomial:
        """d3 on the M page through the module structure: both module
        generators 1 and v1 are cycles, so d_M(m) = p(d_E(l(m))) * v1^eps
        with l = lift_to_endm and p the projection.

        Computed without lifting m: by the Leibniz rule d_E(l(m)) is the sum
        of l(m) * d_E(g^stride) / g^stride over the odd generators g of l(m)
        (_m_walk), and p is multiplicative on these alpha-free monomials, so
          d_M(m) = m * F(odd),  F(odd) = sum of p(d_E(g^stride)) / p(g^stride),
        as p(l(m)) * v1^eps = m once p(l(g)) * v1^eps = g on M's generators.
        F is summed once per odd set, where coinciding ratio terms cancel.
        M has no square-zero generator, so multiplying by m is one to one
        and no two products cancel.  Not memoized: page("M", 4) keeps these
        images as its matrices."""
        a_m = self.alphabet("M", 2)
        odd = self._m_walk(mono)[2]
        factor = self._d3m_factors.get(odd)
        if factor is None:
            factor = self._d3m_factors[odd] = _xor(r for gi in odd for r in self._d3m_ratio(gi))
        return Polynomial(a_m, frozenset(mono_mul(a_m, mono, r) for r in factor))

    def _d3m_ratio(self, gi: int) -> Tuple[Monomial, ...]:
        """p(d_E(g^stride)) / p(g^stride) for the page-3 EndM generator gi,
        as Laurent monomials over M.  A term of d_E(g^stride) that p kills
        drops out; should p kill g but not d_E(g^stride), d_E leaves the
        torsion ideal and no ratio transports it.  Each relation of the
        page contains alpha, which p kills, so apply_monomial's relation
        filter would remove nothing that p keeps.  Refused while the round
        trip moves an M generator (_m_round_trip): then no ratio gives M's
        d3."""
        moved = self._m_round_trip()
        if moved:
            m3 = self.presentation("M", 3)
            g, back = moved[0]
            raise PageRefusedError(
                f"{m3.name}: p(l({g})) * v1^eps is {back}, not {g}, so no d3 is transported", m3.conditional
            )
        pres = self.presentation("EndM", 3)
        g = pres.alphabet[gi]
        num = self._project_terms(pres.derivation_value(gi, g.stride).terms)
        den = self._project_terms([((gi, g.stride),)])
        if num and not den:
            raise GF2PolyError(f"{pres.name}: the projection to M kills {g.name} but not its d")
        inverse = [(i, -e) for mono in den for i, e in mono]
        return tuple(_merged([*mono, *inverse]) for mono in num)

    def _m_round_trip(self) -> List[Tuple[Polynomial, Polynomial]]:
        """(g, p(l(g)) * v1^eps) for each M generator g the lift/projection
        round trip moves, computed once: empty for the wired tables.  Both
        the M r=3 d² proof and the d3 transport read it."""
        if self._round_trip is None:
            a_m = self.alphabet("M", 2)
            self._round_trip = []
            for gi in range(len(a_m)):
                g = ((gi, 1),)
                lifted, eps = self.lift_to_endm(g)
                back = self._project_terms([lifted], eps)
                if back != {g}:
                    self._round_trip.append((Polynomial.monomial(a_m, g), Polynomial(a_m, back)))
        return self._round_trip

    # ---- w grading ----

    def w_degree(self, mono: Monomial, walk: Optional[Tuple[int, int, FrozenSet[int]]] = None) -> int:
        """w of an M monomial: x factors carry no w, so only the corrected v1
        exponent j and the h(1,1) exponent a count.  walk is _m_walk(mono),
        walked here unless the caller has it."""
        j, a, _ = walk or self._m_walk(mono)
        return w_of_v1_exponent(j) + a

    def _w_list(self, d: Multidegree) -> List[int]:
        """w of each M basis monomial of degree d, in basis order, walked
        once per v1-orbit: the list of d - _W_STEP is d's own (_w_shared)."""
        got = self._w_lists.get(d)
        if got is None:
            got = self._w_shared(d)
            if got is None:
                got = [self.w_degree(m) for m in self.page("M", 3).basis(d)]
            self._w_lists[d] = got
        return got

    def _w_shared(self, d: Multidegree) -> Optional[List[int]]:
        """The very w list of d - _W_STEP when it is also d's, else None.

        It is when both degrees are complete and their bases have the same
        nonzero size (an empty list shares nothing, and the nonempty bases
        end the walk down the orbit).  A complete degree holds every
        monomial of its degree, so multiplying by v1^W_PERIOD (v1 is
        invertible) maps the basis at d - _W_STEP one to one onto the basis
        at d, keeping the canonical order (v1 exponent, then the v1-free
        part), as homology_page's matrices do.  It adds W_PERIOD to the
        corrected v1 exponent j of _m_walk and keeps the h(1,1) exponent, so
        it keeps w = w4(j) + a, w4 having period W_PERIOD."""
        page = self.page("M", 3)
        earlier = d - _W_STEP
        size = page.size(d)
        if size and page.trusted(d) and page.trusted(earlier) and page.size(earlier) == size:
            return self._w_list(earlier)
        return None

    def verify_w_grading(self) -> Report:
        """d3 raises w by exactly 1 on every in-window M basis monomial m.

        d3(m) = {m*r : r in F(odd)} (induced_d3m_monomial), so the row of m
        is decided by the shifts w(m*r) - w(m), r in F(odd).  They depend
        only on the key (j mod 4, odd) of _m_walk: w(m) = w4(j) + a with w4
        a function of j mod 4, and m*r has exponents j + j_r and a + a_r, so
        each shift is w4(j + j_r) - w4(j) + a_r.  They are read off one image
        per key.

        The rows are decided once per w list.  Where _w_list shares the
        list of d - _W_STEP with d, v1^W_PERIOD maps the basis at d - _W_STEP
        onto the basis at d in order and keeps each key (j mod 4, and the
        odd set, whose v1 entry is bit 1 of j), so the (lhs, rhs) of the
        rows at d are those of the list's first degree.  At that degree one
        walk per monomial gives both its w and its key.  Page 4 of M is
        built first, so a refused d3 fails here."""
        self.page("M", 4)
        page = self.page("M", 3)
        shifts: Dict[Tuple[int, FrozenSet[int]], Set[int]] = {}
        sides: Dict[int, List[Tuple[int, int]]] = {}  # id of a w list -> (lhs, rhs) of its rows
        rows = []
        for d in page.degrees():
            w_list = self._w_lists.get(d)
            if w_list is None:
                w_list = self._w_shared(d)
            got = None if w_list is None else sides.get(id(w_list))
            if got is None:
                basis = page.basis(d)
                walks = [self._m_walk(mono) for mono in basis]
                if w_list is None:
                    w_list = [self.w_degree(m, walk) for m, walk in zip(basis, walks)]
                got = sides[id(w_list)] = []
                for mono, (j, _, odd), w_in in zip(basis, walks, w_list):
                    key = (j % W_PERIOD, odd)
                    shift = shifts.get(key)
                    if shift is None:
                        image = self.induced_d3m_monomial(mono).terms
                        shift = shifts[key] = {self.w_degree(m) - w_in for m in image}
                    if shift:
                        # an image spread over several w reads -1, which
                        # w_in + 1 >= 1 never equals
                        got.append((w_in + 1, w_in + min(shift) if len(shift) == 1 else -1))
            self._w_lists[d] = w_list
            rows.extend(check_row("w-shift", d, lhs, rhs) for lhs, rhs in got)
        return Report("w-grading", rows, conditional=True)

    # ---- d squared ----

    def verify_differentials_square_to_zero(self) -> Dict[str, D2Report]:
        """d2 and d3 square to zero on the E2/E3 pages of EndM and M, each
        proved from the generators (verify_d_squared is the test oracle)."""
        m2 = d_squared_on_generators(self.presentation("M", 2), self.window)
        endm3 = d_squared_on_generators(self.presentation("EndM", 3), self.window)
        return {
            "EndM r=2": d_squared_on_generators(self.presentation("EndM", 2), self.window),
            "M r=2": m2,
            "EndM r=3": endm3,
            "M r=3": self._induced_d3_squared(endm3, m2.checked),
        }

    def _induced_d3_squared(self, endm3: D2Report, checked: int) -> D2Report:
        """d3 on M squares to zero, proved from EndM r=3 and the generators.

        Write l for lift_to_endm, p for the projection and eps for the
        leftover v1 parity, so that d_M(m) = p(d_E(l(m))) * v1^eps.  Then
        d_M² = 0 on the whole M basis when
          (a) d_E² = 0 (the EndM r=3 report endm3 is ok);
          (b) d_E maps the torsion ideal (alpha, alphap) into itself, so
              p(d_E(x)) depends on p(x) alone;
          (c) l and p are inverse on generators: p(l(g)) * v1^eps = g for
              each M generator g, and l(p(g)) = (g, 0) for each EndM
              generator g that p keeps;
        for then d_M(d_M(m)) = p(d_E(d_E(l(m)))) * v1^eps = 0.  The M side
        of (c) is also what induced_d3m_monomial's transport rests on.  Both
        read _m_round_trip, so a table that breaks it fails here and M's
        page 4 refuses it.  Failures are
        endm3's, (torsion generator, its d), and (generator, its round
        trip).  checked is the size of the M basis, which the M r=2 report
        has counted, and the report is conditional with endm3, whose d3 it
        is built on."""
        pres = self.presentation("EndM", 3)
        a_e = pres.alphabet
        a_m = self.alphabet("M", 2)
        rules = self._projection_rules()
        failures = list(endm3.failures)
        for gi, rule in enumerate(rules):
            if type(rule) is str:
                continue
            g = ((gi, a_e[gi].stride),)
            image = pres.derivation_value(*g[0])
            if rule is None:
                if any(all(rules[i] is not None for i, _ in term) for term in image.terms):
                    failures.append((Polynomial.monomial(a_e, g), image))
                continue
            # p must be defined on d_E(g) too: raises, as d_M would, when a
            # term needs a generator the M alphabet lacks
            self._project_terms(image.terms)
            (back,) = self._project_terms([g])
            if self.lift_to_endm(back) != (g, 0):
                failures.append((Polynomial.monomial(a_e, g), Polynomial(a_m, [back])))
        failures.extend(self._m_round_trip())
        return D2Report(checked=checked, failures=failures, conditional=endm3.conditional)

    # ---- page comparisons ----

    def verify_e3_presentation(self) -> Report:
        """Dimensionwise match between the homology of (E2(EndM), d2) and
        the presented page 3, at every degree trusted on both sides.  Both
        sides are counted, not enumerated: the homology off the d2 matching
        over the E2(EndM) alphabet, the presented page as the quotient of
        the E3(EndM) alphabet by its relations."""
        computed = self.page("EndM", 3)
        presented = PresentationPage(self.presentation("EndM", 3), self.window)
        rows = []
        for d in sorted(set(computed.degrees()) | set(presented.degrees())):
            if computed.trusted(d) and presented.trusted(d):
                rows.append(check_row("e3-presentation", d, computed.dim(d), presented.dim(d)))
        return Report("e3-presentation", rows, conditional=True)

    def verify_module_isomorphisms(self) -> Report:
        """dim E2(M) = dim E2(EndM)/(alpha) = dim E2(S)/(h(1,0)), degree by
        degree.  The quotients are counted, not enumerated."""
        m_page = self.page("M", 2)
        # the counts carry the trust of the whole EndM and S bases
        sphere = self.alphabet("S", 2)
        endm_free = self._alpha_free_endm()
        sphere_free = count_window(Quotient(sphere, tuple(Polynomial.parse(sphere, "h(1,0)").terms)), self.window)
        rows = []
        for d in m_page.degrees():
            if not (endm_free.complete(d) and sphere_free.complete(d)):
                continue
            lhs = m_page.dim(d)
            rows.append(check_row("m-vs-endm-mod-alpha", d, lhs, endm_free.count(d)))
            rows.append(check_row("m-vs-s-mod-h10", d, lhs, sphere_free.count(d)))
        return Report("module-isomorphisms", rows)

    # ---- the w-sliced complex ----

    def _slice_rank(self, d: Multidegree, n: int) -> int:
        """Rank of d3 from slice n at d to slice n+1 at d+shift, read off the
        page-4 matrix at d (built at every trusted d and one shift below).
        It presumes the w grading, which verify_w_grading checks: then the
        slice-n columns meet only slice-n+1 rows.  The rank is a function of
        the matrix, the w list and n, so it is taken once per (matrix list,
        w list, n): degrees of one v1-orbit share both lists."""
        w_list = self._w_list(d)
        if n not in w_list:
            return 0
        rows = self.page("M", 4).matrix(d)
        key = (id(rows), id(w_list), n)
        got = self._slice_ranks.get(key)
        if got is None:
            cols = sum(1 << j for j, w in enumerate(w_list) if w == n)
            got = self._slice_ranks[key] = rank([row & cols for row in rows])
        return got

    def _slice_inputs(self, d: Multidegree) -> Tuple[int, ...]:
        """What the slice dimensions at d read: the ids of its w list and,
        where that list is nonempty, of its page-4 matrix; empty for an
        empty list, whose slices are all 0.  A nonempty list is read only
        at trusted degrees and one shift below them, which have a matrix."""
        w_list = self._w_list(d)
        return (id(w_list), id(self.page("M", 4).matrix(d))) if w_list else ()

    def _slice_kernel_dim(self, d: Multidegree, n: int) -> int:
        return self._w_list(d).count(n) - self._slice_rank(d, n)

    def _slice_homology_dim(self, d: Multidegree, n: int) -> int:
        h = self._slice_kernel_dim(d, n)
        if n > 0:
            h -= self._slice_rank(d - D3_SHIFT, n - 1)
        return h

    # ---- pattern counts off the squares-complex tables ----

    def mahowald_tables(self) -> ZBHTables:
        if self._zbh is None:
            w = self.window
            q_max = w.t_range[1] - 2 * w.u_range[0] + 3 * w.s_range[1] + 20
            p_max = 2 * w.s_range[1] + 8
            self._zbh = zbh_bases(p_max, q_max)
        return self._zbh

    def _pattern_count(self, kind: str, d: Multidegree, a: int, residues: Tuple[int, int]) -> int:
        """Number of degree-d monomials v1^m h(1,1)^a (x part) where the x
        part runs over a table slice of the complex of squares and m is
        constrained mod 4.  The x part must sit at bidegree
        (2(s-a), t-2u+3s-5a), which forces m = u-(s-a)."""
        if a < 0:
            return 0
        parts = d.s - a
        if parts < 0:
            return 0
        if (d.u - parts) % 4 not in residues:
            return 0
        q = d.t - 2 * d.u + 3 * d.s - 5 * a
        if q < 0:
            return 0
        p = 2 * parts
        tables = self.mahowald_tables()
        if p > tables.p_max or q > tables.q_max:
            raise UntrustedDegreeError(
                f"pattern count at {tuple(d)} needs bidegree ({p}, {q}) beyond the computed box"
            )
        z, b = tables.dims(p, q)
        return z if kind == "Z" else b if kind == "B" else z - b

    def _zf(self, n: int, d: Multidegree) -> int:
        return self._pattern_count("Z", d, n, (0, 1))

    def _hf(self, n: int, d: Multidegree) -> int:
        return self._pattern_count("H", d, n, (0, 1))

    def _bv(self, n: int, d: Multidegree) -> int:
        return self._pattern_count("B", d, n - 2, (2, 3))

    def _bf(self, n: int, d: Multidegree) -> int:
        return self._pattern_count("B", d, n, (0, 1))

    # ---- the slice claims ----

    def verify_e4_claims(self) -> Report:
        """Per-degree dimension checks of the sliced page-4 description.

        claim-1: slice-0 homology counts cycle patterns;
        claim-2: slice-1 homology counts homology patterns;
        claim-3: slice 2 adds the boundary patterns arriving with w(v1)=2;
        claim-4: slices n >= 3 vanish;
        claim-i: kernel dimensions per slice;
        claim-ii: image dimensions per slice, with im = ker above slice 1.

        Each row is written at its own degree, but the values of a degree
        are computed once per distinct input.  They read the slices at d,
        d - D3_SHIFT and, where page 4 trusts it, d + D3_SHIFT, each a
        function of a w list and a page-4 matrix (_slice_inputs), and
        pattern counts at d and d + D3_SHIFT, which read d through
        _orbit(d) alone.  Two degrees with the same list objects, the same
        trust one shift up and the same orbit have the same values.
        """
        page4 = self.page("M", 4)
        values: Dict[tuple, List[Tuple[str, Optional[int], int, int]]] = {}
        rows: List[CheckRow] = []
        for d in page4.degrees():
            d_next = d + D3_SHIFT
            # the image claim reads dimensions one shift up, so it needs
            # one more complete degree
            up = page4.trusted(d_next)
            key = (
                self._slice_inputs(d),
                self._slice_inputs(d - D3_SHIFT),
                self._slice_inputs(d_next) if up else None,
                _orbit(d),
            )
            got = values.get(key)
            if got is None:
                got = values[key] = self._e4_claim_values(d, up)
            rows.extend(check_row(claim, d if n is None else (*d, n), lhs, rhs) for claim, n, lhs, rhs in got)
        return Report("e4-claims", rows, conditional=True)

    def _e4_claim_values(self, d: Multidegree, up: bool) -> List[Tuple[str, Optional[int], int, int]]:
        """(claim, n, lhs, rhs) of each e4-claims row at d, in row order; n
        is None for the claims whose row is keyed by d alone.  up: whether
        page 4 trusts d + D3_SHIFT."""
        out: List[Tuple[str, Optional[int], int, int]] = []
        n_here = set(self._w_list(d))
        n_prev = set(self._w_list(d - D3_SHIFT))
        for n in sorted(n_here | {n + 1 for n in n_prev}):
            h = self._slice_homology_dim(d, n)
            if n == 0:
                out.append(("claim-1", None, h, self._zf(0, d)))
            elif n == 1:
                out.append(("claim-2", None, h, self._hf(1, d)))
            elif n == 2:
                out.append(("claim-3", None, h, self._hf(2, d) + self._bv(2, d)))
            else:
                out.append(("claim-4", None, h, 0))
        for n in sorted(n_here):
            ker = self._slice_kernel_dim(d, n)
            expect = self._zf(n, d) if n < 2 else self._zf(n, d) + self._bv(n, d)
            out.append(("claim-i", n, ker, expect))
        if up:
            d_next = d + D3_SHIFT
            for n in sorted(n_here):
                im = self._slice_rank(d, n)
                if n < 2:
                    expect = self._bf(n + 1, d_next)
                else:
                    expect = self._slice_kernel_dim(d_next, n + 1)
                out.append(("claim-ii", n, im, expect))
        return out

    def verify_e4_dimensions(self) -> Report:
        """dim of the computed page 4 of M equals the sum of the sliced
        closed forms, degree by degree.  The closed forms are pattern
        counts, so their sum is taken once per _orbit."""
        page4 = self.page("M", 4)
        closed: Dict[Tuple[int, int, int], int] = {}
        rows = []
        for d in page4.degrees():
            orbit = _orbit(d)
            rhs = closed.get(orbit)
            if rhs is None:
                rhs = closed[orbit] = self._zf(0, d) + self._hf(1, d) + self._hf(2, d) + self._bv(2, d)
            rows.append(check_row("e4-closed-form", d, page4.dim(d), rhs))
        return Report("e4-closed-form", rows, conditional=True)

    # ---- survival fates ----

    def survival_report(self) -> Report:
        """The four named survivors of page 4 of EndM, then the fate of
        every in-window v1^m x(n) class (n >= 2): each must support or be
        hit by a nonzero d2 or d3.  A row whose degree the window does not
        trust is insufficient, not a mismatch.

        Page 4 of EndM is never built over the whole window here.  A
        survivor's degree d is trusted when page 4 would trust it, read off
        the counts of E3(EndM) over the window; its class is then decided on
        page 4 over the smallest window holding d and d +- D3_SHIFT, with
        the same alphabet and v1 range.  A degree's basis depends only on
        the degree, the alphabet and the v1 range, not on the box around
        it, so that page agrees with the whole one at d."""
        rows: List[CheckRow] = []
        pres3 = self.presentation("EndM", 3)
        counts = pres3.basis_counts(self.window)
        # a window too small to trust x(1)'s degree may lack x(1) itself,
        # so each class is parsed only where its degree is trusted
        survivors = (
            ("alpha", ALPHA_DEGREE),
            ("alphap", ALPHAP_DEGREE),
            ("h(1,1)", h_degree(1)),
            ("x(1)", x_degree(1)),
        )
        for text, d in survivors:
            trusted = counts.complete_around(d, D3_SHIFT)
            # a survivor with d3 != 0 dies before page 4, as no cycle
            alive = trusted and not pres3.derivation_value(pres3.alphabet.index(text), 1)
            alive = alive and homology_page(pres3, self._window_around(d)).class_is_nonzero(
                Polynomial.parse(pres3.alphabet, text), d
            )
            rows.append(check_row(f"survives-to-e4:{text}", d, int(alive), 1, decided=trusted))
        rows.extend(self._xn_fates())
        return Report("survival", rows, conditional=True)

    def _window_around(self, d: Multidegree) -> TruncationWindow:
        """The smallest window that holds d and d +- D3_SHIFT, with this
        window's v1 range."""
        ranges = (tuple(sorted(pair)) for pair in zip(d - D3_SHIFT, d + D3_SHIFT))
        return TruncationWindow(self.window.v1_exponent_range, *ranges)

    def _xn_fates(self) -> List[CheckRow]:
        """v1^m x(n) = v1^(m+1) h(n+1,1): odd m supports d2; even m lives
        on page 3 and must support d3 or be a d3 boundary there."""
        pres2 = self.presentation("EndM", 2)
        pres3 = self.presentation("EndM", 3)
        a2 = pres2.alphabet
        a3 = pres3.alphabet
        page3 = self.page("EndM", 3)
        v1_lo, v1_hi = self.window.v1_exponent_range
        rows = []
        # v1^m x(n) is read as v1^(m+1) h(n+1,1); _x_index keeps x(n) as well
        for n in range(2, self._h_index()):
            for m in range(v1_lo, v1_hi + 1):
                if not (v1_lo <= m + 1 <= v1_hi):
                    continue
                d = V1_DEGREE.scaled(m + 1) + h_degree(n + 1)
                if not self.window.contains(d):
                    continue
                e2 = Polynomial.gen(a2, "v1", m + 1) * Polynomial.gen(a2, f"h({n + 1},1)")
                if m % 2:
                    fate = "supports-d2" if not pres2.apply(e2).is_zero() else "missed"
                else:
                    e3 = Polynomial.gen(a3, "v1", m) * Polynomial.gen(a3, f"x({n})")
                    if not pres3.apply(e3).is_zero():
                        fate = "supports-d3"
                    elif not page3.trusted(d):
                        fate = "undecided"
                    elif not page3.class_is_nonzero(e2, d):
                        fate = "hit-by-d2"
                    else:
                        fate = "missed"
                died = int(fate not in ("missed", "undecided"))
                rows.append(check_row(f"dies:v1^{m}*x({n})", d, died, 1, decided=fate != "undecided"))
        return rows

    # ---- the decomposition identity ----

    def mahowald_decomposition_check(self) -> Report:
        """Adams-cell comparison: total dim of page 4 of M against one bo
        pattern per homology class of the complex of squares plus one bu
        pattern per boundary class, each suspended by its bidegree.

        Both sides are keyed by Adams (s, t) = (filtration, internal
        degree) and built by the rules the charts use: the left collapses
        page 4 of M by adams_bidegree, and the right places each class's
        pattern by pattern_stems.  That page is built over
        _decomposition_window only, by the rule of survival_report.

        A cell is covered when every tridegree collapsing to it either is
        trusted in the window or provably carries no monomial of w <= 2,
        so that its page-4 part vanishes by the slice claims (decided in
        closed form by low_w_monomial_possible, so trust is read only where
        such a monomial can lie), and exact
        when the tables hold every class whose pattern can reach it.
        Other cells are reported as insufficient, never silently dropped.
        """
        w = self.window
        page4 = homology_page(self.presentation("M", 3), self._decomposition_window())
        lhs: Dict[Tuple[int, int], int] = {}
        for d, n in page4.dimensions():
            cell = adams_bidegree(d)
            lhs[cell] = lhs.get(cell, 0) + n
        stems = range(w.t_range[0] - w.s_range[1], DECOMPOSITION_STEM_MAX + 1)
        filts = range(w.u_range[0], DECOMPOSITION_FILT_MAX + 1)
        tables = self.mahowald_tables()
        rhs: Dict[Tuple[int, int], int] = {}
        for kind in ("H", "B"):
            for (p, q), n in tables.dimension_table(kind).rows.items():
                for filt in filts:
                    bo, bu = pattern_stems(p, q, filt)
                    for stem in bo if kind == "H" else (bu,):
                        if stem in stems:
                            cell = (filt, stem + filt)
                            rhs[cell] = rhs.get(cell, 0) + n
        rows: List[CheckRow] = []
        for stem in stems:
            for filt in filts:
                cell = (filt, stem + filt)
                decided = self._cell_covered(page4, stem, filt) and _cell_exact(tables, stem, filt)
                rows.append(check_row("decomposition", cell, lhs.get(cell, 0), rhs.get(cell, 0), decided=decided))
        return Report("decomposition", rows, conditional=True)

    def _decomposition_window(self) -> TruncationWindow:
        """This window with t clipped to the top the decomposition scan
        trusts: (s, stem + s, u) is trusted only when its degree one D3_SHIFT
        up is in the window.  A t floor above that top stays the top."""
        w = self.window
        top = DECOMPOSITION_STEM_MAX + w.s_range[1] - D3_SHIFT.s + D3_SHIFT.t
        return replace(w, t_range=(w.t_range[0], max(w.t_range[0], min(w.t_range[1], top))))

    def _cell_covered(self, page4, stem: int, filt: int) -> bool:
        """Whether each tridegree (s, stem + s, filt - s) collapsing to the
        cell is trusted on page4 or holds no monomial of w <= 2.  Its t - 2u
        is c + 3s with c = stem - 2*filt, and past s = (c + 8) // 3 a w <= 2
        monomial would cost more internal degree than the cell provides
        (each factor above h(1,1) costs at least 6), so trust is read only
        where low_w_monomial_possible allows one.  That needs
        c + 5s - 4*a1 = 0 mod 8 for some a1 (_parts_sum), so only the s with
        s = -c mod 4 are visited."""
        c = stem - 2 * filt
        return all(
            page4.trusted(Multidegree(s, stem + s, filt - s))
            for s in range(-c % 4, max(self.window.s_range[1], (c + 8) // 3) + 1, 4)
            if low_w_monomial_possible(s, c + 3 * s, filt - s)
        )


def _cell_exact(tables: ZBHTables, stem: int, filt: int) -> bool:
    """Whether the tables hold every class whose pattern can reach the
    cell: q within 2 of c + 3p, and q >= 9p/2 in the complex of squares."""
    c = stem - 2 * filt
    p_pot = 2 * (c + 2) // 3
    return p_pot <= tables.p_max and c + 3 * max(p_pot, 0) + 2 <= tables.q_max
