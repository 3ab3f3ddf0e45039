"""Ext over the four-dimensional quotient coalgebra on xi1 (xi1^4 = 0),
with coefficients in small comodules.

The two comodules of interest are the homology of the two-cell complex
(cells x0, x1) and of its endomorphism algebra (basis 1, alpha, gamma,
alpha*gamma).  The latter is not written down by hand: it is derived from
the cell-pair model x_i y_j, and the basis change is checked for
consistency on the way.  The comodule axioms and the multiplication of the
cell-pair model are checked in tests/oracles.py.

xi1 and xi1^2 are both primitive, so the coalgebra is E[xi1] (x) E[xi1^2]
and Ext^{s,t} is the cohomology of Priddy's Koszul complex M (x) F2[h10, h11]
(Priddy, Koszul resolutions, Trans. AMS 152, 1970): at most dim M cells per
bidegree.  The reduced cobar complex stays as the cochain-level checker
(coboundary tests for named cochains) and as the independent oracle for the
Koszul dimensions.  Its d² = 0 is proved on the short cells, those of bar
length at most 1: each label once, each bar entry once.  The cells of the
box are counted, not built; the sweep over every cell is in
tests/oracles.py.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .dga import D2Report, DimensionTable
from .gf2linalg import Subspace, column_space_basis, rank
from .gf2poly import GF2PolyError, _xor

__all__ = [
    "COALGEBRA",
    "QuotientCoalgebra",
    "Comodule",
    "CobarCochain",
    "CobarComplex",
    "trivial_comodule",
    "moore_comodule",
    "endomorphism_comodule",
    "cobar_differential",
    "ext_dimensions",
    "class_identity_check",
    "verify_cobar_d_squared",
]

# a coaction or tensor element of C (x) V is a set of (xi1 power, label) pairs
Tensor = FrozenSet[Tuple[int, str]]


class QuotientCoalgebra:
    """F_2[xi1]/(xi1^4) with the binomial diagonal, |xi1^i| = i."""

    height = 4

    def __init__(self):
        # both diagonals once per instance; the reduced one is read off delta_full
        self._full: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        self._reduced: Dict[int, Tuple[Tuple[int, int], ...]] = {}

    def delta_full(self, i: int) -> Tuple[Tuple[int, int], ...]:
        got = self._full.get(i)
        if got is None:
            if not 0 <= i < self.height:
                raise GF2PolyError(f"xi1^{i} is not a basis element")
            got = self._full[i] = tuple((j, i - j) for j in range(i + 1) if comb(i, j) % 2)
        return got

    def delta_reduced(self, i: int) -> Tuple[Tuple[int, int], ...]:
        got = self._reduced.get(i)
        if got is None:
            got = self._reduced[i] = tuple((j, k) for j, k in self.delta_full(i) if j and k)
        return got


COALGEBRA = QuotientCoalgebra()


@dataclass(frozen=True)
class Comodule:
    """A finite graded comodule over the xi1 coalgebra."""

    name: str
    labels: Tuple[str, ...]
    degree_of: Tuple[int, ...]
    coaction_table: Tuple[Tuple[Tuple[int, str], ...], ...]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise GF2PolyError(f"{label!r} is not a basis label of {self.name}") from None

    def degree(self, label: str) -> int:
        return self.degree_of[self.index(label)]

    def coact(self, label: str) -> Tensor:
        """The full stored coaction of a basis element."""
        return frozenset(self.coaction_table[self.index(label)])

    def coact_reduced(self, label: str) -> Tensor:
        return frozenset(p for p in self.coact(label) if p[0] != 0)


def trivial_comodule() -> Comodule:
    return Comodule(
        name="trivial",
        labels=("1",),
        degree_of=(0,),
        coaction_table=(((0, "1"),),),
    )


def moore_comodule() -> Comodule:
    """Two cells x0, x1 with xi1 connecting them."""
    return Comodule(
        name="two-cell",
        labels=("x0", "x1"),
        degree_of=(0, 1),
        coaction_table=(
            ((0, "x0"),),
            ((0, "x1"), (1, "x0")),
        ),
    )


# cell-pair model: basis x_i y_j, deg = i + j
_XDEG = {"x0": 0, "x1": 1}
_YDEG = {"y-1": -1, "y0": 0}


def _cell_coaction(cell: Tuple[str, str]) -> Tensor:
    x, y = cell
    psi_x = {(0, x)} if x == "x0" else {(0, "x1"), (1, "x0")}
    psi_y = {(0, y)} if y == "y-1" else {(0, "y0"), (1, "y-1")}
    return _xor(
        ((i + j, (a, b)) for i, a in psi_x for j, b in psi_y if i + j < COALGEBRA.height)
    )


# the basis change 1 = x1 y-1 + x0 y0, alpha = x0 y-1, gamma = x1 y0,
# alpha*gamma = x0 y0, and its inverse on the cells; the multiplication
# table of tests/oracles.py reads them too
_ENDO_BASIS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "1": (("x1", "y-1"), ("x0", "y0")),
    "alpha": (("x0", "y-1"),),
    "gamma": (("x1", "y0"),),
    "alpha*gamma": (("x0", "y0"),),
}
_ENDO_CELLS: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("x0", "y-1"): ("alpha",),
    ("x0", "y0"): ("alpha*gamma",),
    ("x1", "y0"): ("gamma",),
    ("x1", "y-1"): ("1", "alpha*gamma"),
}


def endomorphism_comodule() -> Comodule:
    """Four-dimensional endomorphism comodule, derived from the cell-pair
    model and rebased to 1, alpha, gamma, alpha*gamma."""
    labels = tuple(_ENDO_BASIS)
    degrees = tuple(_XDEG[_ENDO_BASIS[l][0][0]] + _YDEG[_ENDO_BASIS[l][0][1]] for l in labels)
    coactions = [
        tuple(sorted(_xor(
            (i, m) for cell in _ENDO_BASIS[label] for i, c2 in _cell_coaction(cell) for m in _ENDO_CELLS[c2]
        )))
        for label in labels
    ]
    com = Comodule(
        name="endomorphism",
        labels=labels,
        degree_of=degrees,
        coaction_table=tuple(coactions),
    )
    # the basis change must make the unit grouplike
    if com.coact("1") != frozenset({(0, "1")}):
        raise GF2PolyError("cell-pair model gives a non-grouplike unit")
    return com


# a cochain term is (powers, label): positive xi1 powers in the bar slots
Term = Tuple[Tuple[int, ...], str]


class CobarCochain:
    """A formal GF(2) sum of cobar terms xi1^a1 | ... | xi1^as | m."""

    __slots__ = ("comodule", "terms")

    def __init__(self, comodule: Comodule, terms: Iterable[Term] = ()):
        self.comodule = comodule
        self.terms: FrozenSet[Term] = terms if isinstance(terms, frozenset) else _xor(terms)

    @classmethod
    def basis_element(cls, comodule: Comodule, powers: Sequence[int], label: str) -> "CobarCochain":
        powers = tuple(powers)
        for a in powers:
            if not 1 <= a < COALGEBRA.height:
                raise GF2PolyError(f"bar entry xi1^{a} out of range")
        comodule.index(label)
        return cls(comodule, frozenset({(powers, label)}))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CobarCochain") -> "CobarCochain":
        if self.comodule is not other.comodule and self.comodule != other.comodule:
            raise GF2PolyError("cochains over different comodules")
        return CobarCochain(self.comodule, self.terms ^ other.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CobarCochain)
            and self.comodule == other.comodule
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.comodule.name, self.terms))

    def bidegree(self) -> Optional[Tuple[int, int]]:
        """(s, t) common to all terms; None for zero; raises when mixed."""
        bds = {
            (len(p), sum(p) + self.comodule.degree(label)) for p, label in self.terms
        }
        if not bds:
            return None
        if len(bds) > 1:
            raise GF2PolyError("cochain is not homogeneous")
        return bds.pop()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        def fmt(term: Term) -> str:
            powers, label = term
            slots = [f"xi1^{a}" if a > 1 else "xi1" for a in powers]
            return "|".join(slots + [label])
        return " + ".join(fmt(t) for t in sorted(self.terms))

    def __repr__(self) -> str:
        return f"CobarCochain({self})"


def cobar_differential(c: CobarCochain) -> CobarCochain:
    """Insert the reduced diagonal at every bar slot and the reduced
    coaction at the coefficient slot; all signs vanish over GF(2)."""
    out: List[Term] = []
    com = c.comodule
    for powers, label in c.terms:
        for slot, a in enumerate(powers):
            for j, k in COALGEBRA.delta_reduced(a):
                out.append((powers[:slot] + (j, k) + powers[slot + 1 :], label))
        for i, m in com.coact_reduced(label):
            out.append((powers + (i,), m))
    return CobarCochain(com, _xor(out))


class CobarComplex:
    """Bidegree-sliced cobar complex of one comodule, with cached bases."""

    def __init__(self, comodule: Comodule):
        self.comodule = comodule
        self._basis_cache: Dict[Tuple[int, int], Tuple[Term, ...]] = {}

    def basis(self, s: int, t: int) -> Tuple[Term, ...]:
        key = (s, t)
        got = self._basis_cache.get(key)
        if got is not None:
            return got
        out: List[Term] = []
        if s >= 0:
            for li, label in enumerate(self.comodule.labels):
                target = t - self.comodule.degree_of[li]
                out.extend((p, label) for p in _compositions(target, s, COALGEBRA.height - 1))
        basis = tuple(sorted(out, key=lambda term: (term[0], self.comodule.index(term[1]))))
        self._basis_cache[key] = basis
        return basis

    def matrix(self, s: int, t: int) -> List[int]:
        """Rows (target-indexed bitsets over source columns) of d at (s, t)."""
        source = self.basis(s, t)
        target = self.basis(s + 1, t)
        index = {term: i for i, term in enumerate(target)}
        rows = [0] * len(target)
        for j, term in enumerate(source):
            image = cobar_differential(CobarCochain(self.comodule, frozenset({term})))
            for out_term in image.terms:
                rows[index[out_term]] |= 1 << j
        return rows


def _compositions(total: int, slots: int, part_max: int) -> List[Tuple[int, ...]]:
    """Ordered tuples of `slots` integers in [1, part_max] summing to total."""
    if slots == 0:
        return [()] if total == 0 else []
    if total < slots or total > slots * part_max:
        return []
    out = []
    for first in range(1, part_max + 1):
        for rest in _compositions(total - first, slots - 1, part_max):
            out.append((first,) + rest)
    return out


def _koszul_slice(comodule: Comodule, s: int, t: int) -> Tuple[int, int]:
    """Cell count at (s, t) and rank of d to (s + 1, t).  A cell m (x) h10^a
    h11^b is named by its label m (b = t - |m| - s in [0, s] fixes a, b),
    and d sends it to the cells of the labels in psi(m) at xi1 and xi1^2."""
    rows: Dict[str, int] = {}
    cells = 0
    for j, deg in enumerate(comodule.degree_of):
        if not 0 <= t - deg - s <= s:
            continue
        cells += 1
        for i, m in comodule.coaction_table[j]:
            if i in (1, 2):
                rows[m] = rows.get(m, 0) ^ (1 << j)
    return cells, rank(rows.values())


def ext_dimensions(comodule: Comodule, s_max: int, t_range: Tuple[int, int]) -> DimensionTable:
    """Ext^{s,t} dimensions as the cohomology of the Koszul complex, where
    d(m (x) p) = sum of m' (x) h10 p over (1, m') in psi(m)
               + sum of m' (x) h11 p over (2, m') in psi(m)."""
    t_lo, t_hi = t_range
    below = dict.fromkeys(range(t_lo, t_hi + 1), 0)  # rank of d into (s, t)
    rows: Dict[Tuple[int, ...], int] = {}
    for s in range(s_max + 1):
        for t in range(t_lo, t_hi + 1):
            cells, r = _koszul_slice(comodule, s, t)
            n = cells - r - below[t]
            below[t] = r
            if n:
                rows[(s, t)] = n
    return DimensionTable(
        ("s", "t"),
        rows,
        {"comodule": comodule.name, "s_max": str(s_max), "t_range": f"{t_range[0]}..{t_range[1]}"},
    )


def class_identity_check(comodule: Comodule, c: CobarCochain) -> str:
    """Decide the fate of a homogeneous cochain: 'not-a-cycle',
    'zero-in-cohomology' (a coboundary, or zero), or 'nonzero'."""
    if c.is_zero():
        return "zero-in-cohomology"
    if not cobar_differential(c).is_zero():
        return "not-a-cycle"
    s, t = c.bidegree()
    if s == 0:
        return "nonzero"
    cx = CobarComplex(comodule)
    index = {term: i for i, term in enumerate(cx.basis(s, t))}
    v = 0
    for term in c.terms:
        v |= 1 << index[term]
    image = column_space_basis(cx.matrix(s - 1, t), len(cx.basis(s - 1, t)))
    return "zero-in-cohomology" if v in Subspace(image) else "nonzero"


def verify_cobar_d_squared(
    comodule: Comodule, s_max: int, t_range: Tuple[int, int]
) -> D2Report:
    """Prove d² = 0 on every cell of the box 0 <= s <= s_max, t in t_range,
    from the defects of the pieces its cells are made of.

    d inserts the reduced diagonal at one bar entry or the reduced coaction
    at the label, so d² inserts twice.  Over GF(2) two insertions at
    different pieces of a cell come up in both orders and cancel, so d² of
    a cell is the sum of the defects of its pieces, and a nonzero defect
    shows in every cell that holds its piece.  The defect of a label m is
    d²((), m), checked for each label some cell of the box carries.  The
    defect of a bar entry xi1^a is what d²((a,), m) adds to xi1^a | d²((), m);
    it does not depend on m, so it is checked once, under one held label,
    for each entry some cell of the box carries.

    checked is the number of cells in the box, counted without building
    them: a bar word of length s is a composition into s parts below the
    coalgebra height, and it carries the entry xi1^a when the rest of it
    is a word of length s - 1.  Each failure is a failing piece, not a box
    cell: the short cell ((), m) or ((a,), m) with its defect.  That cell
    may lie outside the box; every box cell holding the piece fails with
    it."""
    t_lo, t_hi = t_range
    # total -> how many bar words of length s, and of length s - 1
    words: Dict[int, int] = {0: 1}
    shorter: Dict[int, int] = {}
    checked = 0
    held, entries = set(), set()
    for s in range(s_max + 1):
        for label, deg in zip(comodule.labels, comodule.degree_of):
            totals = range(t_lo - deg, t_hi - deg + 1)
            cells = sum(words.get(n, 0) for n in totals)
            if cells:
                checked += cells
                held.add(label)
                entries.update(
                    a for a in range(1, COALGEBRA.height) if any(shorter.get(n - a) for n in totals)
                )
        longer: Dict[int, int] = {}
        for n, ways in words.items():
            for a in range(1, COALGEBRA.height):
                longer[n + a] = longer.get(n + a, 0) + ways
        words, shorter = longer, words
    failures = []
    defects = {}
    for label in comodule.labels:
        if label in held:
            c = CobarCochain(comodule, frozenset({((), label)}))
            defects[label] = cobar_differential(cobar_differential(c))
            if not defects[label].is_zero():
                failures.append((c, defects[label]))
    m = next(iter(defects), None)  # entries is empty when no label is held
    for a in sorted(entries):
        c = CobarCochain(comodule, frozenset({((a,), m)}))
        under = CobarCochain(comodule, frozenset(((a,) + p, n) for p, n in defects[m].terms))
        defect = cobar_differential(cobar_differential(c)) + under
        if not defect.is_zero():
            failures.append((c, defect))
    return D2Report(checked=checked, failures=failures)
