"""Graded-commutative GF(2) algebras with differentials, and their homology
over a truncation window.

A PagePresentation is an alphabet, a list of monomial relations, and a
differential given on generators and extended as a derivation.  The
invertible generator may carry a stride: its differential is then recorded
on the stride power (d of v1^stride), which is what a page containing only
even Laurent powers needs.

Homology is computed degreewise.  A degree is trusted when its basis and
the bases one differential-shift to either side are complete in the window,
so every reported dimension is exact rather than an artifact of truncation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .gf2linalg import Subspace, column_space_basis, kernel_basis, rank, subquotient_basis
from .gf2poly import (
    Alphabet,
    GF2PolyError,
    Monomial,
    Multidegree,
    Polynomial,
    Quotient,
    TruncationWindow,
    WindowBasis,
    WindowCounts,
    _WindowTrust,
    count_window,
    enumerate_window,
    mono_divides,
    mono_mul,
    mono_str,
)

__all__ = [
    "PagePresentation",
    "PresentationPage",
    "ComputedPage",
    "DimensionTable",
    "D2Report",
    "MissingDifferentialError",
    "PageRefusedError",
    "UntrustedDegreeError",
    "TruncationWindow",
    "d_squared_on_generators",
    "differential_matrix",
    "homology_page",
    "verify_d_squared",
]


_NO_SHIFT = Multidegree(0, 0, 0)


class MissingDifferentialError(GF2PolyError):
    """The differential of a generator is needed but was never specified."""


class UntrustedDegreeError(GF2PolyError):
    """A dimension was requested outside the trusted region of a window."""


class PageRefusedError(GF2PolyError):
    """homology_page refuses a differential: an image leaves the target
    basis, or d squared is nonzero.  conditional is the presentation's
    flag, which every report read off the page would carry."""

    def __init__(self, message: str, conditional: bool):
        super().__init__(message)
        self.conditional = conditional


class _OutsideTargetBasis(GF2PolyError):
    """An image term of differential_matrix is not a target basis monomial."""


class PagePresentation:
    """A presented page: polynomial algebra, monomial relations, differential.

    relations lists monomials equal to zero; a monomial of the quotient basis
    is one not divisible by any of them.  differentials maps generator names
    to their images (explicit zero allowed; a missing entry means unknown and
    raises when actually needed).  conditional flags a page built on wired
    conjectural values; every page of this presentation carries the flag.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        degree_shift: Multidegree,
        differentials: Dict[str, Polynomial],
        relations: Sequence[Monomial] = (),
        name: str = "",
        conditional: bool = False,
    ):
        self.alphabet = alphabet
        self.degree_shift = degree_shift
        self.quotient = Quotient(alphabet, tuple(relations))
        self.name = name
        self.conditional = conditional
        self.differentials: Dict[str, Polynomial] = {
            k: self._reduce_raw(v) for k, v in differentials.items()
        }
        self._dval_cache: Dict[Tuple[int, int], Polynomial] = {}
        self._basis_cache: Dict[TruncationWindow, WindowBasis] = {}
        self._count_cache: Dict[TruncationWindow, WindowCounts] = {}
        self._validate()

    def _validate(self):
        for name, val in self.differentials.items():
            g = self.alphabet.generator(name)
            if val.alphabet != self.alphabet:
                raise GF2PolyError(f"d({name}) lives over a different alphabet")
            if val.is_zero():
                continue
            expected = g.degree.scaled(g.stride) + self.degree_shift
            if val.multidegree() != expected:
                raise GF2PolyError(
                    f"{self.name or 'page'}: d({name}) has degree {val.multidegree()}, expected {expected}"
                )
        unpreserved = self.unpreserved_relations()
        if unpreserved:
            raise GF2PolyError(
                f"{self.name or 'page'}: d does not preserve the relation {unpreserved[0][0]}"
            )

    @property
    def relations(self) -> Tuple[Monomial, ...]:
        return self.quotient.relations

    @property
    def v1_period(self) -> Optional[int]:
        """A power P of v1 with d(v1^P * m) = v1^P * d(m) for every
        monomial m; None without v1.

        P = 2 * stride.  derivation_value makes d(v1^e) zero when e/stride
        is even and d(v1^stride) * v1^(e - stride) when it is odd, so over
        GF(2) v1^P is a d-cycle, and by the Leibniz rule d(v1^P * m) =
        v1^P * d(m).  Multiplying by v1^P never kills a product, since v1 is
        invertible and no relation involves it."""
        v1 = self.alphabet.v1
        return None if v1 is None else 2 * v1.stride

    def unpreserved_relations(self) -> List[Tuple[Polynomial, Polynomial]]:
        """Each relation whose d leaves the ideal, with that reduced image.
        The ideal must be closed under d; a relation with a factor whose d
        is unknown is skipped."""
        out = []
        for rel in self.relations:
            try:
                image = self.apply_monomial(rel)
            except MissingDifferentialError:
                continue
            if image:
                out.append((Polynomial.monomial(self.alphabet, rel), image))
        return out

    def _reduce_raw(self, poly: Polynomial) -> Polynomial:
        return Polynomial(
            poly.alphabet,
            frozenset(m for m in poly.terms if self.is_reduced_monomial(m)),
        )

    def is_reduced_monomial(self, mono: Monomial) -> bool:
        return not any(mono_divides(rel, mono) for rel in self.relations)

    def derivation_value(self, gi: int, e: int) -> Polynomial:
        """d(g^e) alone, by the stride Leibniz rule over GF(2)."""
        key = (gi, e)
        cached = self._dval_cache.get(key)
        if cached is not None:
            return cached
        g = self.alphabet[gi]
        stride = g.stride
        if e % stride:
            raise GF2PolyError(f"{g.name}: exponent {e} breaks its stride {stride}")
        if (e // stride) % 2 == 0:
            out = Polynomial.zero(self.alphabet)
        else:
            val = self.differentials.get(g.name)
            if val is None:
                raise MissingDifferentialError(f"d({g.name}) was never specified")
            out = val if e == stride else val.mul_monomial(((gi, e - stride),))
        self._dval_cache[key] = out
        return out

    def apply_monomial(self, mono: Monomial) -> Polynomial:
        """d of one monomial by the Leibniz rule, summed in one term set."""
        a = self.alphabet
        cache = self._dval_cache  # keyed by the (gi, e) factor itself
        acc = set()
        for pos, factor in enumerate(mono):
            dv = cache.get(factor)
            if dv is None:
                dv = self.derivation_value(*factor)
            if not dv.terms:
                continue
            rest = mono[:pos] + mono[pos + 1 :]
            # toggled inline, not through gf2poly._xor: this is the hottest
            # loop of a verify, and collecting the products for _xor made a
            # sweep over the EndM bases 7-20 % slower
            for x in dv.terms:
                p = mono_mul(a, x, rest)
                if p is None:
                    continue
                if p in acc:
                    acc.remove(p)
                else:
                    acc.add(p)
        if self.relations:
            return Polynomial(a, frozenset(m for m in acc if self.is_reduced_monomial(m)))
        return Polynomial(a, frozenset(acc))

    def apply(self, poly: Polynomial) -> Polynomial:
        if poly.alphabet != self.alphabet:
            raise GF2PolyError("polynomial over a different alphabet")
        total = Polynomial.zero(self.alphabet)
        for m in poly.terms:
            total = total + self.apply_monomial(m)
        return total

    def basis(self, window: TruncationWindow) -> WindowBasis:
        """The reduced monomial basis over a window, enumerated once per
        window and shared by every page and check built on it."""
        got = self._basis_cache.get(window)
        if got is None:
            got = self._basis_cache[window] = enumerate_window(self.quotient, window)
        return got

    def basis_counts(self, window: TruncationWindow) -> WindowCounts:
        """How many reduced monomials basis(window) holds at each degree,
        with its trust, counted without building a monomial, once per
        window."""
        got = self._count_cache.get(window)
        if got is None:
            got = self._count_cache[window] = count_window(self.quotient, window)
        return got


@dataclass
class D2Report:
    """checked counts the basis elements covered; each failure is a
    printable (source, nonzero image) pair: Polynomials named over their
    own alphabet, or cochains in the cobar report."""

    checked: int
    failures: List[Tuple[object, object]] = field(default_factory=list)
    conditional: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


# a test oracle, not exported from moorev1: the benchmark tracer wraps it by name
def verify_d_squared(pres: PagePresentation, window: TruncationWindow) -> D2Report:
    """Check d(d(m)) = 0 for every reduced basis monomial in the window.

    The second application is symbolic, so nothing is lost when d(m) pokes
    past the window edge.  This per-monomial sweep is the reference oracle
    for d_squared_on_generators, which verify runs instead.
    """
    fn = pres.apply_monomial
    wb = pres.basis(window)
    checked = 0
    failures: List[Tuple[Polynomial, Polynomial]] = []
    for d in wb.degrees():
        for m in wb.basis(d):
            try:
                once = fn(m)
            except MissingDifferentialError:
                continue
            twice = set()
            try:
                for term in once.terms:
                    twice ^= fn(term).terms
            except MissingDifferentialError:
                continue
            checked += 1
            if twice:
                a = pres.alphabet
                failures.append((Polynomial.monomial(a, m), Polynomial(a, frozenset(twice))))
    return D2Report(checked=checked, failures=failures, conditional=pres.conditional)


def d_squared_on_generators(pres: PagePresentation, window: TruncationWindow) -> D2Report:
    """Prove d(d(m)) = 0 for every reduced basis monomial of the window from
    the generators alone.

    Over GF(2) the square of a derivation is again a derivation, since
    d²(ab) = d²a·b + 2·da·db + a·d²b.  So d² vanishes on the algebra once
    d²(g^stride) reduces to zero for each generator g (this covers
    g^-stride too: d²(h⁻¹) = h⁻²·d²h) and d maps the relation ideal into
    itself, which makes d well defined on the quotient.

    checked counts the basis monomials the proof covers, which is what
    verify_d_squared counts when no differential is missing.  It is read
    off pres.basis_counts, which counts the quotient by the monomial relations
    without building its basis, so no basis is enumerated.  A failure is
    (g^stride, d²(g^stride)), or (relation, its reduced d) for a relation
    that d does not preserve.  Raises MissingDifferentialError when a
    generator has no differential."""
    failures: List[Tuple[Polynomial, Polynomial]] = []
    for gi, g in enumerate(pres.alphabet):
        twice = pres.apply(pres.derivation_value(gi, g.stride))
        if twice:
            failures.append((Polynomial.monomial(pres.alphabet, ((gi, g.stride),)), twice))
    failures.extend(pres.unpreserved_relations())
    return D2Report(checked=pres.basis_counts(window).total(), failures=failures, conditional=pres.conditional)


def differential_matrix(
    source_basis: Sequence[Monomial],
    target_basis: Sequence[Monomial],
    diff_fn: Callable[[Monomial], Polynomial],
) -> List[int]:
    """Matrix rows (one per target monomial) of the map on the given bases."""
    index = {m: i for i, m in enumerate(target_basis)}
    rows = [0] * len(target_basis)
    for j, m in enumerate(source_basis):
        for term in diff_fn(m).terms:
            i = index.get(term)
            if i is None:
                raise _OutsideTargetBasis(
                    f"differential image term falls outside the target basis at column {j}"
                )
            rows[i] |= 1 << j
    return rows


@dataclass
class _DegreeHomology:
    cycles: Subspace
    boundaries: Subspace
    reps: Tuple[int, ...]


class _PageDims:
    """A page known by (cycle dim, boundary dim) at exactly the trusted
    degrees with a nonempty basis.  A degree is trusted when the basis is
    complete at it and one shift to either side; the page's flag is its
    presentation's."""

    def __init__(
        self, pres: PagePresentation, trust: _WindowTrust, dims: Dict[Multidegree, Tuple[int, int]], shift: Multidegree
    ):
        self.presentation = pres
        self.window = trust.window
        self.conditional = pres.conditional
        self._trust = trust
        self._dims = dims
        self._shift = shift

    def trusted(self, d: Multidegree) -> bool:
        return self.dims_at(d) is not None

    def degrees(self) -> List[Multidegree]:
        return sorted(self._dims)

    def dimensions(self) -> List[Tuple[Multidegree, int]]:
        """(d, dim(d)) for each d of degrees(), in its order."""
        return [(d, cycles - boundaries) for d, (cycles, boundaries) in sorted(self._dims.items())]

    def dims_at(self, d: Tuple[int, int, int]) -> Optional[Tuple[int, int]]:
        """(cycle dim, boundary dim) at d, or None where d is not trusted:
        one trust test for a caller that would test trust and then read."""
        got = self._dims.get(d)
        if got is None and self._trust.complete_around(d, self._shift):
            return (0, 0)
        return got

    def _require(self, d: Tuple[int, int, int]) -> Tuple[int, int]:
        got = self.dims_at(d)
        if got is None:
            raise UntrustedDegreeError(f"degree {tuple(d)} is not trusted in this window")
        return got

    def dim(self, d: Multidegree) -> int:
        cycles, boundaries = self._require(d)
        return cycles - boundaries


class PresentationPage(_PageDims):
    """A page known by presentation only: dimensions are the counts of the
    reduced monomial basis, which is enumerated only when basis() is read.
    With shift 0 the trust rule of _PageDims is exactly the completeness of
    the basis."""

    def __init__(self, pres: PagePresentation, window: TruncationWindow):
        counts = pres.basis_counts(window)
        dims = {d: (counts.count(d), 0) for d in counts.degrees() if counts.complete(d)}
        super().__init__(pres, counts, dims, _NO_SHIFT)

    def basis(self, d: Multidegree) -> Tuple[Monomial, ...]:
        return self.presentation.basis(self.window).basis(d)

    def size(self, d: Multidegree) -> int:
        return self.presentation.basis(self.window).size(d)


class ComputedPage(_PageDims):
    """Degreewise homology of a presented page over a window, with the
    matrices of d that homology_page built for it.

    Dimensions are stored; cycle and boundary bases and representatives are
    built from the matrices at the first degree that asks for them."""

    def __init__(
        self,
        pres: PagePresentation,
        wb: WindowBasis,
        dims: Dict[Multidegree, Tuple[int, int]],
        matrices: Dict[Multidegree, List[int]],
    ):
        super().__init__(pres, wb, dims, pres.degree_shift)
        self._wb = wb
        self._matrices = matrices
        self._homology: Dict[Multidegree, _DegreeHomology] = {}

    def matrix(self, c: Multidegree) -> List[int]:
        """Rows (one per target monomial) of d from degree c to c + shift.
        homology_page builds one at each trusted degree with a nonempty basis
        and one shift below it, and no other; degrees of one v1-orbit share
        one list, which no caller may change."""
        return self._matrices[c]

    def _homology_at(self, d: Multidegree) -> Optional[_DegreeHomology]:
        """Cycles, boundaries and representatives at a trusted degree, built
        from the stored matrices once; None where the basis is empty."""
        self._require(d)
        if d not in self._dims:
            return None
        h = self._homology.get(d)
        if h is None:
            below = d - self._shift
            cycles = kernel_basis(self._matrices[d], self._wb.size(d))
            boundaries = Subspace(column_space_basis(self._matrices[below], self._wb.size(below)))
            reps = tuple(subquotient_basis(cycles, boundaries))
            h = self._homology[d] = _DegreeHomology(Subspace(cycles), boundaries, reps)
        return h

    def basis(self, d: Multidegree) -> Tuple[Monomial, ...]:
        return self._wb.basis(d)

    def boundaries_subspace(self, d: Multidegree) -> Subspace:
        h = self._homology_at(d)
        return Subspace() if h is None else h.boundaries

    def vector_of(self, poly: Polynomial, d: Multidegree) -> int:
        """Coordinates of a homogeneous polynomial in the degree-d basis."""
        index = {m: i for i, m in enumerate(self._wb.basis(d))}
        v = 0
        for m in poly.terms:
            i = index.get(m)
            if i is None:
                raise GF2PolyError(f"{mono_str(poly.alphabet, m)} is not a basis monomial of degree {tuple(d)}")
            v |= 1 << i
        return v

    def poly_of(self, v: int, d: Multidegree) -> Polynomial:
        basis = self._wb.basis(d)
        terms = [basis[i] for i in range(len(basis)) if (v >> i) & 1]
        return Polynomial(self.presentation.alphabet, frozenset(terms))

    def representatives(self, d: Multidegree) -> List[Polynomial]:
        h = self._homology_at(d)
        if h is None:
            return []
        return [self.poly_of(v, d) for v in h.reps]

    def class_is_nonzero(self, poly: Polynomial, d: Multidegree) -> bool:
        """True when a cycle polynomial is not a boundary.  Raises if the
        polynomial is not a cycle."""
        h = self._homology_at(d)
        v = self.vector_of(poly, d)
        if h is None:
            if v:
                raise GF2PolyError("nonzero vector in an empty degree")
            return False
        if v not in h.cycles:
            raise GF2PolyError(f"{poly} is not a cycle in degree {tuple(d)}")
        return v not in h.boundaries


def _composite_is_zero(outgoing: List[int], incoming: List[int]) -> bool:
    """Whether the product of two matrices is zero: row k of it is the sum
    of the incoming rows at the set bits of outgoing row k."""
    for row in outgoing:
        acc = 0
        while row:
            low = row & -row
            acc ^= incoming[low.bit_length() - 1]
            row ^= low
        if acc:
            return False
    return True


def homology_page(pres: PagePresentation, window: TruncationWindow) -> ComputedPage:
    """Homology at every degree with a nonempty basis, trusting only
    degrees whose neighbors are complete.

    The matrix of d from degree c is built and ranked once: it is the
    outgoing map at c and the incoming map at c + shift, and the page keeps
    it.  With d∘d = 0 checked at each trusted degree (a nonzero product is
    refused), dim H = dim C - rank(out) - rank(in) exactly.

    A matrix is built once per v1-orbit.  With step = pres.v1_period times
    the degree of v1, degree c takes the very list of c - step when that
    degree has a matrix and the bases of the two degrees and of their
    targets have the same sizes.  The two matrices are equal: a matrix is
    built only between complete degrees, which hold every monomial of
    their degree, so multiplying by v1^P maps the bases at c - step and its
    target one to one onto those at c and its target, keeping the
    canonical order (v1 exponent, then the v1-free part), and d commutes
    with it.  So rank runs once per distinct matrix, and d∘d is checked
    once per distinct (outgoing, incoming) pair.

    The sizes of the bases decide the sharing and the dimensions, so a
    basis is built only at the source and the target of a matrix that is
    built."""
    wb = pres.basis(window)
    shift = pres.degree_shift
    label = pres.name or "page"
    period = pres.v1_period
    step = pres.alphabet.v1.degree.scaled(period) if period else None
    size = wb.size
    wanted = [d for d in wb.degrees() if wb.complete_around(d, shift)]
    matrices: Dict[Multidegree, List[int]] = {}
    for d in wanted:
        for c in (d - shift, d):
            if c in matrices:
                continue
            target = c + shift
            if step is not None:
                earlier = matrices.get(c - step)
                if earlier is not None and len(earlier) == size(target) and size(c - step) == size(c):
                    matrices[c] = earlier
                    continue
            try:
                matrices[c] = differential_matrix(wb.basis(c), wb.basis(target), pres.apply_monomial)
            except _OutsideTargetBasis:
                raise PageRefusedError(
                    f"{label}: image of a degree {tuple(c)} monomial misses the basis at {tuple(target)}",
                    pres.conditional,
                ) from None
    distinct = {id(rows): rows for rows in matrices.values()}
    ranks = {key: rank(rows) for key, rows in distinct.items()}
    composed = set()  # the distinct (outgoing, incoming) pairs checked
    dims: Dict[Multidegree, Tuple[int, int]] = {}
    for d in wanted:
        out, inc = matrices[d], matrices[d - shift]
        pair = (id(out), id(inc))
        if pair not in composed:
            if not _composite_is_zero(out, inc):
                raise PageRefusedError(
                    f"{label}: d squared is nonzero from degree {tuple(d - shift)} through {tuple(d)}",
                    pres.conditional,
                )
            composed.add(pair)
        dims[d] = (size(d) - ranks[id(out)], ranks[id(inc)])
    return ComputedPage(pres, wb, dims, matrices)


class DimensionTable:
    """A sorted integer table (coordinates -> dimension) with metadata,
    serializable as TSV or JSON."""

    def __init__(
        self,
        coords: Sequence[str],
        rows: Dict[Tuple[int, ...], int],
        meta: Optional[Dict[str, str]] = None,
    ):
        self.coords = tuple(coords)
        self.rows = dict(rows)
        self.meta = dict(meta or {})
        for key in self.rows:
            if len(key) != len(self.coords):
                raise GF2PolyError("table row arity does not match coords")

    def dim(self, *key: int) -> int:
        return self.rows.get(tuple(key), 0)

    def sorted_items(self) -> List[Tuple[Tuple[int, ...], int]]:
        return sorted(self.rows.items())

    def to_tsv(self) -> str:
        lines = [f"# {k}={self.meta[k]}" for k in sorted(self.meta)]
        lines.append("\t".join(self.coords + ("dim",)))
        for key, dim in self.sorted_items():
            lines.append("\t".join(str(x) for x in key + (dim,)))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "coords": list(self.coords),
            "meta": self.meta,
            "rows": [list(key) + [dim] for key, dim in self.sorted_items()],
        }


def page_dimension_table(page, meta: Optional[Dict[str, str]] = None) -> DimensionTable:
    """Nonzero dimensions of a page over its trusted degrees."""
    rows = {tuple(d): n for d, n in page.dimensions() if n}
    return DimensionTable(("s", "t", "u"), rows, meta)
