"""The bigraded polynomial complex on x(1), x(2), ... with the derivation
d(x(i)) = x(1)*x(i-1)^2 and d(x(1)) = 0.

Bidegrees are (p, q) with |x(i)| = (2, 2^(i+2)+1), so d shifts by (4, 10).
Internally a bidegree is embedded as the tridegree (p, q, 0) and all the
work is done by the generic dga engine.  Degree growth makes every bidegree
box exact: including x(i) exactly when 2^(i+2)+1 <= q_max misses nothing
below q_max.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from .dga import ComputedPage, DimensionTable, PagePresentation, UntrustedDegreeError, homology_page
from .gf2poly import (
    Alphabet,
    Generator,
    GF2PolyError,
    Multidegree,
    Polynomial,
    TruncationWindow,
)

__all__ = [
    "MAHOWALD_SHIFT",
    "ZBHTables",
    "x_alphabet",
    "x_degree",
    "mahowald_presentation",
    "zbh_bases",
]

MAHOWALD_SHIFT = Multidegree(4, 10, 0)


def x_degree(i: int) -> Multidegree:
    return Multidegree(2, 2 ** (i + 2) + 1, 0)


def x_alphabet(q_max: int) -> Alphabet:
    """All x(i) that can occur at internal degree q_max or below."""
    gens = []
    i = 1
    while 2 ** (i + 2) + 1 <= q_max:
        gens.append(Generator(f"x({i})", x_degree(i)))
        i += 1
    if not gens:
        raise GF2PolyError(f"q_max={q_max} admits no generator")
    return Alphabet(gens)


def mahowald_presentation(alphabet: Alphabet) -> PagePresentation:
    diffs: Dict[str, Polynomial] = {"x(1)": Polynomial.zero(alphabet)}
    for i in range(2, len(alphabet) + 1):
        diffs[f"x({i})"] = Polynomial.parse(alphabet, f"x(1)*x({i-1})^2")
    return PagePresentation(alphabet, MAHOWALD_SHIFT, diffs, name="mahowald complex")


def _box_window(p_max: int, q_max: int) -> TruncationWindow:
    # one shift of padding above, and reaching below zero so that trust at
    # the bottom edge sees the (structurally empty) degrees there
    return TruncationWindow(
        v1_exponent_range=(0, 0),
        s_range=(0, p_max + MAHOWALD_SHIFT.s),
        t_range=(-MAHOWALD_SHIFT.t, q_max + MAHOWALD_SHIFT.t),
        u_range=(0, 0),
    )


class ZBHTables:
    """Cycles Z(d), boundaries B(d), and homology H(d) over a bidegree box."""

    def __init__(self, page: ComputedPage, p_max: int, q_max: int):
        self._page = page
        self.p_max = p_max
        self.q_max = q_max
        self.alphabet = page.presentation.alphabet

    def _degree(self, p: int, q: int) -> Multidegree:
        if not (0 <= p <= self.p_max and 0 <= q <= self.q_max):
            raise UntrustedDegreeError(f"bidegree ({p}, {q}) is outside the computed box")
        return Multidegree(p, q, 0)

    def basis(self, p: int, q: int):
        return self._page.basis(self._degree(p, q))

    def dims(self, p: int, q: int) -> Tuple[int, int]:
        """(dim Z, dim B) at (p, q), with no trust test: _box_window pads the
        box by one shift on every side, so each of its degrees is trusted."""
        return self._page._dims.get(self._degree(p, q), (0, 0))

    def z_dim(self, p: int, q: int) -> int:
        return self.dims(p, q)[0]

    def b_dim(self, p: int, q: int) -> int:
        return self.dims(p, q)[1]

    def h_dim(self, p: int, q: int) -> int:
        z, b = self.dims(p, q)
        return z - b

    def h_representatives(self, p: int, q: int) -> List[Polynomial]:
        return self._page.representatives(self._degree(p, q))

    def dimension_table(self, kind: str = "H") -> DimensionTable:
        picker = {"Z": self.z_dim, "B": self.b_dim, "H": self.h_dim}.get(kind)
        if picker is None:
            raise GF2PolyError(f"unknown table kind {kind!r}")
        rows: Dict[Tuple[int, ...], int] = {}
        for d in self._page.degrees():
            if 0 <= d.s <= self.p_max and 0 <= d.t <= self.q_max:
                n = picker(d.s, d.t)
                if n:
                    rows[(d.s, d.t)] = n
        return DimensionTable(
            ("p", "q"),
            rows,
            {"kind": kind, "p_max": str(self.p_max), "q_max": str(self.q_max)},
        )

    def export_classes(self, kind: str = "H") -> List[Tuple[int, int, str]]:
        """One (p, q, poly-text) triple per basis class, sorted."""
        out = []
        for d in self._page.degrees():
            p, q = d.s, d.t
            if not (0 <= p <= self.p_max and 0 <= q <= self.q_max):
                continue
            if kind == "H":
                polys = self.h_representatives(p, q)
            elif kind == "B":
                sub = self._page.boundaries_subspace(d)
                polys = [self._page.poly_of(v, d) for v in sub.rows]
            else:
                raise GF2PolyError(f"unknown table kind {kind!r}")
            out.extend((p, q, str(poly)) for poly in polys)
        return out

    def export_lines(self, kind: str = "H") -> List[str]:
        """One line per basis class, 'p q poly-text', sorted."""
        return [f"{p} {q} {poly}" for p, q, poly in self.export_classes(kind)]


def zbh_bases(p_max: int, q_max: int) -> ZBHTables:
    """Exact Z/B/H bases for every bidegree with p <= p_max, q <= q_max."""
    alphabet = x_alphabet(q_max)
    window = _box_window(p_max, q_max)
    pres = mahowald_presentation(alphabet)
    page = homology_page(pres, window)
    return ZBHTables(page, p_max, q_max)

