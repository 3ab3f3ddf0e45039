"""Small dense linear algebra over GF(2) on int bitsets.

A vector is an int whose bit j is coordinate j.  A matrix is a list of row
ints; entry (i, j) is bit j of row i.  Throughout the package a matrix for
a linear map stores one row per target basis element and one column per
source basis element.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Tuple


def _lowest_bit(v: int) -> int:
    return (v & -v).bit_length() - 1


def _reduce(v: int, echelon: Dict[int, int]) -> int:
    """Reduce v by an echelon (pivot -> row, each row's lowest bit its pivot)."""
    while v:
        p = _lowest_bit(v)
        row = echelon.get(p)
        if row is None:
            break
        v ^= row
    return v


def _forward_eliminate(rows: Iterable[int]) -> Dict[int, int]:
    echelon: Dict[int, int] = {}
    for r in rows:
        r = _reduce(r, echelon)
        if r:
            echelon[_lowest_bit(r)] = r
    return echelon


def _back_substitute(echelon: Dict[int, int]) -> Dict[int, int]:
    for p in sorted(echelon, reverse=True):
        row = echelon[p]
        for q in echelon:
            if q != p and (echelon[q] >> p) & 1:
                echelon[q] ^= row
    return echelon


def rref(rows: Iterable[int]) -> List[int]:
    """Reduced row echelon form, rows sorted by pivot column."""
    echelon = _back_substitute(_forward_eliminate(rows))
    return [echelon[p] for p in sorted(echelon)]


def rank(rows: Iterable[int]) -> int:
    return len(_forward_eliminate(rows))


def transpose(rows: List[int], ncols: int) -> List[int]:
    out = []
    for j in range(ncols):
        col = 0
        for i, r in enumerate(rows):
            col |= ((r >> j) & 1) << i
        out.append(col)
    return out


def kernel_basis(rows: List[int], ncols: int) -> List[int]:
    """Basis of the solution space of M x = 0, as source-coordinate vectors.

    One basis vector per non-pivot column, sorted by that column index, each
    with coordinate 1 there: the canonical free-variable parameterization.
    """
    echelon = _back_substitute(_forward_eliminate(rows))
    pivots = sorted(echelon)
    out = []
    for f in range(ncols):
        if f in echelon:
            continue
        v = 1 << f
        for p in pivots:
            if (echelon[p] >> f) & 1:
                v |= 1 << p
        out.append(v)
    return out


def column_space_basis(rows: List[int], ncols: int) -> List[int]:
    """Basis of the image of M, as target-coordinate vectors in RREF."""
    return rref(transpose(rows, ncols))


class Subspace:
    """A subspace of GF(2)^n held as a canonical reduced echelon basis."""

    __slots__ = ("rows", "_pivots")

    def __init__(self, vectors: Iterable[int] = ()):
        self.rows: Tuple[int, ...] = tuple(rref(vectors))
        self._pivots: Dict[int, int] = {_lowest_bit(r): r for r in self.rows}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> int:
        return _reduce(v, self._pivots)

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def __contains__(self, v: int) -> bool:
        return self.contains(v)

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(r) for r in self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim})"


def subquotient_basis(cycles: List[int], boundaries: Subspace) -> List[int]:
    """Representatives for cycles modulo boundaries.

    Returns the subsequence of the given cycle vectors whose reductions
    extend the boundary echelon, so every representative is an actual input
    cycle rather than a reduced combination of them.
    """
    echelon = dict(boundaries._pivots)
    reps = []
    for v in cycles:
        w = _reduce(v, echelon)
        if w:
            reps.append(v)
            echelon[_lowest_bit(w)] = w
    return reps
