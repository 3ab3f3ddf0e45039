"""Adams-chart coordinates and deterministic chart rendering.

The trigrading collapses to Adams (filtration, internal degree) by
specseq.adams_bidegree, (s,t,u) -> (s+u, t+u); under it v1 lands at
(1,3), h(1,1) at (1,2), and v1*h(n+1,1) on the bidegree (2, 2^(n+2)+1)
of x(n).  Charts are drawn in (stem, filtration) coordinates with
stem = t - s.  The decomposition chart places each class's bo or bu
pattern by specseq.pattern_stems, the rule the decomposition check uses.

Rendering is plain SVG 1.1 or a text grid, byte-identical for identical
input: every collection is sorted before drawing, coordinates are
integers, and colors come from a fixed palette indexed by group.  The
colors carry no meaning.
"""
from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .gf2poly import GF2PolyError
from .mahowald import ZBHTables
from .specseq import DECOMPOSITION_FILT_MAX, DECOMPOSITION_STEM_MAX, adams_bidegree, pattern_stems

__all__ = [
    "ChartLine",
    "ChartDoc",
    "page_chart",
    "decomposition_chart",
    "render",
    "render_svg",
    "render_txt",
    "PALETTE",
]

# multiplication steps in (stem, filtration) coordinates
H11_STEP = (1, 1)
V1_STEP = (2, 1)

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
    "#bcbd22",
    "#7f7f7f",
    "#aec7e8",
    "#98df8a",
)

# (stem, filtration, group); a chart maps each cell to its number of dots
Cell = Tuple[int, int, str]


class ChartLine(NamedTuple):
    kind: str  # h11 | v1
    stem1: int
    filt1: int
    stem2: int
    filt2: int


def _structure_lines(cells: Mapping[Cell, int], v1_group: Optional[Mapping[str, str]] = None) -> List[ChartLine]:
    """Connect each cell to its h11- and v1-multiple.  The h11-multiple
    lies in the same group, the v1-multiple in group v1_group[group]; by
    default the same group too.  Lines are sorted in field order."""
    (hs, hf), (vs, vf) = H11_STEP, V1_STEP
    lines = set()
    for stem, filt, group in cells:
        if (stem + hs, filt + hf, group) in cells:
            lines.add(("h11", stem, filt, stem + hs, filt + hf))
        if (stem + vs, filt + vf, group if v1_group is None else v1_group[group]) in cells:
            lines.add(("v1", stem, filt, stem + vs, filt + vf))
    return list(map(ChartLine._make, sorted(lines)))


class ChartDoc:
    """Dot counts per cell, structure lines, and a viewport, ready to
    render.  Cells with no dots are dropped.  v1_group names the group of
    each group's v1-multiples; by default a group is its own."""

    def __init__(self, cells: Mapping[Cell, int], title: str = "", v1_group: Optional[Mapping[str, str]] = None):
        self.cells: Dict[Cell, int] = {c: n for c, n in sorted(cells.items()) if n}
        self.title = title
        self.lines = _structure_lines(self.cells, v1_group)
        self.groups = sorted({group for _, _, group in self.cells})
        self._group_index = {g: i for i, g in enumerate(self.groups)}
        if self.cells:
            stems = [stem for stem, _, _ in self.cells]
            filts = [filt for _, filt, _ in self.cells]
            self.viewport = (min(stems) - 1, max(stems) + 1, min(filts) - 1, max(filts) + 1)
        else:
            self.viewport = (0, 4, 0, 4)

    def color_of(self, group: str) -> str:
        return PALETTE[self._group_index[group] % len(PALETTE)]

    def counts(self) -> Dict[Tuple[int, int], int]:
        """Dots per (stem, filtration), over all groups."""
        out: Dict[Tuple[int, int], int] = {}
        for (stem, filt, _), n in self.cells.items():
            out[(stem, filt)] = out.get((stem, filt), 0) + n
        return out


def page_chart(page, title: str) -> ChartDoc:
    """page.dim(d) dots for each degree d of a page, collapsed to the Adams
    chart.  Cells are grouped by the u-degree they came from, so distinct
    lines landing on the same (stem, filtration) stay distinct; a fixed
    (stem, filtration, u) is one tridegree.  h11 keeps u and v1 raises it
    by one, so a v1 line runs from group u=k to group u=k+1."""
    cells: Dict[Cell, int] = {}
    labels: Dict[int, str] = {}
    for d, n in page.dimensions():
        s_adams, t_adams = adams_bidegree(d)
        label = labels.get(d[2])
        if label is None:
            label = labels[d[2]] = f"u={d[2]}"
        cells[(t_adams - s_adams, s_adams, label)] = n
    return ChartDoc(cells, title=title, v1_group={label: f"u={u + 1}" for u, label in labels.items()})


def decomposition_chart(tables: ZBHTables) -> ChartDoc:
    """One group per homology class (a bo pattern suspended by its
    bidegree) and per boundary class (a bu pattern), with one dot on each
    cell its pattern hits, up to the corner of the box the decomposition
    check compares.  specseq.pattern_stems places each pattern on each
    filtration, as it does for the check."""
    cells: Dict[Cell, int] = {}
    specs = [(f"bo[{poly}]", p, q, False) for p, q, poly in tables.export_classes("H")]
    specs += [(f"bu[{poly}]", p, q, True) for p, q, poly in tables.export_classes("B")]
    for group, p, q, is_bu in specs:
        for filt in range(DECOMPOSITION_FILT_MAX + 1):
            bo, bu = pattern_stems(p, q, filt)
            for stem in (bu,) if is_bu else bo:
                if 0 <= stem <= DECOMPOSITION_STEM_MAX:
                    cells[(stem, filt, group)] = 1
    return ChartDoc(cells, title="decomposition")


# ---- rendering ----

_CELL = 26
_DOT_R = 4
_OFFSETS = ((0, 0), (7, 0), (-7, 0), (0, 7), (0, -7), (7, 7), (-7, -7), (7, -7), (-7, 7))


def render(doc: ChartDoc, fmt: str) -> str:
    if fmt == "svg":
        return render_svg(doc)
    if fmt == "txt":
        return render_txt(doc)
    raise GF2PolyError(f"unsupported chart format {fmt!r}")


def _grid(doc: ChartDoc):
    """Width, height, and the center x of each stem and y of each
    filtration of the viewport, in pixels."""
    stem_lo, stem_hi, filt_lo, filt_hi = doc.viewport
    ml, mt, mr, mb = 46, 30, 16, 38
    width = ml + (stem_hi - stem_lo + 1) * _CELL + mr
    height = mt + (filt_hi - filt_lo + 1) * _CELL + mb
    x = {stem: ml + (stem - stem_lo) * _CELL + _CELL // 2 for stem in range(stem_lo, stem_hi + 1)}
    y = {filt: mt + (filt_hi - filt) * _CELL + _CELL // 2 for filt in range(filt_lo, filt_hi + 1)}
    return width, height, x, y


def render_svg(doc: ChartDoc) -> str:
    """Each coordinate and color is worked out once per stem, filtration
    or group, and each dot costs one string."""
    stem_lo, stem_hi, filt_lo, filt_hi = doc.viewport
    width, height, x, y = _grid(doc)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if doc.title:
        out.append(
            f'<text x="{width // 2}" y="18" text-anchor="middle" '
            f'font-family="monospace" font-size="12" fill="#000000">{doc.title}</text>'
        )
    ax_left = x[stem_lo] - _CELL // 2
    ax_bottom = y[filt_lo] + _CELL // 2
    ax_right = x[stem_hi] + _CELL // 2
    ax_top = y[filt_hi] - _CELL // 2
    out.append(
        f'<line x1="{ax_left}" y1="{ax_bottom}" x2="{ax_right}" y2="{ax_bottom}" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{ax_left}" y1="{ax_bottom}" x2="{ax_left}" y2="{ax_top}" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    for stem in range(stem_lo, stem_hi + 1):
        if stem % 4 == 0:
            out.append(
                f'<text x="{x[stem]}" y="{ax_bottom + 16}" text-anchor="middle" '
                f'font-family="monospace" font-size="10" fill="#000000">{stem}</text>'
            )
    for filt in range(filt_lo, filt_hi + 1):
        if filt % 4 == 0:
            out.append(
                f'<text x="{ax_left - 6}" y="{y[filt] + 4}" text-anchor="end" '
                f'font-family="monospace" font-size="10" fill="#000000">{filt}</text>'
            )
    for kind, stem1, filt1, stem2, filt2 in doc.lines:
        dash = ' stroke-dasharray="4 3"' if kind == "v1" else ""
        out.append(
            f'<line x1="{x[stem1]}" y1="{y[filt1]}" x2="{x[stem2]}" y2="{y[filt2]}" '
            f'stroke="#555555" stroke-width="1"{dash}/>'
        )
    tails = {g: f'" r="{_DOT_R}" fill="{doc.color_of(g)}"/>' for g in doc.groups}
    seen: Dict[Tuple[int, int], int] = {}
    for (stem, filt, group), n in doc.cells.items():
        k = seen.get((stem, filt), 0)
        seen[(stem, filt)] = k + n
        cx, cy, tail = x[stem], y[filt], tails[group]
        for i in range(k, k + n):
            dx, dy = _OFFSETS[i % len(_OFFSETS)]
            out.append(f'<circle cx="{cx + dx}" cy="{cy + dy}{tail}')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_txt(doc: ChartDoc) -> str:
    stem_lo, stem_hi, filt_lo, filt_hi = doc.viewport
    counts = doc.counts()
    rows = []
    if doc.title:
        rows.append(doc.title)
    for filt in range(filt_hi, filt_lo - 1, -1):
        cells = []
        for stem in range(stem_lo, stem_hi + 1):
            n = counts.get((stem, filt), 0)
            cells.append("  ." if n == 0 else (f"{n:>3}" if n < 10 else "  +"))
        rows.append(f"{filt:>4} |" + "".join(cells))
    rows.append("     +" + "-" * (3 * (stem_hi - stem_lo + 1)))
    labels = []
    for stem in range(stem_lo, stem_hi + 1):
        labels.append(f"{stem:>3}" if stem % 4 == 0 else "   ")
    rows.append("      " + "".join(labels))
    return "\n".join(rows) + "\n"
