import random

import pytest

from moorev1.chart import (
    PALETTE,
    ChartDoc,
    decomposition_chart,
    page_chart,
    render,
    render_svg,
    render_txt,
)
from moorev1.gf2poly import GF2PolyError, Multidegree, default_window
from moorev1.mahowald import zbh_bases
from moorev1.specseq import (
    D2_SHIFT,
    D3_SHIFT,
    DECOMPOSITION_FILT_MAX,
    DECOMPOSITION_STEM_MAX,
    V1_DEGREE,
    Workbench,
    adams_bidegree,
    h_degree,
    x_degree,
)
from oracles import decomposition_chart_by_scan, render_svg_per_dot


@pytest.fixture(scope="module")
def wb():
    return Workbench(default_window(24, 6, -6, 6))


@pytest.fixture(scope="module")
def tables():
    return zbh_bases(8, 40)


def test_collapse_examples():
    assert adams_bidegree(Multidegree(0, 0, 0)) == (0, 0)
    assert adams_bidegree(V1_DEGREE) == (1, 3)
    assert adams_bidegree(h_degree(1)) == (1, 2)
    # v1 * h(n+1, 1) lands on the bidegree of x(n)
    assert adams_bidegree(V1_DEGREE + h_degree(3)) == (2, 17)
    assert adams_bidegree(x_degree(2)) == (2, 17)
    # charts place a class at stem t - s
    s_adams, t_adams = adams_bidegree(V1_DEGREE)
    assert t_adams - s_adams == 2
    s_adams, t_adams = adams_bidegree(Multidegree(4, 1, 0))
    assert t_adams - s_adams == -3


def test_collapse_is_additive():
    rng = random.Random(7)
    for _ in range(40):
        a = Multidegree(rng.randint(-5, 5), rng.randint(-9, 9), rng.randint(-5, 5))
        b = Multidegree(rng.randint(-5, 5), rng.randint(-9, 9), rng.randint(-5, 5))
        (sa, ta), (sb, tb) = adams_bidegree(a), adams_bidegree(b)
        assert adams_bidegree(a + b) == (sa + sb, ta + tb)


def test_differential_shifts_collapse_to_filtration_step():
    # both differentials raise the Adams filtration by one at fixed t
    assert adams_bidegree(D2_SHIFT) == (1, 0)
    assert adams_bidegree(D3_SHIFT) == (1, 0)


def test_empty_doc_renders_axes():
    doc = ChartDoc({})
    svg = render(doc, "svg")
    txt = render(doc, "txt")
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 0
    assert svg.count("<line") == 2  # just the two axes
    assert "+---" in txt
    assert "1" not in txt.splitlines()[0]
    # a cell with no dots is dropped
    assert render(ChartDoc({(3, 3, "g"): 0}), "svg") == svg


def test_single_dot():
    doc = ChartDoc({(1, 1, "g"): 1})
    svg = render_svg(doc)
    assert svg.count("<circle") == 1
    txt = render_txt(doc)
    row = [line for line in txt.splitlines() if line.startswith("   1 |")][0]
    assert row.count("1", 6) == 1


def test_multiplicity_digits_and_overflow():
    doc = ChartDoc({(0, 0, "g"): 12})
    txt = render_txt(doc)
    assert "  +" in [line[6:] for line in txt.splitlines() if line.startswith("   0 |")][0]
    assert render_svg(doc).count("<circle") == 12
    small = ChartDoc({(0, 0, "g"): 3})
    assert " 3" in render_txt(small)


def test_unsupported_format_raises():
    with pytest.raises(GF2PolyError):
        render(ChartDoc({}), "pdf")


def test_render_is_deterministic(tables):
    doc1 = decomposition_chart(tables)
    doc2 = decomposition_chart(tables)
    assert render_svg(doc1) == render_svg(doc2)
    assert render_txt(doc1) == render_txt(doc2)
    # text, written as UTF-8, which for ASCII is byte for byte the text
    assert render_svg(doc1).isascii() and render_txt(doc1).isascii()


def test_structure_lines():
    doc = ChartDoc({(0, 0, "g"): 1, (1, 1, "g"): 1, (2, 1, "g"): 1})
    kinds = {(l.kind, l.stem1, l.filt1, l.stem2, l.filt2) for l in doc.lines}
    assert ("h11", 0, 0, 1, 1) in kinds
    assert ("v1", 0, 0, 2, 1) in kinds
    # v1 lines render dashed, h11 lines solid
    svg = render_svg(doc)
    assert svg.count("stroke-dasharray") == 1


def test_lines_connect_within_groups_only():
    doc = ChartDoc({(0, 0, "g"): 1, (1, 1, "other"): 1})
    assert doc.lines == []


def test_group_colors_cycle_palette():
    doc = ChartDoc({(i, 0, f"g{i:02d}"): 1 for i in range(len(PALETTE) + 2)})
    assert doc.color_of("g00") == PALETTE[0]
    assert doc.color_of(f"g{len(PALETTE):02d}") == PALETTE[0]
    assert doc.color_of("g01") == PALETTE[1]


def test_page_chart_counts_match_dims(wb):
    page = wb.page("M", 2)
    doc = page_chart(page, "M r=2")
    assert doc.title == "M r=2"
    assert sum(doc.cells.values()) == sum(page.dim(d) for d in page.degrees())
    counts = doc.counts()
    d = Multidegree(0, 2, 1)  # v1 collapses to stem 2, filtration 1
    assert counts[(2, 1)] >= 1
    assert page.dim(d) == 1


def test_page_chart_v1_lines_cross_u_groups(wb):
    doc = page_chart(wb.page("M", 2), "M r=2")
    assert any(l.kind == "v1" for l in doc.lines)
    assert any(l.kind == "h11" for l in doc.lines)


def test_decomposition_chart_groups(tables):
    doc = decomposition_chart(tables)
    # a pattern puts at most one dot on a cell, and same-cell dots from
    # different classes stay distinct
    assert set(doc.cells.values()) == {1}
    assert any(g.startswith("bo[") for g in doc.groups)
    assert any(g.startswith("bu[") for g in doc.groups)
    unit = [g for g in doc.groups if g == "bo[1]"]
    assert unit
    counts = doc.counts()
    assert counts[(0, 0)] == 1
    assert counts[(2, 1)] == 1  # v1 sits in the unsuspended bo copy


def test_decomposition_chart_bu_copy_from_boundary(tables):
    doc = decomposition_chart(tables)
    bu_groups = [g for g in doc.groups if g.startswith("bu[")]
    assert "bu[x(1)^3]" in bu_groups
    # the bu pattern from x1^3 puts dots on (stem, filt) = (21+2m, 6+m)
    dots = {(stem, filt) for stem, filt, group in doc.cells if group == "bu[x(1)^3]"}
    assert (21, 6) in dots
    assert (23, 7) in dots


def test_decomposition_chart_shares_the_check_corner(wb, tables):
    # the chart draws the box the decomposition check compares, up to its
    # top corner and no further
    counts = decomposition_chart(tables).counts()
    assert all(
        stem <= DECOMPOSITION_STEM_MAX and filt <= DECOMPOSITION_FILT_MAX for stem, filt in counts
    )
    assert (DECOMPOSITION_STEM_MAX, DECOMPOSITION_FILT_MAX) in counts
    corner = (DECOMPOSITION_FILT_MAX, DECOMPOSITION_STEM_MAX + DECOMPOSITION_FILT_MAX)
    assert corner in {row.degree for row in wb.mahowald_decomposition_check().rows}


def test_rebuilt_doc_renders_identically(wb):
    a = render_svg(page_chart(wb.page("EndM", 3), "EndM r=3"))
    b = render_svg(page_chart(wb.page("EndM", 3), "EndM r=3"))
    assert a == b


class _Classes:
    """The export_classes of a ZBHTables, for a given class list."""

    def __init__(self, h, b):
        self._classes = {"H": h, "B": b}

    def export_classes(self, kind):
        return self._classes[kind]


def test_decomposition_chart_matches_the_cell_scan(tables):
    """The solved patterns put a dot on exactly the cells where
    bo_pattern_dim or bu_pattern_dim is nonzero, for classes off the box,
    partly off it, and at odd or negative q."""
    rng = random.Random(25)
    docs = [(tables, decomposition_chart(tables))]
    for _ in range(60):
        classes = [(rng.randint(-4, 16), rng.randint(-12, 44), f"c{i}") for i in range(rng.randint(0, 6))]
        cut = rng.randint(0, len(classes))
        fake = _Classes(classes[:cut], classes[cut:])
        docs.append((fake, decomposition_chart(fake)))
    for source, doc in docs:
        want = decomposition_chart_by_scan(source)
        assert doc.cells == want.cells and list(doc.cells) == list(want.cells)
        assert doc.lines == want.lines and doc.viewport == want.viewport


def _random_doc(rng):
    groups = ["u=-1", "u=-10", "u=2", "u=0", "bo[1]", "g"][: rng.randint(1, 6)]
    cells = {}
    for _ in range(rng.randint(0, 30)):
        cells[(rng.randint(-3, 8), rng.randint(-2, 5), rng.choice(groups))] = rng.randint(0, 4)
    cells[(rng.randint(-3, 8), rng.randint(-2, 5), rng.choice(groups))] = rng.randint(10, 21)
    return ChartDoc(cells, title=rng.choice(["", "r=2"]))


def test_render_svg_matches_the_per_dot_drawing(wb, tables):
    """render_svg formats each coordinate and color once, and still draws
    what the per-dot loop draws: offsets wrap past nine dots on a cell,
    and the palette follows the string order of the groups (u=-1 < u=-10
    < u=2), not their numeric order."""
    rng = random.Random(2500)
    docs = [ChartDoc({}), ChartDoc({}, title="empty"), decomposition_chart(tables)]
    docs += [page_chart(wb.page(tag, r), f"{tag} r={r}") for tag, r in (("M", 2), ("M", 4), ("EndM", 3))]
    docs += [_random_doc(rng) for _ in range(80)]
    assert any(n > 9 for doc in docs for n in doc.counts().values())
    assert any({"u=-1", "u=-10", "u=2"} <= set(doc.groups) for doc in docs)
    for doc in docs:
        assert render_svg(doc) == render_svg_per_dot(doc)
