"""What the tests reach the package through: second methods that compute
by a route its commands do not take, checks of structure no command
reads, and queries on page internals that no command asks."""
from collections import Counter, defaultdict
from functools import lru_cache

from moorev1.chart import _CELL, _DOT_R, _OFFSETS, PALETTE, ChartDoc
from moorev1.cobar import (
    COALGEBRA,
    _ENDO_BASIS,
    _ENDO_CELLS,
    _XDEG,
    _YDEG,
    CobarCochain,
    CobarComplex,
    cobar_differential,
)
from moorev1.dga import D2Report, differential_matrix, homology_page
from moorev1.gf2linalg import rank
from moorev1.gf2poly import (
    Multidegree,
    Polynomial,
    WindowBasis,
    _PartPlan,
    _quotient,
    _xor,
    enumerate_window,
    mono_degree,
    mono_divides,
)
from moorev1.specseq import (
    D3_SHIFT,
    DECOMPOSITION_FILT_MAX,
    DECOMPOSITION_STEM_MAX,
    check_row,
    w_of_v1_exponent,
)


def cobar_ext_dim(cx, s, t):
    """dim Ext^{s,t} by rank-nullity on the reduced cobar complex cx."""
    if s < 0:
        return 0
    boundaries = rank(cx.matrix(s - 1, t)) if s > 0 else 0
    return len(cx.basis(s, t)) - rank(cx.matrix(s, t)) - boundaries


def cobar_d_squared_by_sweep(comodule, s_max, t_range):
    """d² on every cell of the box 0 <= s <= s_max, t in t_range, each cell
    built and pushed through cobar_differential twice, where
    verify_cobar_d_squared proves it on the short cells and counts the box."""
    cx = CobarComplex(comodule)
    checked = 0
    failures = []
    for s in range(s_max + 1):
        for t in range(t_range[0], t_range[1] + 1):
            for term in cx.basis(s, t):
                c = CobarCochain(comodule, frozenset({term}))
                twice = cobar_differential(cobar_differential(c))
                checked += 1
                if not twice.is_zero():
                    failures.append((c, twice))
    return D2Report(checked=checked, failures=failures)


def quotient_basis_by_filter(alphabet, window, relations=()):
    """The basis of the quotient by monomial relations by enumerating the
    whole alphabet and dropping each monomial a relation divides, keeping
    the whole alphabet's truncated degrees: enumerate_window drops a
    divided part in its walk instead.  Every degree's basis is built here,
    at once, and filed as one piece at v1 exponent 0, so the WindowBasis
    reads the monomials as they are: enumerate_window places v1-free parts
    and builds a basis only when it is read."""
    whole = enumerate_window(alphabet, window)
    kept = {}
    for d in whole.degrees():
        monos = tuple(m for m in whole.basis(d) if not any(mono_divides(rel, m) for rel in relations))
        if monos:
            kept[d] = [(0, monos)]
    return WindowBasis(window, kept, set(whole._truncated), alphabet)


def window_basis_by_recursion(algebra, window):
    """enumerate_window as a recursive walk of the parts, one generator of
    _PartPlan.others per level, that tests each relation when its factor
    walked last is placed and keeps walking a divided part through its
    degrees alone, for their clipping.  Each kept part gets a record
    (-u, dense exponents, s, t, factors), and one global sort of those
    records gives each window degree its pieces in rising j and each part
    degree its parts in the canonical order.  _walk_parts runs the dynamic
    program of count_window for both instead."""
    quotient = _quotient(algebra)
    alphabet = quotient.alphabet
    plan = _PartPlan(alphabet, window)
    others, pruned, exponent_cap, keeps = plan.others, plan.pruned, plan.exponent_cap, plan.keeps
    walked_at = {gi: k for k, (gi, _) in enumerate(others)}
    closing = {}
    for rel in quotient.relations:
        closing.setdefault(max(rel, key=lambda f: walked_at[f[0]])[0], []).append(rel)
    leaves = []
    divided = set()
    exps = [0] * len(alphabet)

    def recurse(k, acc, s, t, u, dead):
        if pruned(k, s, t, u):
            return
        if k == len(others):
            if keeps(s, t, u):
                if dead:
                    divided.add((s, t, u))
                else:
                    leaves.append((-u, tuple(exps), s, t, tuple(sorted(acc))))
            return
        gi, g = others[k]
        ds, dt, du = g.degree
        e_max = exponent_cap(k, s, t, u)
        recurse(k + 1, acc, s, t, u, dead)
        rels = () if dead else closing.get(gi, ())
        for e in range(1, e_max + 1):
            if not dead:
                exps[gi] = e
                # a relation that divides g^e divides every higher power too
                dead = any(all(exps[x] >= r for x, r in rel) for rel in rels)
            if dead:
                recurse(k + 1, acc, s + ds * e, t + dt * e, u + du * e, True)
                continue
            acc.append((gi, e))
            recurse(k + 1, acc, s + ds * e, t + dt * e, u + du * e, False)
            acc.pop()
        exps[gi] = 0

    recurse(0, [], 0, 0, 0, False)
    leaves.sort()
    groups = {}
    for neg_u, _, s, t, base in leaves:
        groups.setdefault((s, t, -neg_u), []).append(base)
    pieces = {}
    truncated = set()
    vt, vu = plan.vt, plan.vu
    for (s, t, u), parts in groups.items():
        below, kept, above = plan.v1_exponents(s, t, u)
        for j in kept:
            pieces.setdefault((s, t + vt * j, u + vu * j), []).append((j, tuple(parts)))
        truncated.update(plan.at(s, t, u, below), plan.at(s, t, u, above))
    for s, t, u in divided:
        below, _, above = plan.v1_exponents(s, t, u)
        truncated.update(plan.at(s, t, u, below), plan.at(s, t, u, above))
    return WindowBasis(window, {Multidegree(*d): got for d, got in pieces.items()}, truncated, alphabet)


def counts_by_enumeration(alphabet, window, relations=()):
    """The basis of the quotient by monomial relations by enumerate and
    filter, as (count per degree, truncated degrees): count_window counts it
    by a dynamic program instead, and PagePresentation.basis_counts reads
    that count."""
    wb = quotient_basis_by_filter(alphabet, window, relations)
    return {d: len(wb.basis(d)) for d in wb.degrees()}, wb._truncated


def placements_per_j(plan, s, t, u):
    """(j, degree of v1^j * part, whether the v1 range clips j) for each v1
    exponent j that puts a kept part of degree (s, t, u) inside the t and u
    ranges, in rising j, by trying each j the u range allows against the t
    range: _PartPlan.v1_exponents solves for the same j as three ranges.
    Without v1 the kept part is the monomial, placed once at j = 0."""
    if plan.v1 is None:
        return [(0, (s, t, u), False)]
    w = plan.window
    t_lo, t_hi = w.t_range
    u_lo, u_hi = w.u_range
    v1_lo, v1_hi = w.v1_exponent_range
    vt, vu, stride = plan.v1.degree.t, plan.v1.degree.u, plan.v1.stride
    placed = []
    # from below the least j with u + j*vu >= u_lo to the greatest with u + j*vu <= u_hi
    for j in range((u_lo - u) // vu, (u_hi - u) // vu + 1):
        tt, uu = t + vt * j, u + vu * j
        if j % stride == 0 and u_lo <= uu <= u_hi and t_lo <= tt <= t_hi:
            placed.append((j, (s, tt, uu), not (v1_lo <= j <= v1_hi)))
    return placed


def e3_endm_by_ranks(wb):
    """E3(EndM) as the homology of (E2(EndM), d2) over the Workbench window,
    by ranks of the d2 matrices, where page("EndM", 3) counts it off the d2
    matching."""
    return homology_page(wb.presentation("EndM", 2), wb.window)


def complete_around_by_three(trust, d, shift):
    """The trust rule of a computed page as three window tests: no
    truncation and inside the window ranges at d, d - shift and d + shift,
    where everything below s = 0 is complete when no generator has s < 0."""
    vanishes_below_s0 = all(g.degree.s >= 0 for g in trust.alphabet)

    def complete(p):
        if p.s < 0 and vanishes_below_s0:
            return True
        return trust.window.contains(p) and tuple(p) not in trust._truncated

    return complete(d) and complete(d - shift) and complete(d + shift)


def homology_matrices_every_degree(pres, window):
    """The matrices of d and the (cycle dim, boundary dim) at every degree
    homology_page builds them for, each matrix built by differential_matrix
    at its own degree: homology_page builds one per v1-orbit and shares it
    with the orbit's translated degrees."""
    wb = pres.basis(window)
    shift = pres.degree_shift
    matrices, dims = {}, {}
    for d in wb.degrees():
        if not complete_around_by_three(wb, d, shift):
            continue
        for c in (d - shift, d):
            if c not in matrices:
                matrices[c] = differential_matrix(wb.basis(c), wb.basis(c + shift), pres.apply_monomial)
        dims[d] = (len(wb.basis(d)) - rank(matrices[d]), rank(matrices[d - shift]))
    return matrices, dims


def e4_claim_rows_every_degree(bench):
    """Workbench.verify_e4_claims's rows with each degree computed on its
    own: its w lists walked at their degrees, its slice ranks taken off the
    page-4 matrices at their degrees and its pattern counts read at it.
    verify_e4_claims computes the values once per distinct input and shares
    them along v1-orbits."""
    page3, page4 = bench.page("M", 3), bench.page("M", 4)
    w_lists, ranks = {}, {}

    def w_list(c):
        if c not in w_lists:
            w_lists[c] = [bench.w_degree(m) for m in page3.basis(c)]
        return w_lists[c]

    def slice_rank(c, n):
        if (c, n) not in ranks:
            cols = sum(1 << j for j, w in enumerate(w_list(c)) if w == n)
            ranks[c, n] = rank([row & cols for row in page4.matrix(c)]) if cols else 0
        return ranks[c, n]

    def kernel_dim(c, n):
        return w_list(c).count(n) - slice_rank(c, n)

    rows = []
    for d in page4.degrees():
        n_here = set(w_list(d))
        n_prev = set(w_list(d - D3_SHIFT))
        for n in sorted(n_here | {n + 1 for n in n_prev}):
            h = kernel_dim(d, n) - (slice_rank(d - D3_SHIFT, n - 1) if n > 0 else 0)
            if n == 0:
                rows.append(check_row("claim-1", d, h, bench._zf(0, d)))
            elif n == 1:
                rows.append(check_row("claim-2", d, h, bench._hf(1, d)))
            elif n == 2:
                rows.append(check_row("claim-3", d, h, bench._hf(2, d) + bench._bv(2, d)))
            else:
                rows.append(check_row("claim-4", d, h, 0))
        for n in sorted(n_here):
            expect = bench._zf(n, d) if n < 2 else bench._zf(n, d) + bench._bv(n, d)
            rows.append(check_row("claim-i", (*d, n), kernel_dim(d, n), expect))
        d_next = d + D3_SHIFT
        if page4.trusted(d_next):
            for n in sorted(n_here):
                expect = bench._bf(n + 1, d_next) if n < 2 else kernel_dim(d_next, n + 1)
                rows.append(check_row("claim-ii", (*d, n), slice_rank(d, n), expect))
    return rows


def e4_closed_form_rows_every_degree(bench):
    """Workbench.verify_e4_dimensions's rows with the closed form summed at
    every degree, where the report sums it once per v1-orbit."""
    page4 = bench.page("M", 4)
    rows = []
    for d in page4.degrees():
        rhs = bench._zf(0, d) + bench._hf(1, d) + bench._hf(2, d) + bench._bv(2, d)
        rows.append(check_row("e4-closed-form", d, page4.dim(d), rhs))
    return rows


def apply_matrix(rows, v):
    """Image of the source vector v: bit i of the result is <row i, v>."""
    return sum((bin(r & v).count("1") & 1) << i for i, r in enumerate(rows))


def project_to_m(wb, r, e):
    """The quotient map from the EndM page r to the M page on a polynomial:
    on page 3 the Workbench's own, on page 2 kill alpha and keep v1 and
    each h(n,1)."""
    dst = wb.alphabet("M", 2)
    if r == 3:
        return Polynomial(dst, wb._project_terms(e.terms))
    src = wb.alphabet("EndM", 2)
    alpha = src.index("alpha")
    return Polynomial(
        dst,
        [
            tuple((dst.index(src[gi].name), exp) for gi, exp in mono)
            for mono in e.terms
            if all(gi != alpha for gi, _ in mono)
        ],
    )


def act(wb, r, e, m):
    """Action of an EndM page element e on an M page element m."""
    return project_to_m(wb, r, e) * m


def induced_d3_by_lift(wb, mono):
    """d3 of an M monomial by its definition, p(d_E(l(m))) * v1^eps: lift
    it to E3(EndM), apply d3 there by the Leibniz rule and the relation
    filter, and project the image back.  Workbench.induced_d3m_monomial
    transports generator values instead."""
    lifted, eps = wb.lift_to_endm(mono)
    image = wb.presentation("EndM", 3).apply_monomial(lifted)
    return wb._project_terms(image.terms, eps)


def induced_d3m(wb, poly):
    """The induced d3 on an M page polynomial, summed monomial by monomial."""
    return sum((wb.induced_d3m_monomial(m) for m in poly.terms), Polynomial.zero(wb.alphabet("M", 2)))


def low_w_by_enumeration(wb, degrees):
    """The least w of an M monomial at each degree, None where the degree
    holds no monomial, by enumerating them: specseq.low_w_monomial_possible
    decides the same question by a popcount test on the part sizes.  A degree
    (s, t, u) holds the monomials v1^u * P with P a product of s factors
    h(n,1) of internal degree t - 2u, so the Workbench's M alphabet must
    hold every h(n,1) that the largest t - 2u affords."""
    degrees = list(degrees)
    a = wb.alphabet("M", 2)
    v1 = a.v1_index
    hs = [gi for gi in range(len(a)) if gi != v1]
    s_max = max(d.s for d in degrees)
    budget = max(d.t - 2 * d.u for d in degrees)
    # the next h(n,1) would cost 2^(n+2) - 2, twice the last one plus 2
    assert 2 * a[hs[-1]].degree.t + 2 > budget, "the alphabet lacks an h(n,1) the degrees afford"
    products = defaultdict(list)  # (factors, internal degree) -> the products

    def extend(start, factors, cost):
        products[len(factors), cost].append(factors)
        if len(factors) < s_max:
            for k in range(start, len(hs)):
                if cost + a[hs[k]].degree.t <= budget:
                    extend(k, factors + (hs[k],), cost + a[hs[k]].degree.t)

    extend(0, (), 0)
    out = {}
    for d in degrees:
        ws = []
        for factors in products.get((d.s, d.t - 2 * d.u), ()):
            exps = Counter(factors)
            if d.u:
                exps[v1] = d.u
            mono = tuple(sorted(exps.items()))
            assert mono_degree(a, mono) == d, (d, mono)
            ws.append(wb.w_degree(mono))
        out[d] = min(ws, default=None)
    return out


@lru_cache(maxsize=None)
def parts_sum_by_search(count, total):
    """Can `count` parts from the menu 6, 14, 30, ..., 2^(n+1) - 2 sum to
    `total`?  A memoised recursive search over the menu, where
    specseq._parts_sum decides it by a popcount test."""
    if count == 0:
        return total == 0
    if total < 6 * count:
        return False
    menu = []
    n = 2
    while 2 ** (n + 1) - 2 <= total:
        menu.append(2 ** (n + 1) - 2)
        n += 1
    return any(parts_sum_by_search(count - 1, total - part) for part in menu)


def low_w_by_search(d):
    """Whether an M monomial of degree d can have w <= 2, by the parts
    search: v1^u * h(1,1)^a1 times s - a1 parts, for each a1 <= 2."""
    s, t, u = d
    return any(
        s - a1 >= 0
        and w_of_v1_exponent(u - s + a1) + a1 <= 2
        and parts_sum_by_search(s - a1, t - 2 * u - 2 * a1)
        for a1 in (0, 1, 2)
    )


def cell_covered_by_box(bench, page4, stem, filt):
    """The coverage scan of one decomposition cell, read tridegree by
    tridegree: every s up to the window's s_max or the low-w cut-off is
    visited, trust is read only inside the box where page4's ranges hold d
    and d + D3_SHIFT, and the low-w test runs where d is not trusted.
    Workbench._cell_covered reads trust only where the low-w test allows a
    monomial."""
    box = page4.window
    s_lo = max(box.s_range[0], box.t_range[0] - stem, filt - box.u_range[1])
    s_hi = min(
        box.s_range[1] - D3_SHIFT.s, box.t_range[1] - D3_SHIFT.t - stem, filt + D3_SHIFT.u - box.u_range[0]
    )
    covered = True
    for s in range(max(bench.window.s_range[1], (stem - 2 * filt + 8) // 3) + 1):
        d = Multidegree(s, stem + s, filt - s)
        trusted = s_lo <= s <= s_hi and page4.dims_at(d) is not None
        if not trusted and low_w_by_search(d):
            covered = False
    return covered


def bo_pattern_dim(s, t):
    """Classes v1^m h(1,1)^a with a in {0,1,2} and m = 0,1 mod 4 sit at
    Adams bidegree (m+a, 3m+2a); at most one lands on any (s, t).  The
    pattern tested cell by cell, where specseq.pattern_stems solves it for
    the stems on a filtration."""
    a = 3 * s - t
    m = t - 2 * s
    return 1 if a in (0, 1, 2) and m % 4 in (0, 1) else 0


def bu_pattern_dim(s, t):
    """Classes v1^m at Adams bidegree (m, 3m), tested cell by cell."""
    return 1 if t == 3 * s else 0


def cell_rhs_over_every_p(tables, s_adams, t_adams):
    """The pattern sum of mahowald_decomposition_check at one cell, by
    searching every (p, q) of the tables, odd p included, whose bo or bu
    pattern can reach the cell, where the check places each class's
    pattern by pattern_stems."""
    rhs = 0
    c = t_adams - 3 * s_adams
    for p in range(tables.p_max + 1):
        for q in range(max(c + 3 * p, 0), min(c + 3 * p + 2, tables.q_max) + 1):
            rhs += tables.h_dim(p, q) * bo_pattern_dim(s_adams - p, t_adams - q)
            rhs += tables.b_dim(p, q) * bu_pattern_dim(s_adams - p, t_adams - q)
    return rhs


# ---- charts: the cell scan and the per-dot drawing ----


def decomposition_chart_by_scan(tables):
    """decomposition_chart by testing every cell of the box against each
    class's pattern with bo_pattern_dim and bu_pattern_dim, where
    decomposition_chart solves each pattern for the stem it hits on each
    filtration."""
    cells = {}
    specs = [(f"bo[{poly}]", p, q) for p, q, poly in tables.export_classes("H")]
    specs += [(f"bu[{poly}]", p, q) for p, q, poly in tables.export_classes("B")]
    for group, p, q in specs:
        pattern = bo_pattern_dim if group.startswith("bo") else bu_pattern_dim
        for stem in range(DECOMPOSITION_STEM_MAX + 1):
            for filt in range(DECOMPOSITION_FILT_MAX + 1):
                if pattern(filt - p, stem + filt - q):
                    cells[(stem, filt, group)] = 1
    return ChartDoc(cells, title="decomposition")


def render_svg_per_dot(doc):
    """render_svg with each coordinate and color computed again for every
    dot and line end, where render_svg formats them once per stem,
    filtration and group."""
    stem_lo, stem_hi, filt_lo, filt_hi = doc.viewport
    ml, mt, mr, mb = 46, 30, 16, 38
    width = ml + (stem_hi - stem_lo + 1) * _CELL + mr
    height = mt + (filt_hi - filt_lo + 1) * _CELL + mb
    groups = sorted({group for _, _, group in doc.cells})

    def x(stem):
        return ml + (stem - stem_lo) * _CELL + _CELL // 2

    def y(filt):
        return mt + (filt_hi - filt) * _CELL + _CELL // 2

    def color_of(group):
        return PALETTE[groups.index(group) % len(PALETTE)]

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
    ax_left = x(stem_lo) - _CELL // 2
    ax_bottom = y(filt_lo) + _CELL // 2
    ax_right = x(stem_hi) + _CELL // 2
    ax_top = y(filt_hi) - _CELL // 2
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
                f'<text x="{x(stem)}" y="{ax_bottom + 16}" text-anchor="middle" '
                f'font-family="monospace" font-size="10" fill="#000000">{stem}</text>'
            )
    for filt in range(filt_lo, filt_hi + 1):
        if filt % 4 == 0:
            out.append(
                f'<text x="{ax_left - 6}" y="{y(filt) + 4}" text-anchor="end" '
                f'font-family="monospace" font-size="10" fill="#000000">{filt}</text>'
            )
    for line in doc.lines:
        dash = ' stroke-dasharray="4 3"' if line.kind == "v1" else ""
        out.append(
            f'<line x1="{x(line.stem1)}" y1="{y(line.filt1)}" '
            f'x2="{x(line.stem2)}" y2="{y(line.filt2)}" '
            f'stroke="#555555" stroke-width="1"{dash}/>'
        )
    seen = {}
    for (stem, filt, group), n in doc.cells.items():
        k = seen.get((stem, filt), 0)
        seen[(stem, filt)] = k + n
        for i in range(k, k + n):
            dx, dy = _OFFSETS[i % len(_OFFSETS)]
            out.append(f'<circle cx="{x(stem) + dx}" cy="{y(filt) + dy}" r="{_DOT_R}" fill="{color_of(group)}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _zbh_degree(tables, poly):
    deg = poly.multidegree()
    return tables._degree(deg.s, deg.t)


def zbh_is_cycle(tables, poly):
    """Membership in the cycle subspace of the page the tables read."""
    d = _zbh_degree(tables, poly)
    h = tables._page._homology_at(d)
    return h is not None and tables._page.vector_of(poly, d) in h.cycles


def zbh_is_boundary(tables, poly):
    d = _zbh_degree(tables, poly)
    return tables._page.vector_of(poly, d) in tables._page.boundaries_subspace(d)


def zbh_class_nonzero(tables, poly):
    """The page's own test that a cycle is not a boundary; raises for a
    non-cycle."""
    return tables._page.class_is_nonzero(poly, _zbh_degree(tables, poly))


# ---- comodules: the axioms and the multiplication no command reads ----


def coalgebra_is_coassociative(coalgebra):
    """Exhaustive coassociativity of the full diagonal."""
    for i in range(coalgebra.height):
        left = _xor((a, b, c) for j, c in coalgebra.delta_full(i) for a, b in coalgebra.delta_full(j))
        right = _xor((a, b, c) for a, j in coalgebra.delta_full(i) for b, c in coalgebra.delta_full(j))
        if left != right:
            return False
    return True


def _cell_product(a, b):
    """(x_i y_j)(x_k y_l) is x_i y_l when j + k = 0 and zero otherwise."""
    return (a[0], b[1]) if _YDEG[a[1]] + _XDEG[b[0]] == 0 else None


def endomorphism_products():
    """The multiplication table of the endomorphism comodule, from the
    cell-pair model through the basis change the comodule is built on:
    (a, b) -> the labels summing to a*b."""
    table = {}
    for a, cells_a in _ENDO_BASIS.items():
        for b, cells_b in _ENDO_BASIS.items():
            cells = (_cell_product(ca, cb) for ca in cells_a for cb in cells_b)
            table[(a, b)] = _xor(m for cell in cells if cell is not None for m in _ENDO_CELLS[cell])
    return table


# the multiplication tables of the package's multiplicative comodules, by name
PRODUCTS = {"trivial": {("1", "1"): frozenset({"1"})}, "endomorphism": endomorphism_products()}


def comodule_is_valid(com):
    """Counit, homogeneity and coassociativity of every coaction, and for a
    comodule named in PRODUCTS also that the coaction is multiplicative."""
    for label in com.labels:
        psi = com.coact(label)
        # counit: the power-0 part is exactly 1 (x) label
        if frozenset(p for p in psi if p[0] == 0) != frozenset({(0, label)}):
            return False
        d = com.degree(label)
        if any(i + com.degree(m) != d for i, m in psi):
            return False
        left = _xor((a, b, m) for i, m in psi for a, b in COALGEBRA.delta_full(i))
        right = _xor((i, j, m2) for i, m in psi for j, m2 in com.coact(m))
        if left != right:
            return False
    products = PRODUCTS.get(com.name)
    if products is None:
        return True
    for a in com.labels:
        for b in com.labels:
            lhs = _xor(p for m in products[(a, b)] for p in com.coact(m))
            rhs = _xor(
                (i + j, m3)
                for i, m in com.coact(a)
                for j, m2 in com.coact(b)
                if i + j < COALGEBRA.height
                for m3 in products[(m, m2)]
            )
            if lhs != rhs:
                return False
    return True
