"""What the tests reach the package through: second methods that compute
by a route its commands do not take, and queries on page internals that
no command asks."""
from moorev1.dga import homology_page
from moorev1.gf2linalg import rank
from moorev1.gf2poly import Polynomial


def cobar_ext_dim(cx, s, t):
    """dim Ext^{s,t} by rank-nullity on the reduced cobar complex cx."""
    if s < 0:
        return 0
    boundaries = rank(cx.matrix(s - 1, t)) if s > 0 else 0
    return len(cx.basis(s, t)) - rank(cx.matrix(s, t)) - boundaries


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


def apply_matrix(rows, v):
    """Image of the source vector v: bit i of the result is <row i, v>."""
    return sum((bin(r & v).count("1") & 1) << i for i, r in enumerate(rows))


def project_to_m(wb, r, e):
    """The quotient map from the EndM page r to the M page on a polynomial."""
    return Polynomial(wb.alphabet("M", 2), wb._project_terms(r, e.terms))


def act(wb, r, e, m):
    """Action of an EndM page element e on an M page element m."""
    return project_to_m(wb, r, e) * m


def induced_d3m(wb, poly):
    """The induced d3 on an M page polynomial, summed monomial by monomial."""
    return sum((wb.induced_d3m_monomial(m) for m in poly.terms), Polynomial.zero(wb.alphabet("M", 2)))


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
