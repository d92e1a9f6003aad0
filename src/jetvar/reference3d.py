"""Hand-expanded reference formulas for the 3D gauge model (k = 2, Killing
tensor).  These are written out index-by-index, independently of the
transgression machinery, and serve as cross-checks for the engine output.

Conventions: epsilon^{012} = +1; the invariant tensor is h * kappa, kappa the
Killing form of the algebra; D_beta xi^m = d_beta xi^m + c^m_pq a^p_beta xi^q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebra import _EPS3, LieAlgebraData, killing_form, section_bracket
from .forms import Form
from .indets import bg, conn, gauge, x
from .jets import JetContext, total_derivative
from .polynomial import Poly, Q

__all__ = ["levi_civita", "cs_density_3d", "lie_derivative_density_3d",
           "noether_components_3d", "modified_current_components_3d",
           "current_discrepancy_primitive"]


def levi_civita(a: int, b: int, c: int) -> int:
    return _EPS3.get((a, b, c), 0)


def _A(r, mu, D=()):
    return Poly.var(conn(r, mu, D))


def _B(r, mu, D=()):
    return Poly.var(bg(r, mu, D))


def _XI(r, D=()):
    return Poly.var(gauge(r, D))


def _cs_inner(g: LieAlgebraData, be: int, ga: int, field) -> list:
    """F^n_{be ga} - 1/3 c^n_pq f^p_be f^q_ga for every n, where
    F^n_{be ga} = d_be f_ga - d_ga f_be + c^n_pq f^p_be f^q_ga."""
    quad = section_bracket([field(p, be) for p in range(g.dim)],
                           [field(q, ga) for q in range(g.dim)], g)
    return [field(n, ga, (be,)) - field(n, be, (ga,)) + quad[n] - Q(1, 3) * quad[n]
            for n in range(g.dim)]


def _xi_bracket(g: LieAlgebraData, beta: int) -> list:
    """c^m_pq a^p_beta xi^q for every m."""
    return section_bracket([_A(p, beta) for p in range(g.dim)],
                           [_XI(q) for q in range(g.dim)], g)


def cs_density_3d(g: LieAlgebraData, h: Fraction, ctx: JetContext,
                  symbolic_bg: bool) -> Poly:
    """The displayed 3D CS density: the potential group, the background group,
    and the total-derivative cross group."""
    kappa = killing_form(g)
    dens = Poly.zero()
    for al, be, ga in product(range(3), repeat=3):
        e = levi_civita(al, be, ga)
        if not e:
            continue
        inner = _cs_inner(g, be, ga, _A)
        inner2 = _cs_inner(g, be, ga, _B) if symbolic_bg else None
        for (m, n_), kv in kappa.items():
            dens = dens + Q(h, 2) * kv * e * _A(m, al) * inner[n_]
            if symbolic_bg:
                dens = dens - Q(h, 2) * kv * e * _B(m, al) * inner2[n_]
                dens = dens - total_derivative(
                    h * kv * e * _A(m, be) * _B(n_, ga), al, ctx)
    return dens


def lie_derivative_density_3d(g: LieAlgebraData, h: Fraction,
                              ctx: JetContext, symbolic_bg: bool) -> Poly:
    """-d_al(h kappa eps (d_be xi^m a^n_ga + D_be xi^m B^n_ga))."""
    kappa = killing_form(g)
    quad = [_xi_bracket(g, be) for be in range(3)]
    dens = Poly.zero()
    for al, be, ga in product(range(3), repeat=3):
        e = levi_civita(al, be, ga)
        if not e:
            continue
        for (m, n_), kv in kappa.items():
            inner = _XI(m, (be,)) * _A(n_, ga)
            if symbolic_bg:
                inner = inner + (_XI(m, (be,)) + quad[be][m]) * _B(n_, ga)
            dens = dens - total_derivative(h * kv * e * inner, al, ctx)
    return dens


def noether_components_3d(g: LieAlgebraData, h: Fraction,
                          symbolic_bg: bool) -> list:
    """J^al = h kappa eps D_be xi^m (a^n_ga - B^n_ga)."""
    kappa = killing_form(g)
    quad = [_xi_bracket(g, be) for be in range(3)]
    out = []
    for al in range(3):
        s = Poly.zero()
        for (m, n_), kv in kappa.items():
            for be, ga in product(range(3), repeat=2):
                e = levi_civita(al, be, ga)
                if not e:
                    continue
                tail = _A(n_, ga) - _B(n_, ga) if symbolic_bg else _A(n_, ga)
                s = s + h * kv * e * (_XI(m, (be,)) + quad[be][m]) * tail
        out.append(s)
    return out


def modified_current_components_3d(g: LieAlgebraData, h: Fraction) -> list:
    """The displayed conserved current:
    h kappa eps (2 d_be xi^m a^n_ga + c^m_pq a^p_be a^n_ga xi^q)."""
    kappa = killing_form(g)
    quad = [_xi_bracket(g, be) for be in range(3)]
    out = []
    for al in range(3):
        s = Poly.zero()
        for (m, n_), kv in kappa.items():
            for be, ga in product(range(3), repeat=2):
                e = levi_civita(al, be, ga)
                if not e:
                    continue
                inner = 2 * _XI(m, (be,)) * _A(n_, ga) + quad[be][m] * _A(n_, ga)
                s = s + h * kv * e * inner
        out.append(s)
    return out


def current_discrepancy_primitive(g: LieAlgebraData, h: Fraction,
                                  ctx: JetContext) -> Form:
    """The horizontal 1-form -2h kappa_mn xi^m B^n_ga dx^ga.

    The engine's modified current (B-centered homotopy convention) equals the
    displayed current plus d_H of this form; both satisfy the conservation
    law, the difference being d_H-exact."""
    kappa = killing_form(g)
    terms = {}
    for ga in range(3):
        s = Poly.zero()
        for (m, n_), kv in kappa.items():
            s = s - 2 * h * kv * _XI(m) * _B(n_, ga)
        if s:
            terms[(x(ga),)] = s
    return Form(ctx, 1, terms)
