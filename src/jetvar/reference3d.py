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
from .jets import JetContext
from .polynomial import Poly

__all__ = ["levi_civita", "modified_current_components_3d",
           "current_discrepancy_primitive"]


def levi_civita(a: int, b: int, c: int) -> int:
    return _EPS3.get((a, b, c), 0)


def _A(r, mu, D=()):
    return Poly.var(conn(r, mu, D))


def _B(r, mu, D=()):
    return Poly.var(bg(r, mu, D))


def _XI(r, D=()):
    return Poly.var(gauge(r, D))


def _xi_bracket(g: LieAlgebraData, beta: int) -> list:
    """c^m_pq a^p_beta xi^q for every m."""
    return section_bracket([_A(p, beta) for p in range(g.dim)],
                           [_XI(q) for q in range(g.dim)], g)


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
    return Form(ctx, terms)
