"""Hand-expanded reference formulas for the 3D gauge model (k = 2, Killing
tensor).  These are written out index-by-index, independently of the
transgression machinery, and serve as cross-checks for the engine output.

Conventions: epsilon^{012} = +1; the invariant tensor is h * kappa, kappa the
Killing form of the algebra; D_beta xi^m = d_beta xi^m + c^m_pq a^p_beta xi^q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from .algebra import LieAlgebraData, killing_form
from .forms import Form
from .indets import bg, conn, gauge, x
from .jets import JetContext, total_derivative
from .polynomial import Poly, Q

__all__ = ["levi_civita", "cs_density_3d", "lie_derivative_density_3d",
           "noether_components_3d", "modified_current_components_3d",
           "current_discrepancy_primitive"]

_EPS = {p: (1 if p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1)
        for p in permutations(range(3))}


def levi_civita(a: int, b: int, c: int) -> int:
    return _EPS.get((a, b, c), 0)


def _A(r, mu, D=()):
    return Poly.var(conn(r, mu, D))


def _B(r, mu, D=()):
    return Poly.var(bg(r, mu, D))


def _XI(r, D=()):
    return Poly.var(gauge(r, D))


def _strength(g: LieAlgebraData, lam: int, mu: int, r: int, field) -> Poly:
    """F^r_{lam mu} = d_lam f_mu - d_mu f_lam + c^r_pq f^p_lam f^q_mu."""
    f = field(r, mu, (lam,)) - field(r, lam, (mu,))
    for p in range(g.dim):
        for q in range(g.dim):
            cval = g.bracket_const(r, p, q)
            if cval:
                f = f + cval * field(p, lam) * field(q, mu)
    return f


def _covariant_xi(g: LieAlgebraData, m: int, beta: int) -> Poly:
    s = _XI(m, (beta,))
    for p in range(g.dim):
        for q in range(g.dim):
            cval = g.bracket_const(m, p, q)
            if cval:
                s = s + cval * _A(p, beta) * _XI(q)
    return s


def cs_density_3d(g: LieAlgebraData, h: Fraction, ctx: JetContext,
                  symbolic_bg: bool) -> Poly:
    """The displayed 3D CS density: the potential group, the background group,
    and the total-derivative cross group."""
    kappa = killing_form(g)
    dens = Poly.zero()
    for m in range(g.dim):
        for n_ in range(g.dim):
            kv = kappa[m][n_]
            if not kv:
                continue
            for al, be, ga in product(range(3), repeat=3):
                e = levi_civita(al, be, ga)
                if not e:
                    continue
                inner = _strength(g, be, ga, n_, _A)
                for p in range(g.dim):
                    for q in range(g.dim):
                        cval = g.bracket_const(n_, p, q)
                        if cval:
                            inner = inner - Q(1, 3) * cval * _A(p, be) * _A(q, ga)
                dens = dens + Q(h, 2) * kv * e * _A(m, al) * inner
                if symbolic_bg:
                    inner2 = _strength(g, be, ga, n_, _B)
                    for p in range(g.dim):
                        for q in range(g.dim):
                            cval = g.bracket_const(n_, p, q)
                            if cval:
                                inner2 = inner2 - Q(1, 3) * cval * _B(p, be) * _B(q, ga)
                    dens = dens - Q(h, 2) * kv * e * _B(m, al) * inner2
                    dens = dens - total_derivative(
                        h * kv * e * _A(m, be) * _B(n_, ga), al, ctx)
    return dens


def lie_derivative_density_3d(g: LieAlgebraData, h: Fraction,
                              ctx: JetContext, symbolic_bg: bool) -> Poly:
    """-d_al(h kappa eps (d_be xi^m a^n_ga + D_be xi^m B^n_ga))."""
    kappa = killing_form(g)
    dens = Poly.zero()
    for m in range(g.dim):
        for n_ in range(g.dim):
            kv = kappa[m][n_]
            if not kv:
                continue
            for al, be, ga in product(range(3), repeat=3):
                e = levi_civita(al, be, ga)
                if not e:
                    continue
                inner = _XI(m, (be,)) * _A(n_, ga)
                if symbolic_bg:
                    inner = inner + _covariant_xi(g, m, be) * _B(n_, ga)
                dens = dens - total_derivative(h * kv * e * inner, al, ctx)
    return dens


def noether_components_3d(g: LieAlgebraData, h: Fraction,
                          symbolic_bg: bool) -> list:
    """J^al = h kappa eps D_be xi^m (a^n_ga - B^n_ga)."""
    kappa = killing_form(g)
    out = []
    for al in range(3):
        s = Poly.zero()
        for m in range(g.dim):
            for n_ in range(g.dim):
                kv = kappa[m][n_]
                if not kv:
                    continue
                for be, ga in product(range(3), repeat=2):
                    e = levi_civita(al, be, ga)
                    if not e:
                        continue
                    tail = _A(n_, ga) - _B(n_, ga) if symbolic_bg else _A(n_, ga)
                    s = s + h * kv * e * _covariant_xi(g, m, be) * tail
        out.append(s)
    return out


def modified_current_components_3d(g: LieAlgebraData, h: Fraction) -> list:
    """The displayed conserved current:
    h kappa eps (2 d_be xi^m a^n_ga + c^m_pq a^p_be a^n_ga xi^q)."""
    kappa = killing_form(g)
    out = []
    for al in range(3):
        s = Poly.zero()
        for m in range(g.dim):
            for n_ in range(g.dim):
                kv = kappa[m][n_]
                if not kv:
                    continue
                for be, ga in product(range(3), repeat=2):
                    e = levi_civita(al, be, ga)
                    if not e:
                        continue
                    inner = 2 * _XI(m, (be,)) * _A(n_, ga)
                    for p in range(g.dim):
                        for q in range(g.dim):
                            cval = g.bracket_const(m, p, q)
                            if cval:
                                inner = inner + cval * _A(p, be) * _A(n_, ga) * _XI(q)
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
        for m in range(g.dim):
            for n_ in range(g.dim):
                if kappa[m][n_]:
                    s = s - 2 * h * kappa[m][n_] * _XI(m) * _B(n_, ga)
        if s:
            terms[(x(ga),)] = s
    return Form(ctx, 1, terms)
