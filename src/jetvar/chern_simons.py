"""Canonical curvature, characteristic forms, the transgression form with a
background section, and the resulting first-order Lagrangian."""

from __future__ import annotations

from itertools import permutations
from math import lcm

from .algebra import (InvariantTensor, LieAlgebraData, _multinomial,
                      check_invariant_tensor)
from .errors import JetvarError
from .forms import Form, _wrap, add_into, exterior_d, wedge, wedge_into
from .indets import T, bg, conn, x
from .jets import JetContext, horizontal_projection
from .polynomial import Poly, Q

__all__ = ["CSData", "canonical_curvature", "characteristic_form",
           "characteristic_at_B", "background_curvature", "homotopy",
           "cs_form", "cs_lagrangian", "cs_lagrangian_direct"]


class CSData:
    """Inputs of one CS model: algebra, degree-k invariant tensor, background.

    base dimension is pinned to 2k-1.  h is an overall constant multiple on
    the invariant polynomial (the characteristic form gets h * b).  The
    ad-invariance residual of b is computed here and kept for reporting;
    construction proceeds either way so a bad tensor surfaces as a FAIL in
    the gauge-invariance check rather than an exception.
    """

    def __init__(self, algebra: LieAlgebraData, invariant: InvariantTensor,
                 k: int, background: str = "symbolic", h=1,
                 ctx: JetContext | None = None):
        if k < 2:
            raise JetvarError("CS degree k must be >= 2")
        if invariant.degree != k:
            raise JetvarError("invariant tensor degree must equal k")
        if background not in ("zero", "symbolic"):
            raise JetvarError(f"unknown background {background!r}")
        self.algebra = algebra
        self.k = k
        self.n = 2 * k - 1
        self.background = background
        self.h = Q(h)
        self.b = invariant.scaled(self.h)
        self.invariance_residual = check_invariant_tensor(algebra, invariant)
        self.ctx = ctx or JetContext(self.n, algebra.dim)
        if self.ctx.n != self.n or self.ctx.gauge_dim != algebra.dim:
            raise JetvarError("jet context does not match the CS data")

    # background coefficient: B^r_mu symbol, or 0 for the zero section
    def bg_poly(self, r: int, mu: int, D: tuple = ()) -> Poly:
        if self.background == "zero":
            return Poly.zero()
        return Poly.var(bg(r, mu, D))

    def potential_one_form(self, r: int) -> Form:
        terms = {(x(mu),): Poly.var(conn(r, mu)) for mu in range(self.n)}
        return Form(self.ctx, 1, terms)

    def background_one_form(self, r: int) -> Form:
        return self._one_form(r, self.bg_poly)

    def interp_poly(self, r: int, mu: int, D: tuple = ()) -> Poly:
        """t a^r_{D;mu} + (1-t) B^r_{D;mu}: the homotopy from B to a."""
        t = Poly.var(T)
        return (t * Poly.var(conn(r, mu, D))
                + (Poly.const(1) - t) * self.bg_poly(r, mu, D))

    def interp_one_form(self, r: int) -> Form:
        return self._one_form(r, self.interp_poly)

    def _one_form(self, r: int, coeff) -> Form:
        terms = {}
        for mu in range(self.n):
            p = coeff(r, mu)
            if p:
                terms[(x(mu),)] = p
        return Form(self.ctx, 1, terms)


def _curvature(cs: CSData, linear: list, ones: list) -> list:
    """F^r = linear^r + 1/2 c^r_pq X^p ^ X^q for the 1-forms X = ones."""
    accs = [add_into({}, f) for f in linear]
    for (r, p, q), cval in cs.algebra.c.items():
        wedge_into(accs[r], ones[p], ones[q], cval / 2)
    return [_wrap(cs.ctx, 2, acc) for acc in accs]


def canonical_curvature(cs: CSData) -> list:
    """F^r = da^r_mu ^ dx^mu + 1/2 c^r_pq a^p_lam a^q_mu dx^lam ^ dx^mu."""
    A = [cs.potential_one_form(r) for r in range(cs.algebra.dim)]
    return _curvature(cs, [exterior_d(a) for a in A], A)


def background_curvature(cs: CSData) -> list:
    """F_B^r as a 2-form on X: dB^r + 1/2 c^r_pq B^p B^q."""
    B = [cs.background_one_form(r) for r in range(cs.algebra.dim)]
    return _curvature(cs, [exterior_d(b) for b in B], B)


def _slot_sum(cs: CSData, heads: list, curv: list) -> tuple:
    """(acc, den, degree): den times the slot contraction below, as an
    accumulator (see forms), and its degree.  den is the least common
    denominator of the values of b, so that every weight is an int and the
    kernel multiplies ints only.  Only the nonzero entries of b are walked:
    each distinct ordering of j of an entry's indices is a lead, and the
    remaining indices are the multiset of curvature slots.  The head of
    each lead is wedged once; the last curvature factor of each term is
    wedged straight into acc."""
    j = len(heads)
    den = lcm(*(v.denominator for v in cs.b.entries.values()))
    by_lead: dict = {}
    for idx, bval in cs.b.entries.items():
        weight = (bval * den).numerator
        for lead in set(permutations(idx, j)):
            rest = list(idx)
            for r in lead:
                rest.remove(r)
            rest = tuple(rest)
            by_lead.setdefault(lead, []).append((rest, weight * _multinomial(rest)))
    acc: dict = {}
    for lead in sorted(by_lead):
        factors = [h[r] for h, r in zip(heads, lead)]
        if any(f.is_zero() for f in factors):
            continue
        head = factors[0]
        for f in factors[1:]:
            head = wedge(head, f)
        for rest, weight in sorted(by_lead[lead]):
            if not rest:
                add_into(acc, head, weight)
                continue
            term = head
            for i in rest[:-1]:
                term = wedge(term, curv[i])
            wedge_into(acc, term, curv[rest[-1]], weight)
    return acc, den, sum(h[0].degree for h in heads) + 2 * (cs.k - j)


def _slot_contraction(cs: CSData, heads: list, curv: list) -> Form:
    """b_{r1..rk} heads[0]^{r1} ^ ... ^ heads[j-1]^{rj} ^ curv^{r(j+1)} ^ ...
    ^ curv^{rk}, summed over ordered tuples: each head is a per-index list of
    forms whose index runs over all values, the even curv slots commute and
    are enumerated as multisets with multinomial weights."""
    acc, den, degree = _slot_sum(cs, heads, curv)
    return _wrap(cs.ctx, degree, acc, den)


def characteristic_form(cs: CSData) -> Form:
    """P_2k(F) = b_{r1..rk} F^{r1} ^ ... ^ F^{rk}; closed and gauge-invariant
    when b is ad-invariant."""
    F = canonical_curvature(cs)
    return _slot_contraction(cs, [F], F)


def characteristic_at_B(cs: CSData) -> Form:
    """P_2k(F_B), the characteristic form pulled back along the background
    section.  Pull-back commutes with wedge and d and takes F^r to F_B^r
    (naturality of characteristic forms), so this is the slot contraction
    of the background curvature."""
    FB = background_curvature(cs)
    return _slot_contraction(cs, [FB], FB)


def _interp_curvature(cs: CSData) -> list:
    """F^r(t,B) = d(ta + (1-t)B) ^ dx (t held constant) + 1/2 c (ta+(1-t)B)^2."""
    t = Poly.var(T)
    one_minus_t = Poly.const(1) - t
    m = cs.algebra.dim
    linear = [exterior_d(cs.potential_one_form(r)).scale(t)
              + exterior_d(cs.background_one_form(r)).scale(one_minus_t)
              for r in range(m)]
    return _curvature(cs, linear, [cs.interp_one_form(r) for r in range(m)])


def homotopy(cs: CSData, heads: list = (), curv: list | None = None) -> Form:
    """(k-j) * integral over t in [0,1] of b_{r1..rk} heads^{r1} ^ ... ^
    heads^{rj} ^ (a-B)^{r(j+1)} ^ curv^{r(j+2)}(t) ^ ... ^ curv^{rk}(t).

    With the interpolated curvature F(t) (the default) this is the fiber
    homotopy H centred at a = B, the pullback along a -> ta + (1-t)B
    contracted by d/dt and integrated, applied to b(heads, F, ..., F) for
    heads that do not depend on a.  With no heads it is the transgression
    form; the result is t-free."""
    if curv is None:
        curv = _interp_curvature(cs)
    # the factor (k-j) goes on the m small one-forms a-B, not on the result
    diff = [(cs.potential_one_form(r) - cs.background_one_form(r))
            .scale(cs.k - len(heads)) for r in range(cs.algebra.dim)]
    # integrate den times the integrand, whose coefficients are ints when
    # those of the forms are, then divide by den once per output term
    acc, den, degree = _slot_sum(cs, [*heads, diff], curv)
    return _wrap(cs.ctx, degree,
                 {key: Poly(t).integrate_t().terms for key, t in acc.items()}, den)


def cs_form(cs: CSData) -> Form:
    """S_{2k-1}(B), the transgression form, in order-0 jet coordinates."""
    return homotopy(cs)


def cs_lagrangian(cs: CSData) -> Form:
    """Horizontal projection of the CS form: the Lagrangian density form on J1."""
    return horizontal_projection(cs_form(cs), cs.ctx)


def _interp_curvature_horizontal(cs: CSData) -> list:
    """The displayed first-order coefficients: t a^r_{lam;mu} + (1-t) dB, built
    directly from jet coordinates rather than through h0 (cross-check route)."""
    ctx = cs.ctx
    m = cs.algebra.dim
    # t a^r_{lam;mu} never cancels, so no coefficient is zero
    linear = []
    for r in range(m):
        acc: dict = {}
        for lam in range(cs.n):
            for mu in range(cs.n):
                coeff = Form(ctx, 1, {(x(lam),): cs.interp_poly(r, mu, (lam,))})
                wedge_into(acc, coeff, Form.generator(ctx, x(mu)))
        linear.append(_wrap(ctx, 2, acc))
    return _curvature(cs, linear, [cs.interp_one_form(r) for r in range(m)])


def cs_lagrangian_direct(cs: CSData) -> Form:
    """Independent construction of the horizontal CS Lagrangian via the
    explicit first-order formula; must agree with cs_lagrangian exactly."""
    return homotopy(cs, curv=_interp_curvature_horizontal(cs))
