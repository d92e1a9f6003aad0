"""Canonical curvature, characteristic forms, the transgression form with a
background section, and the resulting first-order Lagrangian."""

from __future__ import annotations

from itertools import permutations
from math import lcm

from .algebra import (InvariantTensor, LieAlgebraData, _multinomial,
                      check_invariant_tensor)
from .errors import JetvarError
from .forms import (Form, _wrap, add_into, exterior_d, linear_combination,
                    wedge, wedge_into)
from .indets import bg, conn, x
from .jets import JetContext, horizontal_projection
from .polynomial import Poly, Q

__all__ = ["CSData", "canonical_curvature", "characteristic_form",
           "characteristic_at_B", "background_curvature", "homotopy",
           "cs_form", "cs_lagrangian"]


class CSData:
    """Inputs of one CS model: algebra, degree-k invariant tensor, background.

    base dimension is pinned to 2k-1, and the jet context ctx is built from
    it, the algebra's dimension and matter_dim, the number of matter fields
    beside the connection.  h is an overall constant multiple on
    the invariant polynomial (the characteristic form gets h * b).  The
    ad-invariance residual of b is computed here and kept for reporting;
    construction proceeds either way so a bad tensor surfaces as a FAIL in
    the gauge-invariance check rather than an exception.
    """

    def __init__(self, algebra: LieAlgebraData, invariant: InvariantTensor,
                 k: int, background: str = "symbolic", h=1,
                 matter_dim: int = 0):
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
        self.invariant = invariant   # as given, before the scaling by h
        self.b = invariant.scaled(self.h)
        # the least common denominator of the values of b
        self.den = lcm(*(v.denominator for v in self.b.entries.values()))
        self.invariance_residual = check_invariant_tensor(algebra, invariant)
        self.ctx = JetContext(self.n, algebra.dim, matter_dim)
        # the algebra indices that occur in b: a slot contraction reads the
        # per-index forms at these indices only, so only these are built
        self.indices = sorted({i for idx in self.b.entries for i in idx})
        self._shared: dict = {}

    def _memo(self, key, build):
        """build(), computed on the first call with key and then kept: model
        data that every call on this CSData shares."""
        value = self._shared.get(key)
        if value is None:
            value = self._shared[key] = build()
        return value

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

    def difference_one_form(self, r: int) -> Form:
        """D^r = a^r - B^r, the direction of the homotopy B + tD from B to a."""
        return self.potential_one_form(r) - self.background_one_form(r)

    def _one_form(self, r: int, coeff) -> Form:
        terms = {}
        for mu in range(self.n):
            p = coeff(r, mu)
            if p:
                terms[(x(mu),)] = p
        return Form(self.ctx, 1, terms)


def _curvature(cs: CSData, linear, one) -> dict:
    """r -> F^r = linear(r) + 1/2 c^r_pq X^p ^ X^q for the 1-forms X^p =
    one(p), at each index r of b.  c is antisymmetric (validated at load)
    and so is the wedge of 1-forms, so the sum runs over p < q with weight
    c^r_pq; each X^p is built once, and only when some F^r reads it."""
    ones: dict = {}
    accs = {r: add_into({}, linear(r)) for r in cs.indices}
    for (r, p, q), cval in cs.algebra.c.items():
        if p < q and r in accs:
            for i in (p, q):
                if i not in ones:
                    ones[i] = one(i)
            wedge_into(accs[r], ones[p], ones[q], cval)
    return {r: _wrap(cs.ctx, 2, acc) for r, acc in accs.items()}


def canonical_curvature(cs: CSData) -> dict:
    """r -> F^r = da^r_mu ^ dx^mu + 1/2 c^r_pq a^p_lam a^q_mu dx^lam ^ dx^mu,
    at each index r of b."""
    return _curvature(cs, lambda r: exterior_d(cs.potential_one_form(r)),
                      cs.potential_one_form)


def background_curvature(cs: CSData) -> dict:
    """r -> F_B^r as a 2-form on X: dB^r + 1/2 c^r_pq B^p B^q, at each index
    r of b."""
    return _curvature(cs, lambda r: exterior_d(cs.background_one_form(r)),
                      cs.background_one_form)


def _F(cs: CSData) -> dict:
    """canonical_curvature(cs), built once per CSData."""
    return cs._memo(("F",), lambda: canonical_curvature(cs))


def _FB(cs: CSData) -> dict:
    """background_curvature(cs), built once per CSData."""
    return cs._memo(("F_B",), lambda: background_curvature(cs))


def _leads(cs: CSData, j: int) -> dict:
    """The nonzero entries of b indexed by lead, built once per CSData and j:
    r -> the sorted (lead, [(rest, weight), ...]) pairs whose lead starts
    with r.  Each distinct ordering of j of an entry's indices is a lead,
    the remaining indices are the multiset of curvature slots, and weight is
    cs.den times the entry: an int."""
    def build():
        by_lead: dict = {}
        for idx, bval in cs.b.entries.items():
            weight = (bval * cs.den).numerator
            for lead in set(permutations(idx, j)):
                rest = list(idx)
                for r in lead:
                    rest.remove(r)
                by_lead.setdefault(lead, []).append((tuple(rest), weight))
        index: dict = {}
        for lead in sorted(by_lead):
            index.setdefault(lead[0], []).append((lead, sorted(by_lead[lead])))
        return index

    return cs._memo(("leads", j), build)


def _slot_sum(cs: CSData, heads: list, *pieces: dict) -> tuple:
    """(acc, den, degree): den times the slot contraction below, as an
    accumulator (see forms), and its degree, for the curvature
    F(t) = sum_s t^s pieces[s] integrated over t in [0, 1]; one piece is a
    curvature that does not depend on t.

    Each curvature slot picks a piece s, and the picks fix the power p of
    t.  In a run of equal curvature indices the 2-forms commute, so there
    the picks are taken in nondecreasing order and counted by the
    multinomial of the (index, pick) pairs.  Each product is added with the
    int weight N/(p+1), N = lcm(1, ..., P+1) for the highest power P, and
    den = N * cs.den, so that every weight is an int and the kernel
    multiplies ints only.  Only the leads of the nonzero entries of b whose
    first index heads[0] holds are walked, so a sparse first head costs
    only its own leads.  The head of each lead is wedged once, a wedge
    prefix is shared by the picks that extend it, and the last curvature
    factor of each term is wedged straight into acc."""
    index = _leads(cs, len(heads))
    top = (len(pieces) - 1) * (cs.k - len(heads))
    N = lcm(*range(1, top + 2))
    acc: dict = {}

    def walk(term: Form, rest: tuple, picks: tuple, weight: int):
        # wedge the curvature slot len(picks) of rest, and those after it
        i = rest[len(picks)]
        least = picks[-1] if picks and rest[len(picks) - 1] == i else 0
        last = len(picks) + 1 == len(rest)
        for s in range(least, len(pieces)):
            f = pieces[s][i]
            if f.is_zero():
                continue
            if last:
                count = _multinomial(tuple(zip(rest, picks + (s,))))
                wedge_into(acc, term, f,
                           weight * count * (N // (sum(picks) + s + 1)))
            else:
                prefix = wedge(term, f)
                if not prefix.is_zero():
                    walk(prefix, rest, picks + (s,), weight)

    for first in sorted(index.keys() & heads[0].keys()):
        for lead, rests in index[first]:
            factors = [h.get(r) for h, r in zip(heads, lead)]
            if any(f is None or f.is_zero() for f in factors):
                continue
            head = factors[0]
            for f in factors[1:]:
                head = wedge(head, f)
            for rest, weight in rests:
                if rest:
                    walk(head, rest, (), weight)
                else:
                    add_into(acc, head, weight)
    # the forms of one head share a degree; an empty head adds nothing, and
    # counts as degree 0
    degree = sum(next((f.degree for f in h.values()), 0) for h in heads)
    return acc, N * cs.den, degree + 2 * (cs.k - len(heads))


def _slot_contraction(cs: CSData, heads: list, *pieces: dict) -> Form:
    """The integral over t in [0, 1] of b_{r1..rk} heads[0]^{r1} ^ ... ^
    heads[j-1]^{rj} ^ F^{r(j+1)}(t) ^ ... ^ F^{rk}(t), summed over ordered
    tuples, for F(t) = sum_s t^s pieces[s]: each head and piece map an
    algebra index to a form, an index a head lacks adds nothing, and each
    piece holds every index of b.  The even curvature slots commute and are
    enumerated as multisets with multinomial weights (see _slot_sum)."""
    acc, den, degree = _slot_sum(cs, heads, *pieces)
    return _wrap(cs.ctx, degree, acc, den)


def characteristic_form(cs: CSData) -> Form:
    """P_2k(F) = b_{r1..rk} F^{r1} ^ ... ^ F^{rk}; closed and gauge-invariant
    when b is ad-invariant."""
    F = _F(cs)
    return _slot_contraction(cs, [F], F)


def characteristic_at_B(cs: CSData) -> Form:
    """P_2k(F_B), the characteristic form pulled back along the background
    section.  Pull-back commutes with wedge and d and takes F^r to F_B^r
    (naturality of characteristic forms), so this is the slot contraction
    of the background curvature."""
    FB = _FB(cs)
    return _slot_contraction(cs, [FB], FB)


def _t_pieces(cs: CSData) -> tuple:
    """(F_B, nabla_B D, H), built once per CSData: with D = a - B, the
    curvature of B + tD is F(t) = F_B + t nabla_B D + t^2 H, where
    nabla_B D = dD + sum_{p<q} c^r_pq (B^p ^ D^q + D^p ^ B^q) and
    H = sum_{p<q} c^r_pq D^p ^ D^q, each r -> 2-form at the indices of b.
    At t = 1 it is the canonical curvature F, so nabla_B D = F - F_B - H."""
    def build():
        FB, F = _FB(cs), _F(cs)
        H = _curvature(cs, lambda r: Form.zero(cs.ctx, 2),
                       cs.difference_one_form)
        nabla = {r: linear_combination(cs.ctx, 2, ((F[r], 1), (FB[r], -1),
                                                   (H[r], -1)))
                 for r in cs.indices}
        return FB, nabla, H

    return cs._memo(("F_t",), build)


def _a_minus_B(cs: CSData, j: int) -> dict:
    """r -> (k - j)(a^r - B^r), the last slot of homotopy after j heads, at
    each index r of b; built once per CSData and j."""
    return cs._memo(("a-B", j), lambda: {
        r: cs.difference_one_form(r).scale(cs.k - j) for r in cs.indices})


def homotopy(cs: CSData, heads: list = ()) -> Form:
    """(k-j) * integral over t in [0,1] of b_{r1..rk} heads^{r1} ^ ... ^
    heads^{rj} ^ (a-B)^{r(j+1)} ^ F^{r(j+2)}(t) ^ ... ^ F^{rk}(t), with F(t)
    the curvature of ta + (1-t)B.

    This is the fiber homotopy H centred at a = B, the pullback along
    a -> ta + (1-t)B contracted by d/dt and integrated, applied to
    b(heads, F, ..., F) for heads that do not depend on a.  With no heads
    it is the transgression form.  The integral is taken in closed form:
    F(t) = F_B + t nabla_B D + t^2 H (see _t_pieces), so each choice of
    pieces fixes the power of t (the homotopy formula of Chern & Simons,
    "Characteristic forms and geometric invariants", 1974)."""
    # the factor (k-j) goes on the small one-forms a-B, not on the result
    return _slot_contraction(cs, [*heads, _a_minus_B(cs, len(heads))],
                             *_t_pieces(cs))


def cs_form(cs: CSData) -> Form:
    """S_{2k-1}(B), the transgression form, in order-0 jet coordinates."""
    return homotopy(cs)


def _S(cs: CSData) -> Form:
    """cs_form(cs), built once per CSData."""
    return cs._memo(("S",), lambda: cs_form(cs))


def _dS(cs: CSData) -> Form:
    """d S, built once per CSData."""
    return cs._memo(("dS",), lambda: exterior_d(_S(cs)))


def cs_lagrangian(cs: CSData) -> Form:
    """Horizontal projection of the CS form: the Lagrangian density form on J1."""
    return horizontal_projection(_S(cs))
