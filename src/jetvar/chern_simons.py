"""Canonical curvature, characteristic forms, the transgression form with a
background section, and the resulting first-order Lagrangian.

Every form built from a CSData is held scale times its value, for the int
cs.scale = N: P(F), P(F_B), S, dS, the descent primitive psi, the homotopy
eta, and downstream (see variational) sigma, L, J, the Euler-Lagrange
components and every residual.  Each is linear in the invariant
polynomial, so it is zero exactly when N times it is, with the same terms.
N is the least common denominator of h * b times lcm(1, ..., 2k-1), which
makes every weight of a slot sum an int, so nothing here divides: a rational
h or tensor costs what an integral one does.  N depends only on h * b and
k, so the two backgrounds of one model share it.  Outside data mixed with
these forms is scaled by N, and only printed coefficients are divided by N
(Poly.render's den).
"""

from __future__ import annotations

from itertools import permutations
from math import comb, lcm

from .algebra import (InvariantTensor, LieAlgebraData, _multinomial,
                      check_invariant_tensor)
from .errors import JetvarError
from .forms import (Form, _wrap, add_into, exterior_d, linear_combination,
                    wedge, wedge_into)
from .indets import bg, conn, x
from .jets import JetContext, horizontal_projection
from .polynomial import Poly, Q, _as_q

__all__ = ["CSData", "characteristic_form", "characteristic_at_B",
           "homotopy", "cs_form", "cs_lagrangian"]


class CSData:
    """Inputs of one CS model: algebra, degree-k invariant tensor, background.

    k is the tensor's degree, and the base dimension is pinned to 2k-1;
    the jet context ctx is built from it, the algebra's dimension and
    matter_dim, the number of matter fields beside the connection.  h is an
    overall constant multiple on the invariant polynomial (the
    characteristic form gets h * b).  The ad-invariance residual of b is
    computed here and kept for reporting; construction proceeds either way
    so a bad tensor surfaces as a FAIL in the gauge-invariance check rather
    than an exception.
    """

    def __init__(self, algebra: LieAlgebraData, invariant: InvariantTensor,
                 background: str = "symbolic", h=1, matter_dim: int = 0):
        k = invariant.degree
        if k < 2:
            raise JetvarError("CS degree k must be >= 2")
        if background not in ("zero", "symbolic"):
            raise JetvarError(f"unknown background {background!r}")
        for idx in invariant.entries:
            if not all(0 <= i < algebra.dim for i in idx):
                raise JetvarError(f"invariant tensor entry {idx} has an "
                                  f"index out of range 0..{algebra.dim - 1}")
        self.algebra = algebra
        self.k = k
        self.n = 2 * k - 1
        self.background = background
        self.h = Q(_as_q(h))
        self.invariant = invariant   # as given, before the scaling by h
        self.b = invariant.scaled(self.h)
        # the int N that every form built from this model is N times its
        # value (see the module docstring)
        self.scale = (lcm(*(v.denominator for v in self.b.entries.values()))
                      * _beta_scale(k))
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

    def one_form(self, r: int, a=1, b=0) -> Form:
        """(a a^r_mu + b B^r_mu) dx^mu for numbers or Polys a and b, with
        B = 0 at the zero background: a^r at the defaults, B^r at (0, 1)
        and a^r - B^r, the direction of the homotopy from B to a, at
        (1, -1)."""
        if self.background == "zero":
            b = 0
        terms = {}
        for mu in range(self.n):
            p = Poly.var(conn(r, mu)) * a if a else Poly.zero()
            if b:
                p = p + Poly.var(bg(r, mu)) * b
            if p:
                terms[(x(mu),)] = p
        return Form(self.ctx, terms)


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
    return {r: _wrap(cs.ctx, acc) for r, acc in accs.items()}


def _F(cs: CSData) -> dict:
    """r -> F^r = da^r_mu ^ dx^mu + 1/2 c^r_pq a^p_lam a^q_mu dx^lam ^ dx^mu,
    the canonical curvature, at each index r of b; built once per CSData."""
    return cs._memo(("F",), lambda: _curvature(
        cs, lambda r: exterior_d(cs.one_form(r)), cs.one_form))


def _FB(cs: CSData) -> dict:
    """r -> F_B^r = dB^r + 1/2 c^r_pq B^p ^ B^q, the background curvature as
    a 2-form on X, at each index r of b; built once per CSData."""
    def B(r):
        return cs.one_form(r, 0, 1)
    return cs._memo(("F_B",), lambda: _curvature(
        cs, lambda r: exterior_d(B(r)), B))


def _leads(cs: CSData, j: int) -> dict:
    """The nonzero entries of b indexed by lead, built once per CSData and j:
    r -> the sorted (lead, [(rest, weight), ...]) pairs whose lead starts
    with r.  Each distinct ordering of j of an entry's indices is a lead,
    the remaining indices are the multiset of curvature slots, and weight is
    the entry times cs.scale / lcm(1, ..., 2k-1), the tensor's least common
    denominator: an int."""
    def build():
        den = cs.scale // _beta_scale(cs.k)
        by_lead: dict = {}
        for idx, bval in cs.b.entries.items():
            weight = (bval * den).numerator
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


def _t_free(curv: dict) -> dict:
    """The pieces of a curvature that does not depend on t: r -> the one
    piece (0, 0, curv^r)."""
    return {r: ((0, 0, f),) for r, f in curv.items()}


def _beta_scale(k: int) -> int:
    """lcm(1, ..., 2k-1), the factor of a model's scale that makes its Beta
    weights ints (see _beta_weights)."""
    return lcm(*range(1, 2 * k))


def _beta_weights(pieces: dict, slots: int, k: int) -> dict:
    """weights[A, B] = M * A! B! / (A+B+1)! for M = _beta_scale(k), which
    is M times the integral of t^A (1-t)^B over [0, 1], at each (A, B) that
    the picks of slots pieces can sum to.  That integral is
    1 / ((A+B+1) C(A+B, A)), and (n+1) times the lcm of the binomials
    C(n, .) is lcm(1, ..., n+1), so the weight is an int whenever
    A+B+1 <= 2k-1: a piece is at most quadratic in t, and a slot sum of
    the model has at most k-1 curvature slots."""
    steps = {(alpha, beta) for choices in pieces.values()
             for alpha, beta, _ in choices}
    sums = {(0, 0)}
    for _ in range(slots):
        sums = {(A + alpha, B + beta) for A, B in sums for alpha, beta in steps}
    M = _beta_scale(k)
    weights = {}
    for A, B in sums:
        weights[A, B], r = divmod(M, (A + B + 1) * comb(A + B, A))
        assert r == 0, f"the Beta weight of t^{A} (1-t)^{B} is not an int"
    return weights


def _walk_slots(acc: dict, pieces: dict, weights: dict, term: Form,
                rest: tuple, picks: tuple, A: int, B: int, weight: int):
    """Add into acc the wedges of term with the curvature slot len(picks)
    of rest and those after it, for the picks made so far of weight
    t^A (1-t)^B (see _slot_contraction)."""
    i = rest[len(picks)]
    least = picks[-1] if picks and rest[len(picks) - 1] == i else 0
    last = len(picks) + 1 == len(rest)
    choices = pieces[i]
    for s in range(least, len(choices)):
        alpha, beta, f = choices[s]
        if f.is_zero():
            continue
        if last:
            count = _multinomial(tuple(zip(rest, picks + (s,))))
            wedge_into(acc, term, f,
                       weight * count * weights[A + alpha, B + beta])
        else:
            prefix = wedge(term, f)
            if not prefix.is_zero():
                _walk_slots(acc, pieces, weights, prefix, rest, picks + (s,),
                            A + alpha, B + beta, weight)


def _slot_contraction(cs: CSData, heads: list, pieces: dict) -> Form:
    """The integral over t in [0, 1] of b_{r1..rk} heads[0]^{r1} ^ ... ^
    heads[j-1]^{rj} ^ F^{r(j+1)}(t) ^ ... ^ F^{rk}(t), summed over ordered
    tuples, for F^r(t) = sum t^alpha (1-t)^beta form over the pieces
    (alpha, beta, form) of pieces[r], times cs.scale: each head maps an
    algebra index to a form, an index a head lacks adds nothing, and
    pieces holds every index of b.  A curvature that does not depend on t
    is the one piece (0, 0, F^r) (see _t_free).

    Each curvature slot picks a piece, and the picks sum to the weight
    t^A (1-t)^B of the product.  The even curvature slots commute, so in a
    run of equal curvature indices the picks are taken in nondecreasing
    order and counted by the multinomial of the (index, pick) pairs.  Each
    product is added with the int weight M A! B! / (A+B+1)! of
    _beta_weights times the int weight of its lead (see _leads), whose
    product is cs.scale times the real weight, so the kernel multiplies
    ints only.  Only the leads of the nonzero entries of b whose first
    index heads[0] holds are walked, so a sparse first head costs only its
    own leads.  The head of each lead is wedged once, a wedge prefix is
    shared by the picks that extend it, and the last curvature factor of
    each term is wedged straight into the accumulator (see _walk_slots)."""
    index = _leads(cs, len(heads))
    weights = _beta_weights(pieces, cs.k - len(heads), cs.k)
    acc: dict = {}
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
                    _walk_slots(acc, pieces, weights, head, rest, (), 0, 0,
                                weight)
                else:
                    add_into(acc, head, weight * weights[0, 0])
    return _wrap(cs.ctx, acc)


def characteristic_form(cs: CSData) -> Form:
    """P_2k(F) = b_{r1..rk} F^{r1} ^ ... ^ F^{rk}, times cs.scale; closed and
    gauge-invariant when b is ad-invariant."""
    F = _F(cs)
    return _slot_contraction(cs, [F], _t_free(F))


def characteristic_at_B(cs: CSData) -> Form:
    """P_2k(F_B), the characteristic form pulled back along the background
    section, times cs.scale.  Pull-back commutes with wedge and d and takes F^r to F_B^r
    (naturality of characteristic forms), so this is the slot contraction
    of the background curvature."""
    FB = _FB(cs)
    return _slot_contraction(cs, [FB], _t_free(FB))


def _t_pieces(cs: CSData) -> dict:
    """r -> the three pieces (alpha, beta, form) of the curvature of B + tD,
    F^r(t) = sum t^alpha (1-t)^beta form, at each index r of b; built once
    per CSData.  With D = a - B, nabla_B D = dD + sum_{p<q} c^r_pq
    (B^p ^ D^q + D^p ^ B^q) and H = sum_{p<q} c^r_pq D^p ^ D^q, F(t) is
    written in one of two bases:

        power      F_B + t nabla_B D + t^2 H,
        Bernstein  (1-t)^2 F_B + t(1-t) (2 F_B + nabla_B D) + t^2 F,

    equal since nabla_B D = F - F_B - H.  Each index keeps the basis whose
    pieces hold fewer terms, the power basis on a tie: a non-abelian index
    at a symbolic background takes the Bernstein pieces, an abelian index
    (H = 0) or the zero background (F_B = 0) the power pieces."""
    def build():
        FB, F = _FB(cs), _F(cs)
        H = _curvature(cs, lambda r: Form.zero(cs.ctx),
                       lambda r: cs.one_form(r, 1, -1))
        pieces = {}
        for r in cs.indices:
            nabla = linear_combination(cs.ctx, ((F[r], 1), (FB[r], -1),
                                               (H[r], -1)))
            power = ((0, 0, FB[r]), (1, 0, nabla), (2, 0, H[r]))
            if H[r].is_zero():
                # F = F_B + nabla_B D, so each term of nabla_B D is one of
                # 2 F_B + nabla_B D or of F: the power pieces win or tie
                pieces[r] = power
                continue
            mid = linear_combination(cs.ctx, ((FB[r], 2), (nabla, 1)))
            pieces[r] = min(power, ((0, 2, FB[r]), (1, 1, mid), (2, 0, F[r])),
                            key=lambda choices: sum(f.term_count()
                                                    for _, _, f in choices))
        return pieces

    return cs._memo(("F_t",), build)


def _a_minus_B(cs: CSData, j: int) -> dict:
    """r -> (k - j)(a^r - B^r), the last slot of homotopy after j heads, at
    each index r of b; built once per CSData and j."""
    return cs._memo(("a-B", j), lambda: {
        r: cs.one_form(r, 1, -1).scale(cs.k - j) for r in cs.indices})


def homotopy(cs: CSData, heads: list = ()) -> Form:
    """(k-j) * integral over t in [0,1] of b_{r1..rk} heads^{r1} ^ ... ^
    heads^{rj} ^ (a-B)^{r(j+1)} ^ F^{r(j+2)}(t) ^ ... ^ F^{rk}(t), with F(t)
    the curvature of ta + (1-t)B, times cs.scale.

    This is the fiber homotopy H centred at a = B, the pullback along
    a -> ta + (1-t)B contracted by d/dt and integrated, applied to
    b(heads, F, ..., F) for heads that do not depend on a.  With no heads
    it is the transgression form.  The integral is taken in closed form:
    each index writes F(t) in the power or the Bernstein basis of t,
    whichever holds fewer terms (see _t_pieces), so each choice of pieces fixes a
    weight t^A (1-t)^B, integrated as the Beta integral A! B! / (A+B+1)!
    (the homotopy formula of Chern & Simons, "Characteristic forms and
    geometric invariants", 1974)."""
    # the factor (k-j) goes on the small one-forms a-B, not on the result
    return _slot_contraction(cs, [*heads, _a_minus_B(cs, len(heads))],
                             _t_pieces(cs))


def cs_form(cs: CSData) -> Form:
    """S_{2k-1}(B), the transgression form, in order-0 jet coordinates,
    times cs.scale."""
    return homotopy(cs)


def _S(cs: CSData) -> Form:
    """cs_form(cs), built once per CSData."""
    return cs._memo(("S",), lambda: cs_form(cs))


def _dS(cs: CSData) -> Form:
    """d S, built once per CSData."""
    return cs._memo(("dS",), lambda: exterior_d(_S(cs)))


def cs_lagrangian(cs: CSData) -> Form:
    """Horizontal projection of the CS form: the Lagrangian density form on
    J1, times cs.scale.  It reads S from cs when cs already holds it, and otherwise builds S for
    this call alone, so a command that never reads S again does not keep it
    while L, its gradient and its Euler-Lagrange components are built."""
    S = cs._shared.get(("S",))
    return horizontal_projection(cs_form(cs) if S is None else S)
