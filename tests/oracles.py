"""Test-only oracles on Poly, written as free functions over its term dicts.

They use only Poly's public ring operations, so they check the library's
calculus (gradient, chain rule, total derivatives) from outside.  The form
oracles below sum Poly coefficients one `+` at a time, key by key, where the
library sums raw term dicts in place.  The last section builds sigma by the
pullback route of the fiberwise scaling homotopy, against which the
closed-form descent route of the library is tested.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from jetvar import forms
from jetvar.chern_simons import (_multinomial, _slot_contraction,
                                 background_curvature, cs_form)
from jetvar.errors import JetvarError, NonzeroResidual
from jetvar.forms import Form, _merge_tuples
from jetvar.indets import T, conn, gauge
from jetvar.jets import horizontal_projection
from jetvar.polynomial import Poly


def partial(p: Poly, v: tuple) -> Poly:
    """Formal partial derivative d/dv; every other indeterminate is a constant."""
    out = Poly.zero()
    for m, c in p.terms.items():
        for i, (w, e) in enumerate(m):
            if w == v:
                term = Poly.const(c * e)
                for u, k in m[:i] + ((w, e - 1),) + m[i + 1:]:
                    term = term * Poly.var(u, k)
                out = out + term
    return out


def evaluate(p: Poly, point: dict) -> Fraction:
    """Exact value at a rational point: point maps each indeterminate to a
    rational."""
    total = Fraction(0)
    for m, c in p.terms.items():
        val = c
        for v, e in m:
            val *= point[v] ** e
        total += val
    return total


# -- forms, summed one Poly at a time ------------------------------------


def _accumulate(terms: dict, key: tuple, p: Poly):
    """terms[key] += p, dropping the key when the sum is zero."""
    s = terms.get(key)
    s = p if s is None else s + p
    if s:
        terms[key] = s
    elif key in terms:
        del terms[key]


def add_forms(a: Form, b: Form) -> Form:
    """a + b."""
    a._check(b)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.degree != b.degree:
        raise JetvarError("degree mismatch in form addition")
    out = dict(a.terms)
    for dcs, p in b.terms.items():
        _accumulate(out, dcs, p)
    return Form(a.chart, a.degree, out)


def wedge(a: Form, b: Form) -> Form:
    a._check(b)
    out: dict = {}
    for ta, fa in a.terms.items():
        for tb, fb in b.terms.items():
            merged = _merge_tuples(ta, tb)
            if merged is None:
                continue
            dcs, sign = merged
            _accumulate(out, dcs, fa * fb if sign > 0 else -(fa * fb))
    return Form(a.chart, a.degree + b.degree, out)


def contract(X: dict, a: Form) -> Form:
    """Interior product with the vector field of components X: coord -> Poly."""
    if a.degree == 0:
        return Form.zero(a.chart, 0)
    out = Form.zero(a.chart, a.degree - 1)
    for dcs, f in a.terms.items():
        for j, c in enumerate(dcs):
            comp = X.get(c)
            if not comp:
                continue
            p = comp * f
            if j & 1:
                p = -p
            _accumulate(out.terms, dcs[:j] + dcs[j + 1:], p)
    return out


def map_generators(a: Form, image, coeff=None) -> Form:
    """f dc1 ^ ... ^ dcp -> coeff(f) image(c1) ^ ... ^ image(cp)."""
    images: dict = {}
    out: dict = {}
    for dcs, f in a.terms.items():
        if coeff is not None:
            f = coeff(f)
        img = None
        for c in dcs:
            ic = images.get(c)
            if ic is None:
                ic = images[c] = image(c)
            img = ic if img is None else wedge(img, ic)
            if img.is_zero():
                break
        if img is None:
            _accumulate(out, dcs, f)
        else:
            for key, g in img.terms.items():
                _accumulate(out, key, f * g)
    return Form(a.chart, a.degree, out)


def invariant_contraction(cs, factors: list) -> Form:
    """b_{r1..rk} factors^{r1} ^ ... ^ factors^{rk} summed over ordered index
    tuples, with multiset enumeration and multinomial weights (all factors
    are even)."""
    out = Form.zero(cs.ctx.chart, 2 * cs.k)
    for idx in combinations_with_replacement(range(cs.algebra.dim), cs.k):
        bval = cs.b.value(idx)
        if not bval:
            continue
        term = factors[idx[0]]
        for i in idx[1:]:
            term = wedge(term, factors[i])
        out = add_forms(out, term.scale(bval * _multinomial(idx)))
    return out


# -- sigma by the pullback route of the fiber homotopy --------------------


class NotClosed(JetvarError):
    """The homotopy operator was handed a form with nonzero exterior derivative."""


def homotopy_operator(a: Form, cs) -> Form:
    """H a, unchecked: the pullback along a -> ta + (1-t)B, contracted by
    d/dt and integrated over t in [0, 1]."""
    bindings = {conn(r, mu): cs.interp_poly(r, mu)
                for r in range(cs.algebra.dim) for mu in range(cs.n)}
    pulled = forms.pullback(a, bindings)
    return forms.contract({T: Poly.const(1)}, pulled).map_coefficients(
        lambda p: p.integrate_t())


def fiber_homotopy(omega: Form, cs) -> Form:
    """Primitive psi with d(psi) = omega, via the fiberwise scaling homotopy
    centered at the background section a = B.

    Raises NotClosed when d(omega) != 0 and NonzeroResidual when the homotopy
    leaves a boundary piece (omega restricted to the section is nonzero)."""
    if not forms.exterior_d(omega).is_zero():
        raise NotClosed("fiber_homotopy needs a closed form")
    psi = homotopy_operator(omega, cs)
    residual = omega - forms.exterior_d(psi)
    if not residual.is_zero():
        raise NonzeroResidual(
            f"homotopy residual has {residual.term_count()} terms: {residual}")
    return psi


def gauge_head(cs, params: list | None = None) -> list:
    """k xi^r as 0-forms: the head slot of the descent primitive."""
    xi = [Poly.var(gauge(r)) for r in range(cs.algebra.dim)] \
        if params is None else params
    return [Form.from_poly(cs.ctx.chart, p * cs.k) for p in xi]


def section_correction(cs, params: list | None = None) -> Form:
    """chi = k b_{r1..rk} xi^{r1} F_B^{r2} ^ ... ^ F_B^{rk}.

    d(chi) equals the restriction of xi_C . P_2k(F) to the background
    section (Bianchi plus ad-invariance), the boundary piece the scaling
    homotopy cannot see.  Vanishes identically for B = 0."""
    if cs.background == "zero":
        return Form.zero(cs.ctx.chart, 2 * cs.k - 2)
    return _slot_contraction(cs, [gauge_head(cs, params)],
                             background_curvature(cs))


def sigma_boundary_term(cs, xi_C: dict, params: list | None = None,
                        S: Form | None = None) -> Form:
    """h0(fiber_homotopy(xi_C . dS - d chi) + chi + xi_C . S), unverified."""
    if S is None:
        S = cs_form(cs)
    chi = section_correction(cs, params)
    omega = forms.contract(xi_C, forms.exterior_d(S))
    psi = fiber_homotopy(omega - forms.exterior_d(chi), cs) + chi
    return horizontal_projection(psi + forms.contract(xi_C, S), cs.ctx)
