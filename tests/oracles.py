"""Test-only oracles on Poly, written as free functions over its term dicts.

They use only Poly's public ring operations, so they check the library's
calculus (gradient, chain rule, total derivatives) from outside.  The form
oracles below sum Poly coefficients one `+` at a time, key by key, where the
library sums raw term dicts in place.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from jetvar.chern_simons import _multinomial
from jetvar.errors import JetvarError
from jetvar.forms import Form, _merge_tuples
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
