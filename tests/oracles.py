"""Test-only oracles on Poly, written as free functions over its term dicts.

They read a monomial only through decode_monomial and otherwise use only
Poly's public ring operations, so they check the library's calculus
(gradient, chain rule, total derivatives) from outside.  decode_monomial
and its inverse encode_terms live here, as no library path decodes a
monomial to pairs.  So does the eager ranking of serialization order, which
keyed every monomial before the first was printed: the oracle of the
library's stream, which keys a group of monomials only when it is read.
The term kernel keyed by (indeterminate, exponent) pair tuples, which the
multiset-id kernel of polynomial.py replaced, is kept here as the oracle of
that kernel, and so is the t-integrand route of the fiber homotopy (the
interpolated curvature as one t-polynomial, each coefficient integrated
term by term), the oracle of the library's closed-form t-integral.
Prolongation of vertical fields lives here only, one total derivative at a
time: the Lie derivative of a Lagrangian along the prolongation J1 u is the
prolonged field applied as a derivation to the density's gradient, where
the library forms d_lam u^i only for the first-order partials that the
density has.  Likewise the
Euler-Lagrange operator, the Poincare-Cartan form and Noether currents probe
every (coordinate, direction) pair for a first-order partial, where the
library visits the partials the density has.  The form oracles below sum
Poly coefficients one `+` at a time, key by key, where the library sums raw
term dicts in place.  The pullback of forms along a substitution lives here
only: the library builds P(F_B) and the fiber homotopy in closed form, and
the last section builds sigma by the pullback route of the fiberwise scaling
homotopy, against which the closed-form descent route of the library is
tested.  The section after it runs sigma and the conservation law on the
whole gauge generator at once, where the library runs them one gauge
component at a time, and folds the library's components into one residual
and one current, where the CLI keeps of each component only the terms it
prints; the one-shot run works on the library's scaled forms and returns
them as the library holds them.  The dense algebra loops near the end run over every index,
where the library sums over nonzero structure constants and nonzero tensor
entries only and builds per-index forms only at the indices of the invariant
tensor.  The last section holds random polynomials built by Poly arithmetic
(the library builds the same ones as term dicts), random forms and the
hand-expanded 3D displays of the CS density, its Lie derivative and its
Noether current, which only the tests compare against.

The oracles of a CS model give each form's value, where the library holds
cs.scale times it (see chern_simons): unscaled() divides a library result
by the scale.  The t-integrand route and the dense slot sum divide by their
own denominators, so they share no scaling code with the library; sigma by
the pullback route runs on the library's slot contractions divided by the
scale, and sigma in one shot on the slot contractions as the library holds
them, returning cs.scale times its results as the library does.
"""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from heapq import nsmallest
from itertools import combinations_with_replacement, product
from math import lcm

from jetvar import algebra, forms, polynomial
from jetvar.chern_simons import (_a_minus_B, _curvature, _multinomial,
                                 _slot_contraction, _t_free,
                                 background_curvature, canonical_curvature,
                                 cs_form, homotopy)
from jetvar.errors import (AntisymmetryViolation, JacobiViolation, JetvarError,
                           NonzeroResidual, SigmaMismatch)
from jetvar.forms import (Form, _merge_tuples, _wrap, add_into, exterior_d,
                          wedge_into)
from jetvar.indets import (T, conn, gauge, indet_str, matter, with_extra_deriv,
                           x)
from jetvar.jets import (contact_form, horizontal_differential,
                         horizontal_projection, total_derivative)
from jetvar.polynomial import _INDETS, _T, Poly, Q, _exact, _intern
from jetvar.random_inputs import _pool
from jetvar.reference3d import _A, _B, _XI, _xi_bracket, levi_civita
from jetvar.variational import (Lagrangian, VerificationReport,
                                conservation_check)


def decode_monomial(m: tuple) -> tuple:
    """The (indeterminate, exponent) pairs of monomial m, sorted by
    indeterminate."""
    return tuple(sorted([(_INDETS[i], m.count(i)) for i in set(m)]))


def encode_terms(terms: dict) -> dict:
    """The raw term dict of terms, keyed by tuples of (indeterminate,
    exponent) pairs with distinct indeterminates."""
    return {(*sorted(i for v, e in pairs for i in (_intern(v),) * e),): c
            for pairs, c in terms.items()}


def partial(p: Poly, v: tuple) -> Poly:
    """Formal partial derivative d/dv; every other indeterminate is a constant."""
    out = Poly.zero()
    for m, c in p.terms.items():
        pairs = decode_monomial(m)
        for i, (w, e) in enumerate(pairs):
            if w == v:
                term = Poly.const(c * e)
                for u, k in pairs[:i] + ((w, e - 1),) + pairs[i + 1:]:
                    term = term * Poly.var(u, k)
                out = out + term
    return out


def evaluate(p: Poly, point: dict) -> Fraction:
    """Exact value at a rational point: point maps each indeterminate to a
    rational."""
    total = Fraction(0)
    for m, c in p.terms.items():
        val = c
        for v, e in decode_monomial(m):
            val *= point[v] ** e
        total += val
    return total


class CyclicSubstitution(JetvarError):
    """A substitution binding's value mentions another bound indeterminate."""


def substitute(p: Poly, bindings: dict) -> Poly:
    """Simultaneous substitution indeterminate -> Poly.

    A binding value may mention its own key (one-shot replacement, e.g.
    a -> t*a) but no other bound indeterminate.
    """
    bound = set(bindings)
    for v, q in bindings.items():
        hit = (q.indets() & bound) - {v}
        if hit:
            names = ", ".join(sorted(indet_str(w) for w in hit))
            raise CyclicSubstitution(
                f"value bound to {indet_str(v)} mentions bound {names}")
    powers: dict = {}
    out = Poly.zero()
    for m, c in p.terms.items():
        term = Poly.const(c)
        for v, e in decode_monomial(m):
            pe = powers.get((v, e))
            if pe is None:
                pe = powers[(v, e)] = bindings.get(v, Poly.var(v)) ** e
            term = term * pe
        out = out + term
    return out


# -- the pair-tuple term kernel -------------------------------------------
#
# A monomial is a tuple of (indeterminate, exponent) pairs sorted by the
# natural tuple order of the indeterminates.  decode_pairs() turns a term
# dict of the library into this form.


def divided(p: Poly, den) -> Poly:
    """p / den for a nonzero rational den, term by term; a zero term of p
    is dropped."""
    return Poly({m: _exact(Fraction(c, den)) for m, c in p.terms.items() if c})


def unscaled(a, cs):
    """The value of a Form, a Poly or a dict of Polys that the model cs
    holds cs.scale times its value (see chern_simons): each divided by
    cs.scale."""
    if isinstance(a, Poly):
        return divided(a, cs.scale)
    if isinstance(a, dict):
        return {key: unscaled(p, cs) for key, p in a.items()}
    return map_coefficients(a, lambda p: divided(p, cs.scale))


def render(p: Poly) -> str:
    """The text of p, its terms sorted by decreasing degree, then by their
    decoded pairs."""
    rows = sorted(((-len(m), decode_monomial(m)), c) for m, c in p.terms.items())
    return " + ".join(
        "*".join([f"{c.numerator}/{c.denominator}"]
                 + [indet_str(v) if e == 1 else f"{indet_str(v)}^{e}"
                    for v, e in pairs])
        for (_, pairs), c in rows) or "0"


def ranked(terms: dict, limit: int | None) -> tuple:
    """(ids, k, rows): the first limit monomials of the nonempty term dict
    terms in serialization order, or all of them when limit is None, as a
    list of rows ((-degree, codes), m).  codes are the factors of m in
    print order, each the int rank * k + exponent of an indeterminate whose
    id is ids[rank].  Every monomial of the highest-degree buckets that hold
    limit terms is keyed before the first row is known."""
    shown = list(terms)
    if limit is not None and limit < len(shown):
        held = 0
        for least, n in sorted(Counter(map(len, shown)).items(), reverse=True):
            held += n
            if held >= limit:
                break
        shown = [m for m in shown if len(m) >= least]
    k = 1 + max(map(len, shown))
    ids = sorted({i for m in shown for i in m}, key=_INDETS.__getitem__)
    rank = {i: r * k for r, i in enumerate(ids)}
    rows = (((-len(m), sorted([rank[i] + m.count(i) for i in set(m)])), m)
            for m in shown)
    if limit is None or limit >= len(shown):
        rows = sorted(rows)
    else:
        rows = nsmallest(limit, rows)
    return ids, k, rows


def leading(p: Poly, limit: int) -> Poly:
    """Poly.leading by the eager ranking."""
    if len(p.terms) <= limit:
        return p
    _, _, rows = ranked(p.terms, limit)
    return Poly({m: p.terms[m] for _, m in rows})


def render_ranked(p: Poly, width: int | None = None, den: int = 1) -> str:
    """Poly.render by the eager ranking: every term is keyed and sorted
    before the first is printed."""
    if not p.terms:
        return "0"
    ids, k, rows = ranked(p.terms, None)
    parts = []
    size = -3   # the length of " + ".join(parts)
    for (_, codes), m in rows:
        c = p.terms[m] if den == 1 else Fraction(p.terms[m], den)
        parts.append("*".join(
            [f"{c.numerator}/{c.denominator}"]
            + [indet_str(_INDETS[ids[code // k]])
               + ("" if code % k == 1 else f"^{code % k}") for code in codes]))
        size += len(parts[-1]) + 3
        if width is not None and size >= width:
            break
    return " + ".join(parts)


def decode_pairs(terms: dict) -> dict:
    """A raw term dict of the library, keyed by pair tuples."""
    return {decode_monomial(m): c for m, c in terms.items()}


def mono_mul(ma: tuple, mb: tuple) -> tuple:
    """Merge two sorted monomials, adding exponents."""
    if not ma:
        return mb
    if not mb:
        return ma
    out = []
    i = j = 0
    na, nb = len(ma), len(mb)
    while i < na and j < nb:
        va, ea = ma[i]
        vb, eb = mb[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(ma[i])
            i += 1
        else:
            out.append(mb[j])
            j += 1
    out.extend(ma[i:])
    out.extend(mb[j:])
    return tuple(out)


def _add_term(out: dict, m: tuple, v):
    """out[m] += v, dropping the key when the sum is zero."""
    s = out.get(m)
    s = v if s is None else _exact(s + v)
    if s:
        out[m] = s
    else:
        del out[m]


def add_dicts(a: dict, b: dict, c=1) -> None:
    """Add c * b into the term dict a."""
    if c:
        for m, v in b.items():
            _add_term(a, m, _exact(v * c))


def mul_dicts(a: dict, b: dict, out: dict, c=1) -> None:
    """Add c * a * b into the term dict out."""
    if c:
        for ma, ca in a.items():
            for mb, cb in b.items():
                _add_term(out, mono_mul(ma, mb), _exact(ca * cb * c))


def chain_rule(terms: dict, route) -> None:
    """Add the chain rule of one term dict into caller-owned term dicts:
    route(v) lists (out, w, lift) triples, and each adds w * df/dv into
    out for the rational weight w, times the indeterminate lift unless lift
    is None."""
    for m, c in terms.items():
        for i, (v, e) in enumerate(m):
            rest = m[:i] + m[i + 1:] if e == 1 else m[:i] + ((v, e - 1),) + m[i + 1:]
            for out, w, lift in route(v):
                nm = rest
                if lift is not None:
                    j = bisect_left(rest, (lift, 1))
                    if j < len(rest) and rest[j][0] == lift:
                        nm = rest[:j] + ((lift, rest[j][1] + 1),) + rest[j + 1:]
                    else:
                        nm = rest[:j] + ((lift, 1),) + rest[j:]
                _add_term(out, nm, _exact(w * c * e))


def gradient(terms: dict) -> dict:
    """Every partial derivative of a term dict: v -> term dict of d/dv."""
    grads: dict = {}
    for m, c in terms.items():
        for i, (v, e) in enumerate(m):
            rest = m[:i] + m[i + 1:] if e == 1 else m[:i] + ((v, e - 1),) + m[i + 1:]
            grads.setdefault(v, {})[rest] = _exact(c * e)
    return grads


def integrate_t(terms: dict) -> dict:
    """The term dict of the integral over t in [0, 1]."""
    out: dict = {}
    for m, c in terms.items():
        e = dict(m).get(T, 0)
        nm = tuple(p for p in m if p[0] != T)
        _add_term(out, nm, _exact(Fraction(c, e + 1)))
    return out


# -- the t-integrand route of the fiber homotopy ----------------------------
#
# The library integrates over t in closed form, one piece of F(t) per
# curvature slot.  Here F(t) is built as one t-polynomial curvature, the
# slot sum runs over the t-polynomial integrand, and each coefficient is
# then integrated term by term.


def t_integral(p: Poly) -> Poly:
    """Exact definite integral over t in [0,1]; the result is t-free.

    t^e integrates to 1/(e+1), so each term adds the numerator
    c * N/(e+1) over the common denominator N = lcm(1, ..., e_max + 1):
    an int for an int c.  Each output term is divided by N once."""
    terms = p.terms
    if not terms:
        return Poly()
    top = 1 + max(m.count(_T) for m in terms)
    den = lcm(*range(1, top + 1))
    weight = [den // (e + 1) for e in range(top)]
    sums: dict = {}
    get = sums.get
    for m, c in terms.items():
        e = m.count(_T)
        nm = m[e:]
        sums[nm] = get(nm, 0) + c * weight[e]
    return divided(Poly(sums), den)


def interp_poly(cs, r: int, mu: int, D: tuple = ()) -> Poly:
    """t a^r_{D;mu} + (1-t) B^r_{D;mu}: the homotopy from B to a."""
    t = Poly.var(T)
    return (t * Poly.var(conn(r, mu, D))
            + (Poly.const(1) - t) * cs.bg_poly(r, mu, D))


def interp_one_form(cs, r: int) -> Form:
    return cs._one_form(r, lambda r, mu: interp_poly(cs, r, mu))


def interp_curvature(cs) -> dict:
    """F^r(t,B) = d(ta + (1-t)B) ^ dx (t held constant) + 1/2 c (ta+(1-t)B)^2,
    at each index r of b."""
    t = Poly.var(T)
    one_minus_t = Poly.const(1) - t

    def linear(r):
        return (exterior_d(cs.potential_one_form(r)).scale(t)
                + exterior_d(cs.background_one_form(r)).scale(one_minus_t))

    return _curvature(cs, linear, lambda r: interp_one_form(cs, r))


def t_integrand_contraction(cs, heads: list, curv: dict) -> Form:
    """chern_simons._slot_contraction by the t-integrand: the dense slot sum
    of heads and the t-polynomial curvature curv, each coefficient then
    integrated over t in [0, 1]."""
    acc, den, _ = slot_sum(cs, heads, curv)
    return map_coefficients(_wrap(cs.ctx, acc),
                            lambda p: divided(t_integral(p), den))


def t_integrand_homotopy(cs, heads: list = (), curv: dict | None = None) -> Form:
    """chern_simons.homotopy by the t-integrand: the slot contraction of
    heads, (k-j)(a-B) and curv, the interpolated curvature F(t) by
    default."""
    return t_integrand_contraction(
        cs, [*heads, _a_minus_B(cs, len(heads))],
        interp_curvature(cs) if curv is None else curv)


def interp_curvature_horizontal(cs) -> dict:
    """The displayed first-order coefficients: t a^r_{lam;mu} + (1-t) dB, built
    directly from jet coordinates rather than through h0 (cross-check route)."""
    ctx = cs.ctx

    # t a^r_{lam;mu} never cancels, so no coefficient is zero
    def linear(r):
        acc: dict = {}
        for lam in range(cs.n):
            for mu in range(cs.n):
                coeff = Form(ctx, {(x(lam),): interp_poly(cs, r, mu, (lam,))})
                wedge_into(acc, coeff, Form.generator(ctx, x(mu)))
        return _wrap(ctx, acc)

    return _curvature(cs, linear, lambda r: interp_one_form(cs, r))


def cs_lagrangian_direct(cs) -> Form:
    """Independent construction of the horizontal CS Lagrangian via the
    explicit first-order formula; must agree with cs_lagrangian exactly."""
    return t_integrand_homotopy(cs, curv=interp_curvature_horizontal(cs))


# -- the jet chart, enumerated, and prolongation by total derivatives ------


def jet_chart(ctx, max_order: int) -> list:
    """Every coordinate of ctx with jet order <= max_order, listed one by
    one and sorted: x^lam, t, then each a^r_{D;mu} and z^A_D."""
    coords = [x(lam) for lam in range(ctx.n)]
    coords.append(T)
    for size in range(max_order + 1):
        for D in combinations_with_replacement(range(ctx.n), size):
            for r in range(ctx.gauge_dim):
                for mu in range(ctx.n):
                    coords.append(conn(r, mu, D))
            for A in range(ctx.matter_dim):
                coords.append(matter(A, D))
    return sorted(coords)


def prolong(u: dict, ctx) -> dict:
    """First jet prolongation of a vertical order-0 field, one total
    derivative d_lam u^i at a time: every component of u in every
    direction."""
    out = {c: p for c, p in u.items() if p}
    for c, p in u.items():
        for lam in range(ctx.n):
            comp = total_derivative(p, lam, ctx)
            if comp:
                out[with_extra_deriv(c, lam)] = comp
    return out


def apply_derivation(X: dict, grad: dict) -> Poly:
    """X(f) = sum X^g partial_g f for the vector field X: coord -> Poly
    and a scalar f given by its gradient f.gradient(), summed in one term
    dict."""
    out: dict = {}
    for g, df in grad.items():
        comp = X.get(g)
        if comp:
            polynomial.mul_dicts(comp.terms, df.terms, out)
    return Poly(out)


def lie_derivative(L, u: dict) -> Poly:
    """The coefficient of omega in the Lie derivative of L along J1 u: the
    prolonged field applied as a derivation to the density."""
    return apply_derivation(prolong(u, L.ctx), L.gradient)


# -- first-variational operators that probe every (coordinate, lam) pair ---
#
# The library indexes a Lagrangian's first-order partials by their order-0
# coordinate and visits only those the density has; these look up the
# partial in i_lam for every order-0 coordinate i and every lam.


def euler_lagrange(L) -> dict:
    """delta_i = partial_i - d_lam partial^lam_i over every order-0 field
    coordinate, in field_coords order."""
    ctx = L.ctx
    grad = L.gradient
    out = {}
    for i in ctx.field_coords(0):
        comp = grad.get(i, Poly.zero())
        for lam in range(ctx.n):
            dldj = grad.get(with_extra_deriv(i, lam))
            if dldj:
                comp = comp - total_derivative(dldj, lam, ctx)
        out[i] = comp
    return out


def poincare_cartan(L) -> Form:
    """H_L = density * omega + partial^lam_i(density) theta^i ^ omega_lam."""
    ctx = L.ctx
    grad = L.gradient
    out = L.form()
    for i in ctx.field_coords(0):
        for lam in range(ctx.n):
            dldj = grad.get(with_extra_deriv(i, lam))
            if dldj:
                out = add_forms(out, wedge(contact_form(i, ctx),
                                           ctx.omega_lambda(lam, dldj)))
    return out


def noether_current(L, u: dict) -> Form:
    """J = J^lam omega_lam, J^lam = u^i partial^lam_i(density)."""
    ctx = L.ctx
    grad = L.gradient
    comps = []
    for lam in range(ctx.n):
        s = Poly.zero()
        for i, ui in u.items():
            dldj = grad.get(with_extra_deriv(i, lam))
            if dldj:
                s = s + ui * dldj
        comps.append(s)
    return ctx.current_form(comps)


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
    return Form(a.ctx, out)


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
    return Form(a.ctx, out)


def contract(X: dict, a: Form) -> Form:
    """Interior product with the vector field of components X: coord -> Poly."""
    out = Form.zero(a.ctx)
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


def map_generators(a: Form, image) -> Form:
    """f dc1 ^ ... ^ dcp -> f image(c1) ^ ... ^ image(cp)."""
    images: dict = {}
    out: dict = {}
    for dcs, f in a.terms.items():
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
    return Form(a.ctx, out)


def map_coefficients(a: Form, fn) -> Form:
    """f dcs -> fn(f) dcs, term by term; zero results are dropped."""
    out = {}
    for d, p in a.terms.items():
        q = fn(p)
        if q:
            out[d] = q
    return Form(a.ctx, out)


def lie_derivative_form(X: dict, a: Form) -> Form:
    """Cartan formula: L_X = X . d + d . X ."""
    acc = forms.contract_into({}, X, exterior_d(a))
    return _wrap(a.ctx, forms.exterior_d_into(acc, forms.contract(X, a)))


def pullback(a: Form, bindings: dict) -> Form:
    """Pull back along the map substituting coordinates by bindings.

    Coefficients get the substitution; each differential dc becomes the
    exterior derivative of its binding value, so unbound coordinates pass
    through.  A binding may mention its own key and other coordinates
    such as t, so the fiber homotopy a -> B + t(a - B) is a pullback too:
    its da becomes t da + (a - B) dt + (1 - t) dB.
    """
    return map_generators(
        map_coefficients(a, lambda f: substitute(f, bindings)),
        lambda c: forms.exterior_d(
            Form.from_poly(a.ctx, bindings.get(c, Poly.var(c)))))


def invariant_contraction(cs, factors: list) -> Form:
    """b_{r1..rk} factors^{r1} ^ ... ^ factors^{rk} summed over ordered index
    tuples, with multiset enumeration and multinomial weights (all factors
    are even)."""
    out = Form.zero(cs.ctx)
    for idx in combinations_with_replacement(range(cs.algebra.dim), cs.k):
        bval = tensor_value(cs.b, idx)
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
    bindings = {conn(r, mu): interp_poly(cs, r, mu)
                for r in range(cs.algebra.dim) for mu in range(cs.n)}
    pulled = pullback(a, bindings)
    return map_coefficients(forms.contract({T: Poly.const(1)}, pulled),
                            t_integral)


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


def gauge_head(cs, params: list | None = None) -> dict:
    """r -> k xi^r as a 0-form, at every index: the head slot of the descent
    primitive."""
    xi = [Poly.var(gauge(r)) for r in range(cs.algebra.dim)] \
        if params is None else params
    return {r: Form.from_poly(cs.ctx, p * cs.k) for r, p in enumerate(xi)}


def section_correction(cs, params: list | None = None) -> Form:
    """chi = k b_{r1..rk} xi^{r1} F_B^{r2} ^ ... ^ F_B^{rk}.

    d(chi) equals the restriction of xi_C . P_2k(F) to the background
    section (Bianchi plus ad-invariance), the boundary piece the scaling
    homotopy cannot see.  Vanishes identically for B = 0.  Its value: the
    library's slot contraction divided by cs.scale."""
    if cs.background == "zero":
        return Form.zero(cs.ctx)
    return unscaled(_slot_contraction(cs, [gauge_head(cs, params)],
                                      _t_free(background_curvature(cs))), cs)


def sigma_boundary_term(cs, xi_C: dict, params: list | None = None,
                        S: Form | None = None) -> Form:
    """h0(fiber_homotopy(xi_C . dS - d chi) + chi + xi_C . S), unverified:
    the value of sigma for the value S of the CS form, by default that of
    the library (which holds cs.scale times each)."""
    if S is None:
        S = unscaled(cs_form(cs), cs)
    chi = section_correction(cs, params)
    omega = forms.contract(xi_C, forms.exterior_d(S))
    psi = fiber_homotopy(omega - forms.exterior_d(chi), cs) + chi
    return horizontal_projection(psi + forms.contract(xi_C, S))


# -- sigma and the conservation law in one shot ----------------------------


def one_shot_conservation(cs, params: list | None = None) -> tuple:
    """(sigma, report, modified) of the whole gauge generator at once, by
    the descent route with its checks: d psi = xi_C . dS (NonzeroResidual
    otherwise), the post-check d_H sigma = L_{J1 xi_C} L (SigmaMismatch
    otherwise), and conservation_check along the whole xi_C.  Every step is
    linear in S, psi and eta, so it runs on the library's S and slot
    contractions, which hold cs.scale times their values, and each result
    it returns is cs.scale times its value, as the library holds it.  The
    checks compare zero with a multiple of zero, which the scale does not
    change."""
    ctx = cs.ctx
    S = cs_form(cs)
    L = Lagrangian.from_horizontal_form(horizontal_projection(S))
    xi_C = algebra.gauge_generator(cs.algebra, ctx, params)
    head = gauge_head(cs, params)
    psi = _slot_contraction(cs, [head], _t_free(canonical_curvature(cs)))
    residual = forms.exterior_d(psi) - forms.contract(xi_C, forms.exterior_d(S))
    if not residual.is_zero():
        raise NonzeroResidual(f"descent residual has "
                              f"{residual.term_count()} terms: "
                              f"{residual.render(den=cs.scale)}")
    sigma = horizontal_projection(
        psi - forms.exterior_d(homotopy(cs, [head])) + forms.contract(xi_C, S))
    if horizontal_differential(sigma) != ctx.volume_form(lie_derivative(L, xi_C)):
        raise SigmaMismatch("d_H sigma != Lie derivative of the CS Lagrangian")
    report, modified = conservation_check(L, xi_C, sigma)
    return sigma, report, modified


def merged_conservation(parts) -> tuple:
    """(report, modified, sizes): the (report, modified, sigma_terms) parts
    of the gauge components, as verify_conservation yields them, folded into
    one form each, as the library returned them before its caller kept only
    the printed terms.  The components' residuals and parts of J - sigma
    share no monomial, so each is added into one accumulator; the report is
    vacuous iff every component's is, and sizes lists the term count of
    each component's sigma."""
    residual: dict = {}
    current: dict = {}
    vacuous = True
    sizes = []
    for report, modified, sigma_terms in parts:
        sizes.append(sigma_terms)
        vacuous = vacuous and report.vacuous
        add_into(residual, report.residual)
        add_into(current, modified)
        ctx = modified.ctx
    return (VerificationReport(_wrap(ctx, residual), vacuous),
            _wrap(ctx, current), sizes)


# -- dense algebra loops ----------------------------------------------------


def bracket_const(g, r: int, p: int, q: int) -> Fraction:
    """c^r_pq, zero when not stored."""
    return g.c.get((r, p, q), Fraction(0))


def tensor_value(b, idx: tuple) -> Fraction:
    """b at any ordering of idx, zero when not stored."""
    return b.entries.get(tuple(sorted(idx)), Fraction(0))


def validate_algebra(dim: int, c: dict) -> None:
    """LieAlgebraData's load-time checks by the dense loops: raises as
    LieAlgebraData(dim, c) does, naming the first failing (p, q, s, r) with
    p <= q <= s in lexicographic order."""
    c = {k: v for k, v in c.items() if v}

    def const(r, p, q):
        return c.get((r, p, q), Fraction(0))

    for (r, p, q), v in c.items():
        if not all(0 <= i < dim for i in (r, p, q)):
            raise JetvarError(f"structure constant index out of range: {(r, p, q)}")
        if v != -const(r, q, p):
            raise AntisymmetryViolation(
                f"c^{r}_{{{p}{q}}} != -c^{r}_{{{q}{p}}}")
    for p, q, s in combinations_with_replacement(range(dim), 3):
        for r in range(dim):
            acc = Fraction(0)
            for u in range(dim):
                acc += const(u, p, q) * const(r, u, s)
                acc += const(u, q, s) * const(r, u, p)
                acc += const(u, s, p) * const(r, u, q)
            if acc:
                raise JacobiViolation(f"Jacobi fails at (p,q,s,r)=({p},{q},{s},{r})")


def killing_form(g) -> dict:
    """kappa_mn = c^p_mq c^q_np summed over every p, q: the dict of its
    nonzero entries, in sorted order."""
    out = {}
    for i, j in product(range(g.dim), repeat=2):
        s = Fraction(0)
        for p, q in product(range(g.dim), repeat=2):
            s += bracket_const(g, p, i, q) * bracket_const(g, q, j, p)
        if s:
            out[(i, j)] = s
    return out


def check_invariant_tensor(g, b) -> dict:
    """The ad-invariance residual over every p and ordered tail: the entry
    at (p, sorted tail) sums c^r1_{p tail[0]} b(r1, tail[1:]) over r1 and
    the tails with that sorted form."""
    m = g.dim
    residual: dict = {}
    for p in range(m):
        for tail in product(range(m), repeat=b.degree):
            s = Fraction(0)
            for r1 in range(m):
                cval = bracket_const(g, r1, p, tail[0])
                if cval:
                    s += cval * tensor_value(b, (r1,) + tail[1:])
            if s:
                key = (p, tuple(sorted(tail)))
                residual[key] = residual.get(key, Fraction(0)) + s
    return {key: v for key, v in residual.items() if v}


def section_bracket(xi: list, eta: list, g) -> list:
    """[xi, eta]^r = c^r_pq xi^p eta^q, over every r, p, q."""
    out = []
    for r in range(g.dim):
        s = Poly.zero()
        for p, q in product(range(g.dim), repeat=2):
            cval = bracket_const(g, r, p, q)
            if cval:
                s = s + cval * xi[p] * eta[q]
        out.append(s)
    return out


def gauge_generator(g, ctx, params: list | None = None) -> dict:
    """xi_C: component d_mu xi^r + c^r_pq a^p_mu xi^q, over every p, q."""
    out = {}
    for r in range(g.dim):
        for mu in range(ctx.n):
            if params is None:
                comp = Poly.var(gauge(r, (mu,)))
            else:
                comp = total_derivative(params[r], mu, ctx)
            for p, q in product(range(g.dim), repeat=2):
                cval = bracket_const(g, r, p, q)
                if cval:
                    xi_q = Poly.var(gauge(q)) if params is None else params[q]
                    comp = comp + cval * Poly.var(conn(p, mu)) * xi_q
            if comp:
                out[conn(r, mu)] = comp
    return out


def slot_sum(cs, heads: list, curv: dict) -> tuple:
    """(acc, den, degree): chern_simons._slot_contraction before the
    t-integral, den times it as an accumulator, summed over every ordered
    lead of j = len(heads) indices and every multiset of the k - j
    curvature slots, looking b up at each index tuple (an index that a head
    lacks adds nothing), and its degree."""
    m = cs.algebra.dim
    j = len(heads)
    den = lcm(*(v.denominator for v in cs.b.entries.values()))
    acc: dict = {}
    for lead in product(range(m), repeat=j):
        factors = [h.get(r) for h, r in zip(heads, lead)]
        if any(f is None or f.is_zero() for f in factors):
            continue
        head = factors[0]
        for f in factors[1:]:
            head = wedge(head, f)
        for rest in combinations_with_replacement(range(m), cs.k - j):
            bval = tensor_value(cs.b, lead + rest)
            if not bval:
                continue
            weight = (bval * den).numerator * _multinomial(rest)
            if not rest:
                add_into(acc, head, weight)
                continue
            term = head
            for i in rest[:-1]:
                term = wedge(term, curv[i])
            wedge_into(acc, term, curv[rest[-1]], weight)
    # the nonzero forms of one head share a degree; a head without one adds
    # nothing, and counts as degree 0
    degree = sum(next((f.degree for f in h.values() if not f.is_zero()), 0)
                 for h in heads)
    return acc, den, degree + 2 * (cs.k - j)


def curvature(cs, linear: list, ones: list) -> list:
    """F^r = linear^r + 1/2 c^r_pq X^p ^ X^q for the 1-forms X = ones, at
    every index r, summed over every ordered pair (p, q) with weight c/2."""
    accs = [add_into({}, f) for f in linear]
    for (r, p, q), cval in cs.algebra.c.items():
        wedge_into(accs[r], ones[p], ones[q], cval / 2)
    return [forms._wrap(cs.ctx, acc) for acc in accs]


# -- random forms and the 3D displays --------------------------------------


def random_coeff(rng) -> Fraction:
    num = rng.randint(-6, 6)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 4))


def random_poly(pool: list, rng, max_monomials: int = 3,
                max_exp: int = 2) -> Poly:
    """The random polynomial of random_inputs.random_poly, built by Poly
    arithmetic one factor and one term at a time."""
    out = Poly.zero()
    for _ in range(rng.randint(1, max_monomials)):
        term = Poly.const(random_coeff(rng))
        for _ in range(rng.randint(0, 2)):
            v = rng.choice(pool)
            term = term * Poly.var(v, rng.randint(1, max_exp))
        out = out + term
    return out


def random_form(ctx, degree: int, rng, max_summands: int = 3,
                pool: list | None = None) -> Form:
    """Random form whose generators are drawn from pool (default: x and
    order-0 fields) with random polynomial coefficients."""
    gens = pool or _pool(ctx, 0)
    coeff_pool = _pool(ctx, 1)
    out = Form.zero(ctx)
    for _ in range(rng.randint(1, max_summands)):
        if degree > len(gens):
            break
        dcs = tuple(sorted(rng.sample(gens, degree)))
        p = random_poly(coeff_pool, rng, max_monomials=2)
        out = out + Form(ctx, {dcs: p} if p else {})
    return out


# The displays of the 3D model (k = 2, Killing tensor h * kappa), written out
# index by index as in reference3d: epsilon^{012} = +1 and
# D_beta xi^m = d_beta xi^m + c^m_pq a^p_beta xi^q.


def _cs_inner(g, be: int, ga: int, field) -> list:
    """F^n_{be ga} - 1/3 c^n_pq f^p_be f^q_ga for every n, where
    F^n_{be ga} = d_be f_ga - d_ga f_be + c^n_pq f^p_be f^q_ga."""
    quad = algebra.section_bracket([field(p, be) for p in range(g.dim)],
                                   [field(q, ga) for q in range(g.dim)], g)
    return [field(n, ga, (be,)) - field(n, be, (ga,)) + quad[n] - Q(1, 3) * quad[n]
            for n in range(g.dim)]


def cs_density_3d(g, h: Fraction, ctx, symbolic_bg: bool) -> Poly:
    """The displayed 3D CS density: the potential group, the background group,
    and the total-derivative cross group."""
    kappa = algebra.killing_form(g)
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


def lie_derivative_density_3d(g, h: Fraction, ctx, symbolic_bg: bool) -> Poly:
    """-d_al(h kappa eps (d_be xi^m a^n_ga + D_be xi^m B^n_ga))."""
    kappa = algebra.killing_form(g)
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


def noether_components_3d(g, h: Fraction, symbolic_bg: bool) -> list:
    """J^al = h kappa eps D_be xi^m (a^n_ga - B^n_ga)."""
    kappa = algebra.killing_form(g)
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
