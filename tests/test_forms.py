"""Exterior algebra laws: wedge grading, d^2 = 0, Leibniz, interior product,
Cartan's formula, and functoriality of the test oracles' pullback."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvar.errors import JetvarError, TermLimitExceeded
from jetvar.forms import (Form, _wrap, add_into, contract_into, exterior_d,
                          exterior_d_into, linear_combination, wedge,
                          wedge_into)
from jetvar.indets import (T, bg, conn, gauge, indet_str, matter,
                           with_extra_deriv, x)
from jetvar.jets import JetContext, horizontal_projection
from jetvar.polynomial import Poly, Q
from jetvar.random_inputs import random_poly
import oracles
from oracles import (contracted, generator, horizontal_differential,
                     lie_derivative_form, pullback, random_form)

CTX = JetContext(2, 1)
COORDS = oracles.jet_chart(CTX, 2)


def _forms(rng, degree, count=6):
    return [random_form(CTX, degree, rng) for _ in range(count)]


def test_wedge_graded_commutativity(rng):
    for p in (1, 2):
        for q in (1, 2):
            for a, b in zip(_forms(rng, p), _forms(rng, q)):
                sign = -1 if (p * q) % 2 else 1
                assert (wedge(a, b) - wedge(b, a).scale(Q(sign))).is_zero()


def test_wedge_associativity_and_bilinearity(rng):
    for a, b, c in zip(_forms(rng, 1), _forms(rng, 1), _forms(rng, 1)):
        assert (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).is_zero()
        assert (wedge(a + b, c) - wedge(a, c) - wedge(b, c)).is_zero()


def test_one_form_squares_to_zero(rng):
    for a in _forms(rng, 1):
        assert wedge(a, a).is_zero()


def test_duplicate_generator_rejected():
    with pytest.raises(JetvarError, match="not strictly increasing"):
        Form(CTX, {(x(0), x(0)): Poly.const(1)})
    with pytest.raises(JetvarError, match="not strictly increasing") as exc:
        Form(CTX, {(x(1), x(0)): Poly.const(1)})
    # a structure-constant error names the algebra, not a form
    assert type(exc.value) is JetvarError
    # the degree is the length of the generator tuples: one length per form
    with pytest.raises(JetvarError, match="degree mismatch"):
        Form(CTX, {(x(0),): Poly.const(1), (x(0), x(1)): Poly.const(1)})
    # a zero coefficient would make the form read as nonzero
    with pytest.raises(JetvarError, match="zero coefficient"):
        Form(CTX, {(x(0),): Poly.zero()})
    with pytest.raises(JetvarError, match="zero coefficient"):
        Form(CTX, {(x(0),): Poly.const(1), (x(1),): Poly.zero()})


def test_form_sums_check_degree_and_chart():
    dx0 = generator(CTX, x(0))
    dx01 = wedge(dx0, generator(CTX, x(1)))
    with pytest.raises(JetvarError, match="degree mismatch"):
        dx0 + dx01
    with pytest.raises(JetvarError, match="degree mismatch"):
        dx01 - dx0
    with pytest.raises(JetvarError):
        dx0 + Form.zero(JetContext(3, 1))
    # contexts with the same dimensions are the same context
    assert dx0 + Form.zero(JetContext(2, 1)) == dx0
    # the zero form has every degree and adds nothing
    assert oracles.degree(Form.zero(CTX)) is None
    assert oracles.degree(dx0 - dx0) is None
    for s in (dx0 + Form.zero(CTX), Form.zero(CTX) + dx0, dx0 - Form.zero(CTX)):
        assert s == dx0 and oracles.degree(s) == 1


def test_operators_on_the_zero_form_give_zero():
    zero = Form.zero(CTX)
    dx0 = generator(CTX, x(0))
    X = {x(0): Poly.var(x(1))}
    for out in (exterior_d(zero), horizontal_differential(zero),
                wedge(zero, dx0), wedge(dx0, zero), contracted(X, zero),
                horizontal_projection(zero)):
        assert out.is_zero() and oracles.degree(out) is None


def test_d_squared_is_zero(rng):
    for degree in (0, 1, 2):
        for a in _forms(rng, degree):
            assert exterior_d(exterior_d(a)).is_zero()


def test_d_squared_is_zero_with_function_symbols():
    # B and xi are not coordinates: d sends them to dx terms
    f = Poly.var(bg(0, 0)) * Poly.var(gauge(0)) + Poly.var(bg(0, 1), 2)
    a = Form.from_poly(CTX, f)
    assert exterior_d(exterior_d(a)).is_zero()
    b = wedge(exterior_d(a), generator(CTX, conn(0, 0)))
    assert exterior_d(exterior_d(b)).is_zero()


# CTX has n = 2, one gauge index and no matter
@pytest.mark.parametrize("v", [x(2), conn(1, 0), conn(0, 0, (2,)), matter(0)])
def test_d_of_an_off_chart_coordinate_raises(v):
    # a dropped differential could make a residual vacuously zero
    assert v not in CTX
    with pytest.raises(JetvarError, match=re.escape(indet_str(v))):
        generator(CTX, v)
    # images of d are memoized, but a failure never is: it raises again
    for _ in range(2):
        with pytest.raises(JetvarError, match=re.escape(indet_str(v))):
            exterior_d(Form.from_poly(CTX, Poly.var(v)))


def _d_coefficient_oracle(f: Poly) -> Form:
    """The gradient route: (df/dv) dv for a coordinate v, and
    (df/ds) * s_{D+lam} dx^lam, built as a Poly product, for a symbol s."""
    out = Form.zero(CTX)
    for v, g in f.gradient().items():
        if v in CTX:
            out = out + Form(CTX, {(v,): g})
        else:
            for lam in range(CTX.n):
                out = out + Form(CTX, {(x(lam),): g * Poly.var(
                    with_extra_deriv(v, lam))})
    return out


def _exterior_d_oracle(a: Form) -> Form:
    out = Form.zero(CTX)
    for dcs, f in a.terms.items():
        out = out + wedge(_d_coefficient_oracle(f),
                          Form(CTX, {dcs: Poly.const(1)}))
    return out


# gauge(0, (0,)) is also the x^0-derivative of gauge(0)
D_POOL = list(COORDS) + [bg(0, 0), bg(0, 1, (0, 1)), gauge(0),
                            gauge(0, (0,)), gauge(0, (1, 1, 1))]


@st.composite
def d_forms(draw):
    degree = draw(st.integers(0, 1))
    terms: dict = {}
    for _ in range(draw(st.integers(0, 3))):
        p = Poly.zero()
        for _ in range(draw(st.integers(1, 4))):
            term = Poly.const(draw(st.fractions(-5, 5, max_denominator=6)))
            for _ in range(draw(st.integers(0, 3))):
                term = term * Poly.var(draw(st.sampled_from(D_POOL)),
                                       draw(st.integers(1, 3)))
            p = p + term
        dcs = (draw(st.sampled_from(COORDS)),) if degree else ()
        terms[dcs] = terms.get(dcs, Poly.zero()) + p
    return Form(CTX, {d: p for d, p in terms.items() if p})


@settings(max_examples=150, deadline=None)
@given(d_forms())
def test_exterior_d_matches_the_gradient_oracle(a):
    assert exterior_d(a) == _exterior_d_oracle(a)


def test_term_cap_stops_exterior_d(term_cap):
    # exterior_d makes no Poly sum or product, so the chain rule itself must
    # hold the cap: d(x0 a0 a1) has three one-term coefficients and passes,
    # d(x1 B) = B dx1 + x1 B_{;0} dx0 + x1 B_{;1} dx1 has two terms on dx1
    a = Form.from_poly(CTX, Poly.var(x(0)) * Poly.var(conn(0, 0))
                       * Poly.var(conn(0, 1)))
    f = Form.from_poly(CTX, Poly.var(x(1)) * Poly.var(bg(0, 0)))
    term_cap(1)
    assert exterior_d(a).term_count() == 3
    with pytest.raises(TermLimitExceeded):
        exterior_d(f)


def test_term_cap_stops_wedge_and_contract(term_cap):
    # (a0 + a1) dx0 ^ (x1 + B) dx1 has four terms on dx0^dx1, and the
    # contraction of that 2-form by x0 d/dx0 has four on dx1
    a = Form(CTX, {(x(0),): Poly.var(conn(0, 0)) + Poly.var(conn(0, 1))})
    b = Form(CTX, {(x(1),): Poly.var(x(1)) + Poly.var(bg(0, 0))})
    X = {x(0): Poly.var(x(0))}
    term_cap(4)
    ab = wedge(a, b)
    assert ab.term_count() == 4 and contracted(X, ab).term_count() == 4
    term_cap(3)
    with pytest.raises(TermLimitExceeded):
        wedge(a, b)
    with pytest.raises(TermLimitExceeded):
        contracted(X, ab)


def test_leibniz_rule(rng):
    for p in (0, 1):
        for a, b in zip(_forms(rng, p), _forms(rng, 1)):
            sign = Q(-1 if p % 2 else 1)
            lhs = exterior_d(wedge(a, b))
            rhs = wedge(exterior_d(a), b) + wedge(a, exterior_d(b)).scale(sign)
            assert (lhs - rhs).is_zero()


def _vector(rng):
    pool = list(COORDS)
    return {c: random_poly(pool, rng, max_monomials=2) for c in
            rng.sample(pool, 3)}


def test_contraction_is_an_antiderivation(rng):
    for p in (1, 2):
        X = _vector(rng)
        for a, b in zip(_forms(rng, p), _forms(rng, 1)):
            sign = Q(-1 if p % 2 else 1)
            lhs = contracted(X, wedge(a, b))
            rhs = (wedge(contracted(X, a), b)
                   + wedge(a, contracted(X, b)).scale(sign))
            assert (lhs - rhs).is_zero()


def test_contraction_squares_to_zero(rng):
    X = _vector(rng)
    for a in _forms(rng, 2):
        assert contracted(X, contracted(X, a)).is_zero()


def test_cartan_formula(rng):
    for degree in (0, 1, 2):
        X = _vector(rng)
        for a in _forms(rng, degree, count=4):
            lie = lie_derivative_form(X, a)
            homotopy = contracted(X, exterior_d(a)) + exterior_d(contracted(X, a))
            assert (lie - homotopy).is_zero()


def test_lie_derivative_commutes_with_d(rng):
    X = _vector(rng)
    for a in _forms(rng, 1, count=4):
        lhs = lie_derivative_form(X, exterior_d(a))
        rhs = exterior_d(lie_derivative_form(X, a))
        assert (lhs - rhs).is_zero()


def test_pullback_commutes_with_wedge(rng):
    bindings = {conn(0, 0): Poly.var(bg(0, 0)),
                conn(0, 1): Poly.var(x(0)) * Poly.var(x(1))}
    for a, b in zip(_forms(rng, 1), _forms(rng, 1)):
        lhs = pullback(wedge(a, b), bindings)
        rhs = wedge(pullback(a, bindings), pullback(b, bindings))
        assert (lhs - rhs).is_zero()


def test_pullback_commutes_with_d(rng):
    bindings = {conn(0, 0): Poly.var(x(0), 2),
                conn(0, 1): Poly.var(bg(0, 1))}
    for a in _forms(rng, 1, count=4):
        lhs = pullback(exterior_d(a), bindings)
        rhs = exterior_d(pullback(a, bindings))
        assert (lhs - rhs).is_zero()


def _pullback_oracle(a: Form, bindings: dict) -> Form:
    """The wedge loop: the substituted coefficient as a 0-form, wedged in
    turn with the image of each generator."""
    out = Form.zero(CTX)
    for dcs, f in a.terms.items():
        acc = Form.from_poly(CTX, oracles.substitute(f, bindings))
        for c in dcs:
            img = (exterior_d(Form.from_poly(CTX, bindings[c]))
                   if c in bindings else generator(CTX, c))
            acc = wedge(acc, img)
        out = out + acc
    return out


PB_POOL = [x(0), x(1), T, conn(0, 0), conn(0, 1), conn(0, 1, (0,)),
           bg(0, 0), bg(0, 1, (1,)), gauge(0)]
PB_KEYS = [conn(0, 0), conn(0, 1), conn(0, 1, (0,)), conn(0, 0, (1, 1)), x(1)]


def _draw_poly(draw, pool, max_terms=3):
    p = Poly.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        term = Poly.const(draw(st.fractions(-5, 5, max_denominator=6)))
        for _ in range(draw(st.integers(0, 3))):
            term = term * Poly.var(draw(st.sampled_from(pool)),
                                   draw(st.integers(1, 2)))
        p = p + term
    return p


@st.composite
def forms(draw, degree=None, gens=COORDS):
    """A random form of the given degree (0..3 when None) on generators
    drawn from gens."""
    if degree is None:
        degree = draw(st.integers(0, 3))
    terms: dict = {}
    for _ in range(draw(st.integers(0, 3))):
        dcs = tuple(sorted(draw(st.lists(st.sampled_from(gens),
                                         min_size=degree, max_size=degree,
                                         unique=True))))
        terms[dcs] = terms.get(dcs, Poly.zero()) + _draw_poly(draw, PB_POOL)
    return Form(CTX, {d: p for d, p in terms.items() if p})


@settings(max_examples=150, deadline=None)
@given(forms(), st.integers(0, 300))
def test_render_width_is_a_prefix_of_the_text(a, width):
    assert a.render(width) == str(a)[:width]


@st.composite
def pullback_cases(draw):
    """A random form of degree 0..3 and bindings whose values may mention
    their own key, t and unbound coordinates, but no other bound key."""
    keys = draw(st.lists(st.sampled_from(PB_KEYS), max_size=4, unique=True))
    free = [v for v in PB_POOL if v not in keys]
    bindings = {k: _draw_poly(draw, free + [k, T]) for k in keys}
    return draw(forms()), bindings


@settings(max_examples=150, deadline=None)
@given(pullback_cases())
def test_pullback_matches_the_wedge_loop_oracle(case):
    a, bindings = case
    assert pullback(a, bindings) == _pullback_oracle(a, bindings)


def test_pullback_of_the_fiber_homotopy_matches_the_wedge_loop_oracle(rng):
    # a -> t a + (1 - t) B on every connection coordinate of order 0
    t = Poly.var(T)
    bindings = {conn(0, mu): t * Poly.var(conn(0, mu))
                + (Poly.const(1) - t) * Poly.var(bg(0, mu)) for mu in range(2)}
    for degree in (0, 1, 2, 3):
        for a in _forms(rng, degree, count=4):
            assert pullback(a, bindings) == _pullback_oracle(a, bindings)


# -- in-place sums against the parent's Poly-at-a-time oracles -----------

# few generators, so that keys collide and coefficients cancel
FEW = [x(0), x(1), conn(0, 0), conn(0, 1)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_in_place_form_operations_match_the_poly_at_a_time_oracles(data):
    # a may be zero, so b takes the drawn degree
    degree = data.draw(st.integers(0, 3))
    a = data.draw(forms(degree, FEW))
    # b shares keys and monomials with a; c = -1 cancels them
    c = data.draw(st.sampled_from([Q(-1), Q(1), Q(-2, 3)]))
    b = oracles.add_forms(data.draw(forms(degree, FEW)), a.scale(c))
    e = data.draw(forms(gens=FEW))
    assert a + b == oracles.add_forms(a, b)
    assert a - b == oracles.add_forms(a, b.scale(-1))
    assert wedge(a, e) == oracles.wedge(a, e)
    X = {v: _draw_poly(data.draw, PB_POOL) for v in FEW[1:]}
    assert contracted(X, a) == oracles.contract(X, a)


@settings(max_examples=100, deadline=None)
@given(forms(gens=FEW))
def test_aliased_form_operands(a):
    before = dict(a.terms)
    assert a + a == oracles.add_forms(a, a) == a.scale(2)
    assert (a - a).is_zero()
    assert wedge(a, a) == oracles.wedge(a, a)
    assert a.terms == before


# -- the accumulating cores against their returning wrappers --------------

WEIGHTS = [1, -1, Q(3, 2)]


def _seed(data, result, degree, c):
    """A non-empty accumulator of the given degree, that of result, which
    may be zero: a random form, less c * result half the time, so that
    adding c * result cancels terms."""
    seed = data.draw(forms(degree, FEW))
    if data.draw(st.booleans()):
        seed = seed - result.scale(c)
    return seed + Form(CTX, {tuple(FEW[:degree]): Poly.var(T)})


def _assert_core_adds(data, core, result, degree):
    """core(acc, c) adds c * result, a form of the given degree, into a
    non-empty accumulator acc: the sum equals seed + c * result built by
    linear_combination."""
    c = data.draw(st.sampled_from(WEIGHTS))
    seed = _seed(data, result, degree, c)
    acc = add_into({}, seed)
    core(acc, c)
    assert _wrap(CTX, acc) == linear_combination(CTX, ((seed, 1), (result, c)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_form_cores_add_into_a_filled_accumulator(data):
    # a and e may be zero, so their degrees are the drawn p and q
    p = data.draw(st.integers(0, 3))
    q = data.draw(st.integers(0, 4 - p))
    a = data.draw(forms(p, FEW))
    e = data.draw(forms(q, FEW))
    X = {v: _draw_poly(data.draw, PB_POOL) for v in FEW[1:]}
    _assert_core_adds(data, lambda acc, c: add_into(acc, a, c), a, p)
    _assert_core_adds(data, lambda acc, c: wedge_into(acc, a, e, c),
                      wedge(a, e), p + q)
    _assert_core_adds(data, lambda acc, c: exterior_d_into(acc, a, c),
                      exterior_d(a), p + 1)
    _assert_core_adds(data, lambda acc, c: contract_into(acc, X, a, c),
                      contracted(X, a), max(p - 1, 0))
