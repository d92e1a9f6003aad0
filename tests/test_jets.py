"""Total derivatives, horizontal projection and differential, contact forms,
and prolongation of vertical fields."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvar.errors import JetOrderExceeded, JetvarError, TermLimitExceeded
from jetvar.forms import Form, apply_derivation, exterior_d, wedge
from jetvar.indets import (BG, GAUGE, T, X, bg, conn, gauge, is_field_jet,
                           matter, multi_index, with_extra_deriv, x)
from jetvar.jets import (JetContext, contact_form, horizontal_differential,
                         horizontal_projection, prolong, total_derivative)
from jetvar.polynomial import Poly
from jetvar.random_inputs import random_form, random_poly, random_vertical_field
from oracles import partial

CTX = JetContext(2, 1, matter_dim=1, jet_order=3)


def _densities(rng, count=8):
    pool = [c for c in CTX.chart.coords
            if c[0] == 0 or (c != T and len(multi_index(c)) <= 1)]
    return [random_poly(pool, rng, max_monomials=3) for _ in range(count)]


def test_total_derivative_examples():
    # d_0 (x^0 a) = a + x^0 a_{;0};  d_1 x^0 = 0
    f = Poly.var(x(0)) * Poly.var(conn(0, 0))
    expected = Poly.var(conn(0, 0)) + Poly.var(x(0)) * Poly.var(conn(0, 0, (0,)))
    assert total_derivative(f, 0, CTX) == expected
    assert total_derivative(Poly.var(x(0)), 1, CTX) == Poly.zero()


def test_total_derivative_applies_the_chain_rule_to_function_symbols():
    # B and xi are function symbols of x; only d_1 of a itself is added
    f = Poly.var(bg(0, 0)) * Poly.var(gauge(0)) + Poly.var(conn(0, 0))
    expected = Poly.var(bg(0, 0, (1,))) * Poly.var(gauge(0)) \
        + Poly.var(bg(0, 0)) * Poly.var(gauge(0, (1,))) \
        + Poly.var(conn(0, 0, (1,)))
    assert total_derivative(f, 1, CTX) == expected


def _total_derivative_oracle(f: Poly, lam: int) -> Poly:
    """The per-indeterminate route: one partial scan per indeterminate."""
    out = partial(f, x(lam))
    for v in f.indets():
        if is_field_jet(v) or v[0] in (BG, GAUGE):
            out = out + Poly.var(with_extra_deriv(v, lam)) * partial(f, v)
    return out


# Below the chart's top jet order, so d_lam never leaves the chart.
ORACLE_POOL = [x(0), x(1), T, conn(0, 0), conn(0, 1, (0,)), conn(0, 0, (0, 1)),
               matter(0), matter(0, (1, 1)), bg(0, 0), bg(0, 1, (0, 0, 1)),
               gauge(0), gauge(0, (1,))]


@st.composite
def jet_polys(draw):
    p = Poly.zero()
    for _ in range(draw(st.integers(0, 4))):
        term = Poly.const(draw(st.fractions(-5, 5, max_denominator=6)))
        for _ in range(draw(st.integers(0, 3))):
            term = term * Poly.var(draw(st.sampled_from(ORACLE_POOL)),
                                   draw(st.integers(1, 3)))
        p = p + term
    return p


@settings(max_examples=150, deadline=None)
@given(jet_polys(), st.integers(0, 1))
def test_total_derivative_matches_the_per_indeterminate_oracle(f, lam):
    assert total_derivative(f, lam, CTX) == _total_derivative_oracle(f, lam)


CTX3 = JetContext(3, 1, matter_dim=1, jet_order=2)
H_POOL = [x(0), x(1), x(2), T, conn(0, 0), conn(0, 2, (1,)), matter(0),
          matter(0, (0,)), bg(0, 1), bg(0, 0, (2, 2)), gauge(0), gauge(0, (0,))]


def _horizontal_differential_oracle(a: Form) -> Form:
    """Every direction: dx^lam wedge d_lam of each coefficient, the wedge
    dropping the lam already present."""
    out = Form.zero(CTX3.chart, a.degree + 1)
    for dcs, f in a.terms.items():
        for lam in range(CTX3.n):
            g = total_derivative(f, lam, CTX3)
            if g:
                out = out + wedge(Form(CTX3.chart, 1, {(x(lam),): g}),
                                  Form(CTX3.chart, len(dcs), {dcs: Poly.const(1)}))
    return out


@st.composite
def horizontal_forms(draw, degree):
    terms: dict = {}
    for _ in range(draw(st.integers(0, 4))):
        p = Poly.zero()
        for _ in range(draw(st.integers(1, 3))):
            term = Poly.const(draw(st.fractions(-5, 5, max_denominator=6)))
            for _ in range(draw(st.integers(0, 3))):
                term = term * Poly.var(draw(st.sampled_from(H_POOL)),
                                       draw(st.integers(1, 2)))
            p = p + term
        lams = draw(st.lists(st.integers(0, CTX3.n - 1), min_size=degree,
                             max_size=degree, unique=True))
        dcs = tuple(x(lam) for lam in sorted(lams))
        terms[dcs] = terms.get(dcs, Poly.zero()) + p
    return Form(CTX3.chart, degree, {d: p for d, p in terms.items() if p})


@pytest.mark.parametrize("degree", range(CTX3.n))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_horizontal_differential_matches_the_all_directions_oracle(degree, data):
    a = data.draw(horizontal_forms(degree))
    assert horizontal_differential(a, CTX3) == _horizontal_differential_oracle(a)


def test_term_cap_stops_total_derivative(monkeypatch):
    # d_0 of a product of three and of four indeterminates
    f = Poly.var(conn(0, 0)) * Poly.var(conn(0, 1)) * Poly.var(x(0))
    g = f * Poly.var(matter(0))
    monkeypatch.setenv("JETVAR_MAX_TERMS", "3")
    assert total_derivative(f, 0, CTX).term_count() == 3
    with pytest.raises(TermLimitExceeded):
        total_derivative(g, 0, CTX)


def test_term_cap_stops_horizontal_differential(monkeypatch):
    # d_H (a0 a1 dx1) = d_0(a0 a1) dx0^dx1, two terms
    a = Form(CTX.chart, 1, {(x(1),): Poly.var(conn(0, 0)) * Poly.var(conn(0, 1))})
    # h0 ((a0 + a1) da0) = (a0 + a1)(a0_{;0} dx0 + a0_{;1} dx1), four terms
    b = Form(CTX.chart, 1, {(conn(0, 0),): Poly.var(conn(0, 0))
                            + Poly.var(conn(0, 1))})
    monkeypatch.setenv("JETVAR_MAX_TERMS", "2")
    assert horizontal_differential(a, CTX).term_count() == 2
    assert horizontal_projection(b, CTX).term_count() == 4
    monkeypatch.setenv("JETVAR_MAX_TERMS", "1")
    with pytest.raises(TermLimitExceeded):
        horizontal_differential(a, CTX)
    with pytest.raises(TermLimitExceeded):
        horizontal_projection(b, CTX)


def _fiber_replacement_oracle(c: tuple) -> Form:
    """h0 image of dc: c_{D+lam} dx^lam summed over lam."""
    if len(multi_index(c)) >= CTX.jet_order:
        raise JetOrderExceeded(f"h0 needs a jet above {c}")
    out = Form.zero(CTX.chart, 1)
    for lam in range(CTX.n):
        out = out + Form(CTX.chart, 1,
                         {(x(lam),): Poly.var(with_extra_deriv(c, lam))})
    return out


def _horizontal_projection_oracle(a: Form) -> Form:
    """The wedge loop: the coefficient as a 0-form, wedged in turn with dx^lam
    for dx^lam and with the fiber replacement for a field jet."""
    out = Form.zero(CTX.chart, a.degree)
    for dcs, f in a.terms.items():
        acc = Form.from_poly(CTX.chart, f)
        for c in dcs:
            if acc.is_zero():
                break
            if c[0] == X:
                acc = wedge(acc, Form.generator(CTX.chart, c))
            elif is_field_jet(c):
                acc = wedge(acc, _fiber_replacement_oracle(c))
            else:
                raise JetvarError(f"h0 undefined on {c}")
        out = out + acc
    return out


def _outcome(fn, a):
    """The value of fn(a), or the type of the JetvarError it raises."""
    try:
        return fn(a)
    except JetvarError as exc:
        return type(exc)


# t and the top-order conn(0, 0, (0, 0, 0)) have no h0 image
H0_GENERATORS = [c for c in CTX.chart.coords
                 if not is_field_jet(c) or len(multi_index(c)) < 2] + [
    conn(0, 1, (0, 1)), matter(0, (1, 1)), conn(0, 0, (0, 0, 0))]


@st.composite
def projection_forms(draw):
    degree = draw(st.integers(0, 3))
    terms: dict = {}
    for _ in range(draw(st.integers(0, 3))):
        dcs = tuple(sorted(draw(st.lists(st.sampled_from(H0_GENERATORS),
                                         min_size=degree, max_size=degree,
                                         unique=True))))
        terms[dcs] = terms.get(dcs, Poly.zero()) + draw(jet_polys())
    return Form(CTX.chart, degree, {d: p for d, p in terms.items() if p})


@settings(max_examples=150, deadline=None)
@given(projection_forms())
def test_horizontal_projection_matches_the_wedge_loop_oracle(a):
    assert _outcome(lambda b: horizontal_projection(b, CTX), a) \
        == _outcome(_horizontal_projection_oracle, a)


def test_total_derivative_is_a_derivation(rng):
    for f, g in zip(_densities(rng), _densities(rng)):
        lhs = total_derivative(f * g, 0, CTX)
        rhs = total_derivative(f, 0, CTX) * g + f * total_derivative(g, 0, CTX)
        assert lhs == rhs


def test_total_derivatives_commute(rng):
    for f in _densities(rng):
        d01 = total_derivative(total_derivative(f, 0, CTX), 1, CTX)
        d10 = total_derivative(total_derivative(f, 1, CTX), 0, CTX)
        assert d01 == d10


def test_total_derivative_respects_the_jet_order():
    top = Poly.var(conn(0, 0, (0, 0, 0)))
    with pytest.raises(JetOrderExceeded):
        total_derivative(top, 0, CTX)


def test_horizontal_projection_kills_contact_forms():
    for c in CTX.field_coords(0) + CTX.field_coords(1):
        theta = contact_form(c, CTX)
        assert horizontal_projection(theta, CTX).is_zero()


def test_horizontal_projection_is_identity_on_dx():
    a = Form.generator(CTX.chart, x(1))
    assert (horizontal_projection(a, CTX) - a).is_zero()


def test_horizontal_projection_rejects_dt():
    a = Form.generator(CTX.chart, T)
    with pytest.raises(JetvarError):
        horizontal_projection(a, CTX)


def test_dH_h0_equals_h0_d(rng):
    for degree in (0, 1):
        for _ in range(6):
            a = random_form(CTX, degree, rng)
            lhs = horizontal_differential(horizontal_projection(a, CTX), CTX)
            rhs = horizontal_projection(exterior_d(a), CTX)
            assert (lhs - rhs).is_zero()


def test_dH_squared_is_zero(rng):
    for _ in range(6):
        a = horizontal_projection(random_form(CTX, 0, rng), CTX)
        assert horizontal_differential(
            horizontal_differential(a, CTX), CTX).is_zero()


def test_prolongation_components():
    f = Poly.var(conn(0, 0)) * Poly.var(x(1))
    j = prolong({conn(0, 0): f}, CTX, order=1)
    assert j[conn(0, 0)] == f
    for lam in range(CTX.n):
        assert j[conn(0, 0, (lam,))] == total_derivative(f, lam, CTX)
    # other fields untouched
    assert conn(0, 1) not in j


def test_prolongation_is_linear(rng):
    u = random_vertical_field(CTX, rng)
    v = random_vertical_field(CTX, rng)
    w = {c: u.get(c, Poly.zero()) + v.get(c, Poly.zero())
         for c in set(u) | set(v)}
    ju, jv, jw = (prolong(z, CTX, order=1) for z in (u, v, w))
    for c in set(ju) | set(jv) | set(jw):
        assert jw.get(c, Poly.zero()) == \
            ju.get(c, Poly.zero()) + jv.get(c, Poly.zero())


def test_prolongation_preserves_brackets(rng):
    # J1 of [u, v] equals the bracket of the prolongations, componentwise
    u = random_vertical_field(CTX, rng)
    v = random_vertical_field(CTX, rng)
    ju = prolong(u, CTX, order=1)
    jv = prolong(v, CTX, order=1)
    w = {}
    for c in CTX.field_coords(0):
        comp = apply_derivation(ju, jv.get(c, Poly.zero()).gradient()) \
            - apply_derivation(jv, ju.get(c, Poly.zero()).gradient())
        if comp:
            w[c] = comp
    jw = prolong(w, CTX, order=1)
    for c in CTX.field_coords(0) + CTX.field_coords(1):
        direct = apply_derivation(ju, jv.get(c, Poly.zero()).gradient()) \
            - apply_derivation(jv, ju.get(c, Poly.zero()).gradient())
        assert jw.get(c, Poly.zero()) == direct
