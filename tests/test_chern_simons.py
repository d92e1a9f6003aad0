"""Curvature identities, characteristic forms, and the transgression
construction of the CS Lagrangian."""

from fractions import Fraction as Q

import pytest

from jetvar.algebra import builtin_algebra, builtin_invariant, gauge_generator
from jetvar.chern_simons import (CSData, _interp_curvature, _slot_contraction,
                                 background_curvature,
                                 canonical_curvature, characteristic_at_B,
                                 characteristic_form, cs_form, cs_lagrangian,
                                 cs_lagrangian_direct)
from jetvar.errors import JetvarError
from jetvar.forms import exterior_d, lie_derivative_form, wedge
from jetvar.variational import Lagrangian, euler_lagrange
import oracles


def _model(alg, inv, k, background="symbolic", h=1):
    g = builtin_algebra(alg)
    b = builtin_invariant(inv, g, k)
    return CSData(g, b, k, background=background, h=h)


def test_csdata_validation():
    g = builtin_algebra("su2")
    b = builtin_invariant("killing", g, 2)
    with pytest.raises(JetvarError):
        CSData(g, b, 1)
    with pytest.raises(JetvarError):
        CSData(g, b, 3)  # tensor degree mismatch
    with pytest.raises(JetvarError):
        CSData(g, b, 2, background="random")


def test_bianchi_identity_for_the_canonical_curvature():
    cs = _model("su2", "killing", 2)
    F = canonical_curvature(cs)
    for r in range(3):
        rhs = None
        for p in range(3):
            for q in range(3):
                cval = cs.algebra.bracket_const(r, p, q)
                if cval:
                    term = wedge(F[p], cs.potential_one_form(q)).scale(cval)
                    rhs = term if rhs is None else rhs + term
        assert (exterior_d(F[r]) - rhs).is_zero()


def test_bianchi_identity_for_the_background_curvature():
    cs = _model("su2", "killing", 2)
    FB = background_curvature(cs)
    for r in range(3):
        rhs = None
        for p in range(3):
            for q in range(3):
                cval = cs.algebra.bracket_const(r, p, q)
                if cval:
                    term = wedge(FB[p], cs.background_one_form(q)).scale(cval)
                    rhs = term if rhs is None else rhs + term
        assert (exterior_d(FB[r]) - rhs).is_zero()


def test_characteristic_form_is_closed():
    for args in (("su2", "killing", 2), ("u1", "unit", 3)):
        cs = _model(*args)
        assert exterior_d(characteristic_form(cs)).is_zero()


def test_characteristic_form_is_gauge_invariant():
    cs = _model("su2", "killing", 2)
    xi_C = gauge_generator(cs.algebra, cs.ctx)
    assert lie_derivative_form(xi_C, characteristic_form(cs)).is_zero()


def test_characteristic_form_at_the_section_vanishes():
    # a 2k-form pulled back to the (2k-1)-dimensional base
    for args in (("su2", "killing", 2), ("u1", "unit", 3)):
        assert characteristic_at_B(_model(*args)).is_zero()


@pytest.mark.parametrize("alg,inv,k", [
    ("u1", "unit", 2), ("su2", "killing", 2), ("u1", "unit", 3),
    ("u1+su2", "u1su2-cubic", 3)])
def test_characteristic_forms_match_the_multiset_oracle(alg, inv, k):
    # the first-slot sum over ordered r1 against the multiset sum; P(F_B)
    # vanishes on the base, P(F(t)) of the interpolated curvature does not
    cs = _model(alg, inv, k)
    P = characteristic_form(cs)
    assert not P.is_zero()
    assert P == oracles.invariant_contraction(cs, canonical_curvature(cs))
    for curv in (background_curvature(cs), _interp_curvature(cs)):
        assert (_slot_contraction(cs, [curv], curv)
                == oracles.invariant_contraction(cs, curv))


@pytest.mark.parametrize("alg,inv,k", [
    ("u1", "unit", 2), ("su2", "killing", 2), ("u1", "unit", 3)])
def test_transgression_formula(alg, inv, k):
    cs = _model(alg, inv, k)
    S = cs_form(cs)
    residual = exterior_d(S) - (characteristic_form(cs) - characteristic_at_B(cs))
    assert residual.is_zero()


def test_transgression_formula_zero_background():
    cs = _model("su2", "killing", 2, background="zero")
    assert (exterior_d(cs_form(cs)) - characteristic_form(cs)).is_zero()


@pytest.mark.parametrize("alg,inv,k", [
    ("su2", "killing", 2), ("u1", "unit", 3)])
def test_lagrangian_routes_agree(alg, inv, k):
    cs = _model(alg, inv, k, h=Q(1, 3))
    assert (cs_lagrangian(cs) - cs_lagrangian_direct(cs)).is_zero()


def test_abelian_cs_form_without_background_is_a_wedge_da():
    cs = _model("u1", "unit", 2, background="zero")
    a = cs.potential_one_form(0)
    assert (cs_form(cs) - wedge(a, exterior_d(a))).is_zero()


def test_h_scales_the_lagrangian_linearly():
    one = cs_lagrangian(_model("su2", "killing", 2, h=1))
    third = cs_lagrangian(_model("su2", "killing", 2, h=Q(1, 3)))
    assert (one - third.scale(Q(3))).is_zero()


def test_3d_lagrangian_matches_the_displayed_density():
    from jetvar.reference3d import cs_density_3d
    for background in ("zero", "symbolic"):
        cs = _model("su2", "killing", 2, background=background, h=Q(1, 2))
        L = Lagrangian.from_horizontal_form(cs.ctx, cs_lagrangian(cs))
        assert L.density == cs_density_3d(cs.algebra, Q(1, 2), cs.ctx,
                                          background == "symbolic")


def test_euler_lagrange_background_independence_u1_k2():
    els = []
    for background in ("symbolic", "zero"):
        cs = _model("u1", "unit", 2, background=background)
        L = Lagrangian.from_horizontal_form(cs.ctx, cs_lagrangian(cs))
        els.append(euler_lagrange(L, cs.ctx))
    for i in els[0]:
        assert els[0][i] == els[1][i]


def test_abelian_el_components_are_the_contracted_strength():
    # k=2, B=0, h: delta L / delta a_mu = 2 h eps^{mu beta gamma} a_{gamma;beta}
    from jetvar.indets import conn
    from jetvar.polynomial import Poly
    from jetvar.reference3d import levi_civita
    h = Q(3, 2)
    cs = _model("u1", "unit", 2, background="zero", h=h)
    L = Lagrangian.from_horizontal_form(cs.ctx, cs_lagrangian(cs))
    el = euler_lagrange(L, cs.ctx)
    for mu in range(3):
        expected = Poly.zero()
        for be in range(3):
            for ga in range(3):
                e = levi_civita(mu, be, ga)
                if e:
                    expected = expected + 2 * h * e * Poly.var(conn(0, ga, (be,)))
        assert el[conn(0, mu)] == expected
