"""Lie-algebra data validation, Killing forms, invariant tensors, gauge
generators, and the section bracket."""

from fractions import Fraction as Q
from itertools import product

import pytest

from jetvar.algebra import (InvariantTensor, builtin_algebra, builtin_invariant,
                            check_invariant_tensor, direct_sum, gauge_generator,
                            killing_form, load_lie_algebra, section_bracket)
from jetvar.errors import (AntisymmetryViolation, JacobiViolation, JetvarError)
from jetvar.forms import apply_derivation
from jetvar.indets import conn, gauge
from jetvar.jets import JetContext
from jetvar.polynomial import Poly


def test_su2_loads_and_so3_is_an_alias():
    g = builtin_algebra("su2")
    assert g.dim == 3
    assert builtin_algebra("so3").c == g.c
    assert g.bracket_const(2, 0, 1) == 1
    assert g.bracket_const(2, 1, 0) == -1


def test_abelian_families():
    assert builtin_algebra("u1").dim == 1
    assert builtin_algebra("u1^4").dim == 4
    assert not builtin_algebra("u1^4").c


def test_direct_sum_blocks():
    g = builtin_algebra("u1+su2")
    assert g.dim == 4
    # su2 block shifted by one, no cross terms
    assert g.bracket_const(3, 1, 2) == 1
    for r, p in product(range(4), repeat=2):
        assert g.bracket_const(r, 0, p) == 0


def test_unknown_algebra_rejected():
    with pytest.raises(JetvarError):
        builtin_algebra("g2")


def test_antisymmetry_violation_detected():
    with pytest.raises(AntisymmetryViolation):
        load_lie_algebra(2, [(0, 0, 1, 1), (0, 1, 0, 1)])


def test_jacobi_violation_detected():
    # [e1,e2]=e0, [e0,e1]=e1 breaks Jacobi on (0,1,2)
    with pytest.raises(JacobiViolation):
        load_lie_algebra(3, [(0, 1, 2, 1), (1, 0, 1, 1)])


def test_rescaled_epsilon_still_satisfies_jacobi():
    # basis rescaling keeps the algebra valid
    g = load_lie_algebra(3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 2)])
    assert g.dim == 3


def test_killing_form_su2():
    kappa = killing_form(builtin_algebra("su2"))
    for i in range(3):
        for j in range(3):
            assert kappa[i][j] == (Q(-2) if i == j else Q(0))


def test_killing_form_abelian_is_zero():
    kappa = killing_form(builtin_algebra("u1^2"))
    assert all(v == 0 for row in kappa for v in row)


def test_killing_tensor_is_invariant():
    g = builtin_algebra("su2")
    b = builtin_invariant("killing", g, 2)
    assert check_invariant_tensor(g, b) == {}


def test_perturbed_tensor_detected_as_noninvariant():
    g = builtin_algebra("su2")
    b = InvariantTensor(2, {(0, 0): Q(-2), (1, 1): Q(-2), (2, 2): Q(-1)})
    assert check_invariant_tensor(g, b)


def test_unit_tensor_on_su2_is_not_invariant():
    g = builtin_algebra("su2")
    b = builtin_invariant("unit", g, 2)
    assert check_invariant_tensor(g, b)


def test_cubic_tensor_on_u1su2_is_invariant():
    g = builtin_algebra("u1+su2")
    b = builtin_invariant("u1su2-cubic", g, 3)
    assert b.degree == 3
    assert b.value((0, 0, 0)) == 1
    assert b.value((0, 1, 1)) == -2
    assert b.value((1, 0, 1)) == -2  # symmetric access
    assert check_invariant_tensor(g, b) == {}


def test_gauge_generator_components():
    g = builtin_algebra("su2")
    ctx = JetContext(3, 3, jet_order=2)
    xi_C = gauge_generator(g, ctx)
    comp = xi_C[conn(0, 1)]
    expected = Poly.var(gauge(0, (1,))) \
        + Poly.var(conn(1, 1)) * Poly.var(gauge(2)) \
        - Poly.var(conn(2, 1)) * Poly.var(gauge(1))
    assert comp == expected


def test_gauge_generator_with_explicit_params():
    g = builtin_algebra("u1")
    ctx = JetContext(3, 1, jet_order=2)
    from jetvar.indets import x
    params = [Poly.var(x(0)) * Poly.var(x(2))]
    xi_C = gauge_generator(g, ctx, params=params)
    assert xi_C[conn(0, 0)] == Poly.var(x(2))
    assert xi_C.get(conn(0, 1), Poly.zero()) == Poly.zero()
    assert xi_C[conn(0, 2)] == Poly.var(x(0))


def test_gauge_generators_close_under_the_section_bracket():
    # [xi_C, eta_C] = ([xi,eta])_C on x-dependent parameters
    g = builtin_algebra("su2")
    ctx = JetContext(3, 3, jet_order=2)
    from jetvar.indets import x
    xi = [Poly.var(x(0)), Poly.var(x(1), 2), Poly.const(Q(1, 2))]
    eta = [Poly.var(x(2)), Poly.const(1), Poly.var(x(0)) * Poly.var(x(1))]
    xi_C = gauge_generator(g, ctx, params=xi)
    eta_C = gauge_generator(g, ctx, params=eta)
    bracket_C = gauge_generator(g, ctx, params=section_bracket(xi, eta, g))
    for c in ctx.field_coords(0):
        direct = apply_derivation(xi_C, eta_C.get(c, Poly.zero()).gradient()) \
            - apply_derivation(eta_C, xi_C.get(c, Poly.zero()).gradient())
        assert direct == bracket_C.get(c, Poly.zero())


def test_section_bracket_is_antisymmetric():
    g = builtin_algebra("su2")
    xi = [Poly.var(gauge(r)) for r in range(3)]
    eta = [Poly.var(gauge(r)) * Poly.var(gauge(r)) for r in range(3)]
    lhs = section_bracket(xi, eta, g)
    rhs = section_bracket(eta, xi, g)
    for a, b in zip(lhs, rhs):
        assert a == -b
