"""Acceptance suite.  One test per criterion, each ending in a single
pass/fail line (run with -s to see them).  Every check is an exact identity:
pass means the residual is literally zero, never small."""

import random
import time
from fractions import Fraction as Q

import pytest

from jetvar.algebra import (InvariantTensor, builtin_algebra, builtin_invariant,
                            check_invariant_tensor, gauge_generator,
                            load_lie_algebra)
from jetvar.chern_simons import (CSData, characteristic_at_B,
                                 characteristic_form, cs_form, cs_lagrangian)
from jetvar.errors import JacobiViolation
from jetvar.forms import Form, exterior_d
from jetvar.indets import matter, x
from jetvar.jets import JetContext, horizontal_projection
from jetvar.polynomial import Poly
from jetvar.random_inputs import random_density, random_poly, \
    random_vertical_field
from jetvar.variational import (Lagrangian, euler_lagrange,
                                first_variational_check,
                                lie_derivative_lagrangian, noether_current)
from oracles import (conservation_with_sigma, horizontal_differential,
                     random_form, unscaled)
from test_variational import summed_sigma

CASES = [("u1", "unit", 2), ("su2", "killing", 2), ("u1", "unit", 3),
         ("u1+su2", "u1su2-cubic", 3)]


def _model(alg, inv, k, background="symbolic", h=1):
    g = builtin_algebra(alg)
    return CSData(g, builtin_invariant(inv, g, k), background=background, h=h)


def _report(name, ok, seconds):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({seconds:.1f}s)")
    assert ok


def test_criterion_1_transgression_formula_exact_zero():
    t0 = time.perf_counter()
    for alg, inv, k in CASES:
        t1 = time.perf_counter()
        cs = _model(alg, inv, k)
        residual = exterior_d(cs_form(cs)) \
            - (characteristic_form(cs) - characteristic_at_B(cs))
        case_s = time.perf_counter() - t1
        assert residual.is_zero(), f"{alg} k={k}"
        assert case_s < 60, f"{alg} k={k} took {case_s:.1f}s"
    _report("1 (transgression, 4 cases, residual exactly zero)",
            True, time.perf_counter() - t0)


def test_criterion_2_first_variational_formula_on_100_random_instances():
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    ctxs = {n: JetContext(n, 2, matter_dim=1) for n in (1, 2, 3)}
    failures = 0
    for i in range(102):
        ctx = ctxs[1 + i % 3]
        L = Lagrangian(ctx, random_density(ctx, rng))
        u = random_vertical_field(ctx, rng)
        if not first_variational_check(L, u).passed:
            failures += 1
    seconds = time.perf_counter() - t0
    assert seconds < 120
    _report("2 (first variational formula, 102 random instances, "
            "residual exactly zero)", failures == 0, seconds)


def test_criterion_3_3d_reproduction_of_the_displayed_formulas():
    from jetvar.reference3d import (current_discrepancy_primitive,
                                    modified_current_components_3d)
    from oracles import (cs_density_3d, lie_derivative_density_3d,
                         noether_components_3d)
    t0 = time.perf_counter()
    h = Q(1)
    cs = _model("su2", "killing", 2, h=h)
    ctx, g = cs.ctx, cs.algebra
    # the model's forms are cs.scale times their values
    lag = unscaled(cs_lagrangian(cs), cs)
    L = Lagrangian.from_horizontal_form(lag)
    xi_C = gauge_generator(g, ctx)

    density_ok = (lag.coefficient(ctx.volume_key())
                  == cs_density_3d(g, h, ctx, True))

    lie = lie_derivative_lagrangian(L, xi_C)
    vol_key = next(iter(ctx.volume_form(Poly.const(1)).terms))
    lie_ok = lie.coefficient(vol_key) == lie_derivative_density_3d(g, h, ctx, True)

    J = ctx.current_components(noether_current(L, xi_C))
    noether_ok = J == noether_components_3d(g, h, True)

    sigma = unscaled(summed_sigma(cs), cs)
    _, modified = conservation_with_sigma(L, xi_C, sigma)
    diff = modified - ctx.current_form(modified_current_components_3d(g, h))
    prim = current_discrepancy_primitive(g, h, ctx)
    # convention shift reported in closed form: diff = d_H(-2h kappa xi B dx)
    diff_ok = (diff - horizontal_differential(prim)).is_zero()

    _report("3 (3D displays: density, Lie derivative, Noether current match; "
            "modified-current difference is d_H of the stated primitive)",
            density_ok and lie_ok and noether_ok and diff_ok,
            time.perf_counter() - t0)


def test_criterion_4_conservation_identity_all_cases():
    t0 = time.perf_counter()
    for alg, inv, k in CASES:
        t1 = time.perf_counter()
        cs = _model(alg, inv, k)
        xi_C = gauge_generator(cs.algebra, cs.ctx)
        S = cs_form(cs)
        sigma = summed_sigma(cs)
        L = Lagrangian.from_horizontal_form(horizontal_projection(S))
        report, _ = conservation_with_sigma(L, xi_C, sigma)
        case_s = time.perf_counter() - t1
        assert report.passed, f"{alg} k={k}: {report.residual}"
        if k == 3:
            assert case_s < 600, f"5D case {alg} took {case_s:.1f}s"
    _report("4 (conservation d_H(J - sigma) + u.(delta L) = 0, 4 cases)",
            True, time.perf_counter() - t0)


def test_criterion_5_euler_lagrange_background_independence():
    t0 = time.perf_counter()
    ok = True
    for alg, inv, k in (("su2", "killing", 2), ("u1", "unit", 3)):
        els = []
        for background in ("symbolic", "zero"):
            cs = _model(alg, inv, k, background=background)
            L = Lagrangian.from_horizontal_form(cs_lagrangian(cs))
            els.append(euler_lagrange(L))
        ok &= all(els[0][i] == els[1][i] for i in els[0])
    _report("5 (Euler-Lagrange background independence, su2 k=2 and u1 k=3)",
            ok, time.perf_counter() - t0)


def test_criterion_6_structural_suite_with_negative_controls():
    t0 = time.perf_counter()
    rng = random.Random(7)
    ctx = JetContext(2, 1, matter_dim=1)

    # d o d = 0 and d_H o h0 = h0 o d on random forms
    for degree in (0, 1):
        for _ in range(10):
            a = random_form(ctx, degree, rng)
            assert exterior_d(exterior_d(a)).is_zero()
            lhs = horizontal_differential(horizontal_projection(a))
            assert (lhs - horizontal_projection(exterior_d(a))).is_zero()

    # Jacobi validation plus a mutated negative control
    builtin_algebra("su2")
    with pytest.raises(JacobiViolation):
        load_lie_algebra(3, [(0, 1, 2, 1), (1, 0, 1, 1)])

    # invariant-tensor validation plus a mutated negative control
    g = builtin_algebra("su2")
    assert check_invariant_tensor(g, builtin_invariant("killing", g, 2)) == {}
    mutated = InvariantTensor(2, {(0, 0): Q(-2), (1, 1): Q(-2), (2, 2): Q(-3)})
    assert check_invariant_tensor(g, mutated)

    # delta(h0(closed n-form)) = 0, with a non-exact negative control
    pool0 = [x(lam) for lam in range(ctx.n)] + ctx.field_coords(0)
    for _ in range(10):
        gens = tuple(sorted(rng.sample(pool0, ctx.n - 1)))
        eta = Form(ctx, {gens: random_poly(pool0, rng, max_monomials=3)})
        L = Lagrangian.from_horizontal_form(
            horizontal_projection(exterior_d(eta)))
        assert all(not v for v in euler_lagrange(L).values())
    live = Lagrangian(ctx, Poly.var(matter(0), 2))
    assert any(v for v in euler_lagrange(live).values())

    # first-variational negative control: a corrupted boundary term is caught
    L = Lagrangian(ctx, Poly.var(matter(0, (0,))) * Poly.var(matter(0, (1,))))
    u = {matter(0): Poly.var(matter(0))}
    assert first_variational_check(L, u).passed
    lie = lie_derivative_lagrangian(L, u)
    el = euler_lagrange(L)
    s = Poly.zero()
    for i, ui in u.items():
        s = s + ui * el[i]
    el_form = ctx.volume_form(s)
    bad = noether_current(L, u).scale(Q(2))
    assert not (lie - el_form - horizontal_differential(bad)).is_zero()

    _report("6 (structural suite: d^2=0, d_H h0 = h0 d, Jacobi, tensor "
            "invariance, variational triviality; mutations detected)",
            True, time.perf_counter() - t0)
