"""Euler-Lagrange operator (with an independent interpolation oracle), the
first variational formula, Noether currents, the boundary term sigma (with
the fiberwise homotopy route as its oracle), and the conservation law."""

import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from jetvar import cli
from jetvar.algebra import (InvariantTensor, builtin_algebra, builtin_invariant,
                            gauge_generator)
from jetvar.chern_simons import (CSData, _slot_contraction, canonical_curvature,
                                 characteristic_form, cs_form, cs_lagrangian,
                                 homotopy)
from jetvar.errors import (JetvarError, NonzeroResidual, NotInvariant,
                           SigmaMismatch)
from jetvar.forms import Form, contract, exterior_d, wedge
from jetvar.indets import conn, gauge, matter, with_extra_deriv, x
from jetvar.jets import (JetContext, horizontal_differential,
                         horizontal_projection, total_derivative)
from jetvar.polynomial import Poly, Q
from jetvar.random_inputs import random_density, random_form, \
    random_vertical_field
from jetvar.variational import (Current, Lagrangian, conservation_check,
                                euler_lagrange, first_variational_check,
                                invariant_sector, lie_derivative_lagrangian,
                                noether_current, poincare_cartan,
                                sigma_boundary_term)
import oracles
from oracles import NotClosed, evaluate, fiber_homotopy, section_correction

CTX2 = JetContext(2, 1, matter_dim=1, jet_order=2)


# -- independent Euler-Lagrange oracle ---------------------------------
#
# Differentiation by exact univariate interpolation of the evaluation map:
# sample the density along one variable at deg+1 rational nodes, solve the
# Vandermonde system over Fraction, and read off the derivative.  Total
# derivatives are assembled by the chain rule over sampled values only, so
# nothing here reuses a symbolic partial or total_derivative.

def _solve_vandermonde(nodes, values):
    n = len(nodes)
    rows = [[Fraction(t) ** i for i in range(n)] + [values[j]]
            for j, t in enumerate(nodes)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def _num_partial(fun, point, v, deg=6):
    nodes = [Fraction(j) for j in range(deg + 1)]
    values = []
    saved = point[v]
    for t in nodes:
        point[v] = t
        values.append(fun(point))
    point[v] = saved
    coeffs = _solve_vandermonde(nodes, values)
    x0 = point[v]
    return sum(i * c * x0 ** (i - 1) for i, c in enumerate(coeffs) if i)


class _LazyPoint(dict):
    def __init__(self, rng):
        super().__init__()
        self._rng = rng

    def __missing__(self, v):
        val = Fraction(self._rng.randint(-4, 4), self._rng.randint(1, 3))
        self[v] = val
        return val


def _oracle_el_value(density, ctx, i, point):
    def fun(q):
        return evaluate(density, q)

    total = _num_partial(fun, point, i)
    variables = sorted(density.indets())
    for lam in range(ctx.n):
        jet = with_extra_deriv(i, lam)

        def dldj(q, jet=jet):
            return _num_partial(fun, q, jet)

        # d_lam of dldj via the chain rule on sampled values
        d = _num_partial(dldj, point, x(lam))
        for v in variables:
            if v[0] == 0:  # x-coordinates were handled above
                continue
            # field jets and function symbols gain a derivative index
            d += _num_partial(dldj, point, v) * point[with_extra_deriv(v, lam)]
        total -= d
    return total


def test_euler_lagrange_matches_the_interpolation_oracle():
    rng = random.Random(11)
    for trial in range(8):
        density = random_density(CTX2, rng)
        el = euler_lagrange(Lagrangian(CTX2, density), CTX2)
        point = _LazyPoint(random.Random(100 + trial))
        for i in CTX2.field_coords(0):
            got = evaluate(el[i], point)
            want = _oracle_el_value(density, CTX2, i, point)
            assert got == want


def test_euler_lagrange_of_a_harmonic_density():
    z = matter(0)
    density = sum((Poly.var(matter(0, (lam,))) ** 2 for lam in range(2)),
                  Poly.zero())
    el = euler_lagrange(Lagrangian(CTX2, density), CTX2)
    expected = -2 * (Poly.var(matter(0, (0, 0))) + Poly.var(matter(0, (1, 1))))
    assert el[z] == expected


def test_lagrangian_rejects_higher_order_densities():
    with pytest.raises(JetvarError):
        Lagrangian(CTX2, Poly.var(matter(0, (0, 0))))


def test_poincare_cartan_projects_back_to_the_lagrangian():
    rng = random.Random(12)
    for _ in range(6):
        L = Lagrangian(CTX2, random_density(CTX2, rng))
        assert (horizontal_projection(poincare_cartan(L, CTX2), CTX2)
                - L.form()).is_zero()


def test_noether_current_example():
    # J^lam = u^i partial^lam_i of the density
    density = Poly.var(matter(0, (0,))) * Poly.var(matter(0, (1,)))
    u = {matter(0): Poly.var(matter(0))}
    J = noether_current(Lagrangian(CTX2, density), u, CTX2)
    assert J.components[0] == Poly.var(matter(0)) * Poly.var(matter(0, (1,)))
    assert J.components[1] == Poly.var(matter(0)) * Poly.var(matter(0, (0,)))


def test_first_variational_formula_on_random_instances():
    rng = random.Random(13)
    ctxs = [JetContext(n, 2, matter_dim=1, jet_order=2) for n in (1, 2, 3)]
    for trial in range(30):
        ctx = ctxs[trial % 3]
        L = Lagrangian(ctx, random_density(ctx, rng))
        u = random_vertical_field(ctx, rng)
        report = first_variational_check(L, u, ctx)
        assert report.passed, report.residual


def test_first_variational_detects_a_broken_boundary_term():
    # negative control: scale the current and recheck the decomposition
    rng = random.Random(14)
    L = Lagrangian(CTX2, random_density(CTX2, rng))
    u = random_vertical_field(CTX2, rng)
    lie = lie_derivative_lagrangian(L, u, CTX2)
    el = euler_lagrange(L, CTX2)
    s = Poly.zero()
    for i, ui in u.items():
        s = s + ui * el[i]
    el_form = CTX2.volume_form(s)
    bad = noether_current(L, u, CTX2).form().scale(Q(2))
    residual = lie - el_form - horizontal_differential(bad, CTX2)
    assert not residual.is_zero()


def test_variational_triviality_of_horizontal_projections_of_exact_forms():
    # delta(h0(d eta)) = 0: exact n-forms have empty field equations
    rng = random.Random(15)
    from jetvar.indets import is_field_jet, multi_index
    from jetvar.random_inputs import random_poly
    pool0 = [c for c in CTX2.chart.coords
             if c[0] == 0 or (is_field_jet(c) and not multi_index(c))]
    for _ in range(6):
        # order-0 coefficients keep h0(d eta) first-order
        gens = tuple(sorted(rng.sample(pool0, CTX2.n - 1)))
        eta = Form(CTX2.chart, CTX2.n - 1,
                   {gens: random_poly(pool0, rng, max_monomials=3)})
        L = Lagrangian.from_horizontal_form(
            CTX2, horizontal_projection(exterior_d(eta), CTX2))
        el = euler_lagrange(L, CTX2)
        assert all(not v for v in el.values()), str(L.density)


# -- the fiber homotopy oracle --------------------------------------------


def _su2_model(background="symbolic"):
    g = builtin_algebra("su2")
    return CSData(g, builtin_invariant("killing", g, 2), 2,
                  background=background)


def test_fiber_homotopy_recovers_a_primitive():
    cs = _su2_model("zero")
    ch = cs.ctx.chart
    alpha = wedge(Form(ch, 0, {(): Poly.var(conn(0, 0))}),
                  wedge(Form.generator(ch, conn(1, 1)),
                        Form.generator(ch, x(2))))
    omega = exterior_d(alpha)
    psi = fiber_homotopy(omega, cs)
    assert (exterior_d(psi) - omega).is_zero()


def test_fiber_homotopy_rejects_non_closed_forms():
    cs = _su2_model("zero")
    ch = cs.ctx.chart
    not_closed = wedge(Form(ch, 0, {(): Poly.var(conn(0, 0))}),
                       Form.generator(ch, conn(1, 1)))
    with pytest.raises(NotClosed):
        fiber_homotopy(not_closed, cs)


def test_fiber_homotopy_rejects_forms_alive_on_the_section():
    cs = _su2_model("zero")
    ch = cs.ctx.chart
    base_area = wedge(Form.generator(ch, x(0)), Form.generator(ch, x(1)))
    with pytest.raises(NonzeroResidual):
        fiber_homotopy(base_area, cs)


# -- sigma: the descent route against the fiber homotopy oracle -----------

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted(p.relative_to(ROOT).as_posix()
                 for d in ("configs", "tests/configs")
                 for p in (ROOT / d).glob("*.json")
                 if "algebra" in cli.load_config(str(p)))


def _x(i):
    return Poly.var(x(i))


# every symmetric tensor is ad-invariant on an abelian algebra
U1SQ_MIXED = InvariantTensor(3, {(0, 0, 0): Q(1), (0, 0, 1): Q(2),
                                 (0, 1, 1): Q(-1), (1, 1, 1): Q(3)})
U1SQ_CROSS = InvariantTensor(3, {(0, 0, 1): Q(1, 2), (1, 1, 1): Q(-2)})

# name -> (algebra, invariant, k, CSData keywords, explicit gauge parameters)
VARIANTS = {
    "u1^2_k3_h2/5": ("u1^2", U1SQ_MIXED, 3, {"h": Q(2, 5)}, None),
    "u1^2_k3_zero_background": ("u1^2", U1SQ_CROSS, 3,
                                {"background": "zero"}, None),
    "su2_zero_params": ("su2", "killing", 2, {}, [Poly.zero()] * 3),
    "su2_zero_background_h3/7": ("su2", "killing", 2,
                                 {"background": "zero", "h": Q(3, 7)}, None),
    "u1su2_k3_zero_background": ("u1+su2", "u1su2-cubic", 3,
                                 {"background": "zero"}, None),
    "u1su2_killing": ("u1+su2", "killing", 2, {}, None),
    "u1_k2_x_params": ("u1", "unit", 2, {}, [_x(0) * _x(1) + _x(2) ** 2]),
    "su2_k2_x_params": ("su2", "killing", 2, {},
                        [_x(0), _x(1) * _x(2), Poly.const(3)]),
    "u1_k3_x_params": ("u1", "unit", 3, {}, [_x(0) * _x(4) - _x(2)]),
}


def _sigma_case(name):
    """(CSData, explicit gauge parameters or None) of a shipped config path
    or a VARIANTS name."""
    if name in VARIANTS:
        alg, inv, k, kw, params = VARIANTS[name]
        g = builtin_algebra(alg)
        b = inv if isinstance(inv, InvariantTensor) else builtin_invariant(inv, g, k)
        return CSData(g, b, k, **kw), params
    cfg = cli.load_config(str(ROOT / name))
    cs, _ = cli.build_model(cfg)
    return cs, cli.config_gauge_params(cfg, cs)[1]


@pytest.mark.parametrize("name", SHIPPED + list(VARIANTS))
def test_sigma_matches_the_fiber_homotopy_oracle(name):
    # d_H sigma cannot see a d-exact change of psi - d eta, so only this
    # comparison pins eta
    cs, params = _sigma_case(name)
    xi_C = gauge_generator(cs.algebra, cs.ctx, params=params)
    S = cs_form(cs)
    sigma = sigma_boundary_term(cs, xi_C, params=params, S=S)
    assert sigma == oracles.sigma_boundary_term(cs, xi_C, params=params, S=S)
    vacuous = cs.h == 0 or params == [Poly.zero()] * cs.algebra.dim
    assert sigma.is_zero() == vacuous


@pytest.mark.parametrize("name", SHIPPED + list(VARIANTS))
def test_homotopy_matches_the_pullback_oracle(name):
    # the closed form of H on the descent primitive b(k xi, F, ..., F) and
    # on P(F) = b(F, ..., F), whose H is the transgression form S
    cs, params = _sigma_case(name)
    head = oracles.gauge_head(cs, params)
    psi = _slot_contraction(cs, [head], canonical_curvature(cs))
    assert homotopy(cs, [head]) == oracles.homotopy_operator(psi, cs)
    assert cs_form(cs) == oracles.homotopy_operator(characteristic_form(cs), cs)


@pytest.mark.parametrize("background", ["symbolic", "zero"])
def test_sigma_rejects_a_non_invariant_tensor(background):
    # without ad-invariance psi is no primitive of xi_C . dS
    g = builtin_algebra("su2")
    cs = CSData(g, builtin_invariant("unit", g, 2), 2, background=background)
    assert cs.invariance_residual
    with pytest.raises(NonzeroResidual, match="descent residual"):
        sigma_boundary_term(cs, gauge_generator(g, cs.ctx))


# -- sigma and the conservation law -------------------------------------


def test_sigma_satisfies_its_defining_identity():
    cs = _su2_model()
    xi_C = gauge_generator(cs.algebra, cs.ctx)
    S = cs_form(cs)
    sigma = sigma_boundary_term(cs, xi_C, S=S)
    L = Lagrangian.from_horizontal_form(
        cs.ctx, horizontal_projection(S, cs.ctx))
    lie = lie_derivative_lagrangian(L, xi_C, cs.ctx)
    assert (horizontal_differential(sigma, cs.ctx) - lie).is_zero()


@pytest.mark.parametrize("alg,inv,k", [("u1", "unit", 2), ("su2", "killing", 2)])
def test_conservation_law(alg, inv, k):
    g = builtin_algebra(alg)
    cs = CSData(g, builtin_invariant(inv, g, k), k)
    xi_C = gauge_generator(g, cs.ctx)
    S = cs_form(cs)
    sigma = sigma_boundary_term(cs, xi_C, S=S)
    L = Lagrangian.from_horizontal_form(
        cs.ctx, horizontal_projection(S, cs.ctx))
    report, modified = conservation_check(L, xi_C, sigma, cs.ctx)
    assert report.passed, report.residual
    assert modified.degree == cs.n - 1


def test_conservation_with_explicit_gauge_parameters():
    g = builtin_algebra("u1")
    cs = CSData(g, builtin_invariant("unit", g, 2), 2)
    params = [Poly.var(x(0)) * Poly.var(x(1)) + Poly.var(x(2), 2)]
    xi_C = gauge_generator(g, cs.ctx, params=params)
    S = cs_form(cs)
    sigma = sigma_boundary_term(cs, xi_C, params=params, S=S)
    L = Lagrangian.from_horizontal_form(
        cs.ctx, horizontal_projection(S, cs.ctx))
    report, _ = conservation_check(L, xi_C, sigma, cs.ctx)
    assert report.passed, report.residual


def test_zero_gauge_parameters_give_a_zero_current():
    g = builtin_algebra("su2")
    cs = CSData(g, builtin_invariant("killing", g, 2), 2)
    params = [Poly.zero()] * 3
    xi_C = gauge_generator(g, cs.ctx, params=params)
    sigma = sigma_boundary_term(cs, xi_C, params=params)
    L = Lagrangian.from_horizontal_form(cs.ctx, cs_lagrangian(cs))
    report, modified = conservation_check(L, xi_C, sigma, cs.ctx)
    assert report.passed
    assert report.vacuous
    assert modified.is_zero()


def test_sigma_post_check_uses_the_given_lagrangian():
    cs = _su2_model()
    xi_C = gauge_generator(cs.algebra, cs.ctx)
    S = cs_form(cs)
    L = Lagrangian.from_horizontal_form(
        cs.ctx, horizontal_projection(S, cs.ctx))
    assert sigma_boundary_term(cs, xi_C, S=S, L=L) == \
        sigma_boundary_term(cs, xi_C, S=S)
    # the post-check compares d_H sigma with the Lie derivative of this L
    with pytest.raises(SigmaMismatch):
        sigma_boundary_term(cs, xi_C, S=S, L=L + L)


def _assert_stored_form(a: Form):
    """Every coefficient is a nonzero int, or a Fraction that is not one."""
    for p in a.terms.values():
        for c in p.terms.values():
            assert c
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


@pytest.mark.parametrize("h,kinds", [(1, {int}), (Q(1, 4), {int, Fraction})])
def test_pipeline_coefficients_are_int_unless_fractional(h, kinds):
    g = builtin_algebra("su2")
    cs = CSData(g, builtin_invariant("killing", g, 2), 2, h=h)
    xi_C = gauge_generator(cs.algebra, cs.ctx)
    S = cs_form(cs)
    dS = exterior_d(S)
    chi = section_correction(cs)
    psi = fiber_homotopy(contract(xi_C, dS) - exterior_d(chi), cs) + chi
    sigma = sigma_boundary_term(cs, xi_C, S=S)
    L = Lagrangian.from_horizontal_form(
        cs.ctx, horizontal_projection(S, cs.ctx))
    report, modified = conservation_check(L, xi_C, sigma, cs.ctx)
    assert report.passed and not report.vacuous
    stages = (S, dS, psi, sigma, modified)
    for a in stages:
        assert not a.is_zero()
        _assert_stored_form(a)
    assert kinds == {type(c) for a in stages for p in a.terms.values()
                     for c in p.terms.values()}


# -- negative controls for the conservation law --------------------------


@pytest.fixture(scope="module")
def su2_law():
    cs = _su2_model()
    xi_C = gauge_generator(cs.algebra, cs.ctx)
    S = cs_form(cs)
    sigma = sigma_boundary_term(cs, xi_C, S=S)
    L = Lagrangian.from_horizontal_form(
        cs.ctx, horizontal_projection(S, cs.ctx))
    assert conservation_check(L, xi_C, sigma, cs.ctx)[0].passed
    return cs, xi_C, sigma, L


def test_conservation_fails_for_sigma_plus_a_non_exact_form(su2_law):
    cs, xi_C, sigma, L = su2_law
    ch = cs.ctx.chart
    # d_H eta = (a^0_{0;0} - a^1_{1;1} + a^2_{2;2}) d^3x, one term from each
    # direction, so d_H eta != 0 and eta is not d_H-exact
    eta = Form(ch, 2, {(x(1), x(2)): Poly.var(conn(0, 0)),
                       (x(0), x(2)): Poly.var(conn(1, 1)),
                       (x(0), x(1)): Poly.var(conn(2, 2))})
    report, _ = conservation_check(L, xi_C, sigma + eta, cs.ctx)
    assert not report.passed
    d_eta = Poly.var(conn(0, 0, (0,))) - Poly.var(conn(1, 1, (1,))) \
        + Poly.var(conn(2, 2, (2,)))
    assert report.residual == str(Form(ch, 3, {(x(0), x(1), x(2)): -d_eta}))


@pytest.mark.parametrize("lam", range(3))
def test_conservation_fails_for_a_current_with_one_flipped_sign(su2_law, lam):
    cs, xi_C, sigma, L = su2_law
    ctx = cs.ctx
    J = noether_current(L, xi_C, ctx)
    J_lam = J.components[lam]
    assert J_lam
    # J - (sigma + 2 J^lam omega_lam) is J with J^lam negated, minus sigma
    shift = ctx.omega_lambda(lam, J_lam * 2)
    report, modified = conservation_check(L, xi_C, sigma + shift, ctx)
    assert not report.passed
    flipped = Current.from_form(ctx, modified + sigma).components
    assert flipped == [-c if i == lam else c for i, c in enumerate(J.components)]
    # d_H(-2 J^lam omega_lam) = -2 d_lam J^lam d^3x is all that is left
    left = ctx.volume_form(total_derivative(J_lam, lam, ctx) * -2)
    assert report.residual == str(left)


# -- gauge-invariant sector ---------------------------------------------


def _matter_model():
    g = builtin_algebra("su2")
    ctx = JetContext(3, 3, matter_dim=3, jet_order=3)
    cs = CSData(g, builtin_invariant("killing", g, 2), 2, ctx=ctx)
    return g, ctx, cs


def _yang_mills_density(g, ctx, kappa):
    def strength(m, al, be):
        f = Poly.var(conn(m, be, (al,))) - Poly.var(conn(m, al, (be,)))
        for p in range(g.dim):
            for q in range(g.dim):
                cval = g.bracket_const(m, p, q)
                if cval:
                    f = f + cval * Poly.var(conn(p, al)) * Poly.var(conn(q, be))
        return f

    dens = Poly.zero()
    for m, n_ in product(range(g.dim), repeat=2):
        if not kappa[m][n_]:
            continue
        for al, be in product(range(ctx.n), repeat=2):
            dens = dens + kappa[m][n_] * strength(m, al, be) * strength(n_, al, be)
    return dens


def _adjoint_variation(g):
    out = {}
    for m in range(g.dim):
        comp = Poly.zero()
        for p in range(g.dim):
            for q in range(g.dim):
                cval = g.bracket_const(m, p, q)
                if cval:
                    comp = comp + cval * Poly.var(matter(p)) * Poly.var(gauge(q))
        out[matter(m)] = comp
    return out


def test_invariant_sector_conserves_the_combined_current():
    from jetvar.algebra import killing_form
    g, ctx, cs = _matter_model()
    kappa = killing_form(g)
    mass = sum((kappa[m][n_] * Poly.var(matter(m)) * Poly.var(matter(n_))
                for m in range(3) for n_ in range(3) if kappa[m][n_]),
               Poly.zero())
    L_inv = Lagrangian(ctx, _yang_mills_density(g, ctx, kappa) + mass)
    xi_C = gauge_generator(g, ctx)
    sigma = sigma_boundary_term(cs, xi_C)
    report, modified = invariant_sector(L_inv, _adjoint_variation(g), xi_C,
                                        cs, sigma)
    assert report.passed, report.residual
    assert not modified.is_zero()


def test_invariant_sector_rejects_non_invariant_lagrangians():
    g, ctx, cs = _matter_model()
    L_bad = Lagrangian(ctx, Poly.var(matter(0), 2))
    xi_C = gauge_generator(g, ctx)
    sigma = sigma_boundary_term(cs, xi_C)
    with pytest.raises(NotInvariant):
        invariant_sector(L_bad, _adjoint_variation(g), xi_C, cs, sigma)
