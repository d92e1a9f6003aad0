"""Euler-Lagrange operator (with an independent interpolation oracle), the
first variational formula, Noether currents, the boundary term sigma (with
the fiberwise homotopy route as its oracle), and the conservation law."""

import gc
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvar import chern_simons, variational
from jetvar.algebra import (InvariantTensor, _generator, builtin_algebra,
                            builtin_invariant, gauge_generator, killing_form)
from jetvar.chern_simons import (_F, CSData, _slot_contraction, _t_free,
                                 characteristic_at_B, characteristic_form,
                                 cs_form, cs_lagrangian, homotopy)
from jetvar.config import build_model, load_config
from jetvar.errors import (JetvarError, NonzeroResidual, SigmaMismatch,
                           TermLimitExceeded)
from jetvar.forms import Form, _wrap, add_into, exterior_d, wedge
from jetvar.indets import bg, conn, gauge, indet_str, matter, with_extra_deriv, x
from jetvar.jets import JetContext, horizontal_projection
from jetvar.polynomial import Poly, Q
from jetvar.random_inputs import (_pool, random_density, random_poly,
                                  random_vertical_field)
from jetvar.variational import (Lagrangian, conservation_check,
                                euler_lagrange, first_variational_check,
                                lie_derivative_lagrangian, noether_current,
                                verify_conservation)
import oracles
from oracles import (NotClosed, conservation_with_sigma, contracted, evaluate,
                     fiber_homotopy, generator, horizontal_differential,
                     indets, section_correction, total_derivative, unscaled)
from test_algebra import _sparse
from test_chern_simons import ROOT, SHIPPED

CTX2 = JetContext(2, 1, matter_dim=1)


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
    variables = sorted(indets(density))
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
        el = euler_lagrange(Lagrangian(CTX2, density))
        point = _LazyPoint(random.Random(100 + trial))
        for i in CTX2.field_coords(0):
            got = evaluate(el[i], point)
            want = _oracle_el_value(density, CTX2, i, point)
            assert got == want


def test_euler_lagrange_of_a_harmonic_density():
    z = matter(0)
    density = sum((Poly.var(matter(0, (lam,))) ** 2 for lam in range(2)),
                  Poly.zero())
    el = euler_lagrange(Lagrangian(CTX2, density))
    expected = -2 * (Poly.var(matter(0, (0, 0))) + Poly.var(matter(0, (1, 1))))
    assert el[z] == expected


def test_lagrangian_rejects_higher_order_densities():
    with pytest.raises(JetvarError):
        Lagrangian(CTX2, Poly.var(matter(0, (0, 0))))


def test_poincare_cartan_projects_back_to_the_lagrangian():
    rng = random.Random(12)
    for _ in range(6):
        density = random_density(CTX2, rng)
        L = Lagrangian(CTX2, density)
        assert (horizontal_projection(oracles.poincare_cartan(L, density))
                - L.ctx.volume_form(density)).is_zero()


def test_noether_current_example():
    # J^lam = u^i partial^lam_i of the density
    density = Poly.var(matter(0, (0,))) * Poly.var(matter(0, (1,)))
    u = {matter(0): Poly.var(matter(0))}
    J = CTX2.current_components(noether_current(Lagrangian(CTX2, density), u))
    assert J[0] == Poly.var(matter(0)) * Poly.var(matter(0, (1,)))
    assert J[1] == Poly.var(matter(0)) * Poly.var(matter(0, (0,)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 2), st.integers(0, 1),
       st.integers(0, 2**32), st.data())
def test_first_order_operators_match_the_probing_oracles(n, gauge_dim,
                                                         matter_dim, seed,
                                                         data):
    # the library visits the first-order partials the density has; the
    # oracles probe every (coordinate, lam) pair.  u leaves at least one
    # coordinate out.
    ctx = JetContext(n, gauge_dim, matter_dim)
    rng = random.Random(seed)
    L = Lagrangian(ctx, random_poly(_pool(ctx, 1), rng, max_monomials=8))
    coords = ctx.field_coords(0)
    kept = data.draw(st.lists(st.sampled_from(coords), unique=True,
                              max_size=len(coords) - 1))
    u = {c: random_poly(_pool(ctx, 0), rng, max_monomials=2) for c in kept}
    el, want = euler_lagrange(L), oracles.euler_lagrange(L)
    assert el == want and list(el) == list(want) == coords
    assert noether_current(L, u) == oracles.noether_current(L, u)


def test_first_variational_formula_on_random_instances():
    rng = random.Random(13)
    ctxs = [JetContext(n, 2, matter_dim=1) for n in (1, 2, 3)]
    for trial in range(30):
        ctx = ctxs[trial % 3]
        L = Lagrangian(ctx, random_density(ctx, rng))
        u = random_vertical_field(ctx, rng)
        report = first_variational_check(L, u)
        assert report.passed, report.residual


def test_first_variational_detects_a_broken_boundary_term():
    # negative control: scale the current and recheck the decomposition
    rng = random.Random(14)
    L = Lagrangian(CTX2, random_density(CTX2, rng))
    u = random_vertical_field(CTX2, rng)
    lie = lie_derivative_lagrangian(L, u)
    el = euler_lagrange(L)
    s = Poly.zero()
    for i, ui in u.items():
        s = s + ui * el[i]
    el_form = CTX2.volume_form(s)
    bad = noether_current(L, u).scale(Q(2))
    residual = lie - el_form - horizontal_differential(bad)
    assert not residual.is_zero()


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.integers(0, 1), st.integers(0, 2**32), st.data())
def test_lie_derivative_equals_the_prolongation_oracle(n, matter_dim, seed,
                                                       data):
    # the library forms d_lam u^i only for the first-order partials that the
    # density has; the oracle prolongs every component in every direction.
    # The density may have no first-order jet; u has a component on a
    # coordinate that the density lacks, one with x^lam and a B or xi
    # symbol, and a zero component.
    ctx = JetContext(n, 2, matter_dim)
    rng = random.Random(seed)
    top = data.draw(st.integers(0, 1))
    L = Lagrangian(ctx, random_poly(_pool(ctx, top), rng, max_monomials=4))
    u = random_vertical_field(ctx, rng)
    coords = ctx.field_coords(0)
    lacking = [c for c in coords if c not in L.gradient
               and c not in L.jet_partials]
    if lacking:
        u[rng.choice(lacking)] = random_poly(_pool(ctx, 0), rng)
    first, last = coords[0], coords[-1]
    lam = rng.randrange(n)
    u[first] = u.get(first, Poly.zero()) + Poly.var(x(lam)) * Poly.var(last)
    symbol = rng.choice([bg(1, lam), bg(0, 0, (lam,)), gauge(1), gauge(0, (lam,))])
    u[last] = u.get(last, Poly.zero()) + Poly.var(symbol, 2) * Q(-3, 2)
    u[data.draw(st.sampled_from(coords))] = Poly.zero()
    want = oracles.lie_derivative(L, u)
    assert lie_derivative_lagrangian(L, u) == ctx.volume_form(want)
    # the core adds c times it into a filled term dict, where terms may cancel
    c = data.draw(st.sampled_from([1, -1, Q(3, 2)]))
    filled = random_poly(_pool(ctx, 1), rng)
    if data.draw(st.booleans()):
        filled = filled - want * c
    out = variational._lie_into(dict(filled.terms), L, u, c)
    assert Poly(out) == filled + want * c


@pytest.mark.parametrize("bad", [conn(0, 1, (0,)), matter(0, (1,)), x(0),
                                 gauge(0), bg(0, 1)])
def test_lie_derivative_rejects_a_field_that_is_not_vertical_order_0(bad):
    L = Lagrangian(CTX2, Poly.var(conn(0, 0, (1,))) * Poly.var(matter(0)))
    u = {conn(0, 0): Poly.var(x(0)), bad: Poly.const(1)}
    message = f"field is not vertical order-0: {indet_str(bad)}"
    for op in (lie_derivative_lagrangian, first_variational_check):
        with pytest.raises(JetvarError) as err:
            op(L, u)
        assert str(err.value) == message


def test_variational_triviality_of_horizontal_projections_of_exact_forms():
    # delta(h0(d eta)) = 0: exact n-forms have empty field equations
    rng = random.Random(15)
    pool0 = [x(lam) for lam in range(CTX2.n)] + CTX2.field_coords(0)
    for _ in range(6):
        # order-0 coefficients keep h0(d eta) first-order
        gens = tuple(sorted(rng.sample(pool0, CTX2.n - 1)))
        eta = Form(CTX2, {gens: random_poly(pool0, rng, max_monomials=3)})
        h = horizontal_projection(exterior_d(eta))
        el = euler_lagrange(Lagrangian.from_horizontal_form(h))
        assert all(not v for v in el.values()), str(h)


# -- the fiber homotopy oracle --------------------------------------------


def _su2_model(background="symbolic"):
    g = builtin_algebra("su2")
    return CSData(g, builtin_invariant("killing", g, 2), background=background)


def test_fiber_homotopy_recovers_a_primitive():
    cs = _su2_model("zero")
    ctx = cs.ctx
    alpha = wedge(Form(ctx, {(): Poly.var(conn(0, 0))}),
                  wedge(generator(ctx, conn(1, 1)),
                        generator(ctx, x(2))))
    omega = exterior_d(alpha)
    psi = fiber_homotopy(omega, cs)
    assert (exterior_d(psi) - omega).is_zero()


def test_fiber_homotopy_rejects_non_closed_forms():
    cs = _su2_model("zero")
    ctx = cs.ctx
    not_closed = wedge(Form(ctx, {(): Poly.var(conn(0, 0))}),
                       generator(ctx, conn(1, 1)))
    with pytest.raises(NotClosed):
        fiber_homotopy(not_closed, cs)


def test_fiber_homotopy_rejects_forms_alive_on_the_section():
    cs = _su2_model("zero")
    ctx = cs.ctx
    base_area = wedge(generator(ctx, x(0)), generator(ctx, x(1)))
    with pytest.raises(NonzeroResidual):
        fiber_homotopy(base_area, cs)


# -- sigma: the descent route against the fiber homotopy oracle -----------

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
        return CSData(g, b, **kw), params
    cs, _ = build_model(load_config(str(ROOT / name)))
    return cs, None


def gauge_parts(cs, params=None) -> list:
    """The gauge components (name, head, xi_C) of the symbolic family, as
    the library runs them, or the one component of the explicit gauge
    parameters params (a Poly in x per algebra index), built alike."""
    if params is None:
        return list(variational._components(cs))
    xi = _sparse(params)
    return [("explicit gauge parameters",
             {r: Form.from_poly(cs.ctx, p * cs.k) for r, p in xi.items()},
             _generator(cs.algebra, cs.ctx, xi))]


def summed_sigma(cs, params=None) -> Form:
    """sigma of the whole gauge generator: the post-verified sigmas of
    gauge_parts(cs, params), summed; cs.scale times its value."""
    acc: dict = {}
    for part in gauge_parts(cs, params):
        add_into(acc, variational.sigma_boundary_term(cs, *part))
    return _wrap(cs.ctx, acc)


@pytest.mark.parametrize("name", SHIPPED + list(VARIANTS))
def test_sigma_matches_the_fiber_homotopy_oracle(name):
    # d_H sigma cannot see a d-exact change of psi - d eta, so only this
    # comparison pins eta
    cs, params = _sigma_case(name)
    xi_C = (gauge_generator(cs.algebra, cs.ctx) if params is None
            else oracles.gauge_generator(cs.algebra, cs.ctx, params=params))
    sigma = summed_sigma(cs, params)
    assert unscaled(sigma, cs) == oracles.sigma_boundary_term(cs, xi_C,
                                                              params=params)
    vacuous = cs.h == 0 or params == [Poly.zero()] * cs.algebra.dim
    assert sigma.is_zero() == vacuous


def _disjoint_union(parts) -> dict:
    """The term dicts of the forms parts merged key by key, asserting that
    no two of them share a monomial under one key."""
    out: dict = {}
    for a in parts:
        for key, p in a.terms.items():
            terms = out.setdefault(key, {})
            assert terms.keys().isdisjoint(p.terms), key
            terms.update(p.terms)
    return out


@pytest.mark.parametrize("name", SHIPPED + list(VARIANTS))
def test_gauge_components_match_the_one_shot_oracle(name):
    # the symbolic family runs one component per algebra index, explicit
    # parameters run once; the components' sigma, J - sigma and residuals
    # share no monomial, and their union is the one-shot result
    cs, params = _sigma_case(name)
    sigma, report, modified = oracles.one_shot_conservation(cs, params)
    L = variational._lagrangian(cs)
    sigmas, reports, currents = [], [], []
    for label, head, xi_C in gauge_parts(cs, params):
        sigmas.append(variational.sigma_boundary_term(cs, label, head, xi_C))
        r, m = conservation_with_sigma(L, xi_C, sigmas[-1])
        reports.append(r)
        currents.append(m)
    assert len(sigmas) == (cs.algebra.dim if params is None else 1)
    # a rational h or tensor entry is scaled away, so no stored coefficient
    # of S, sigma or J - sigma is a Fraction
    assert {type(c) for a in (chern_simons._S(cs), *sigmas, *currents)
            for p in a.terms.values() for c in p.terms.values()} <= {int}
    assert all(a.is_zero() or oracles.degree(a) == cs.n - 1
               for a in (*sigmas, *currents))
    for got, want in ((sigmas, sigma), (currents, modified),
                      ([r.residual for r in reports], report.residual)):
        assert _disjoint_union(got) == {
            key: p.terms for key, p in want.terms.items()}
    assert all(r.vacuous for r in reports) == report.vacuous
    merged_report, merged, _ = oracles.merged_conservation(
        zip(reports, currents, [s.term_count() for s in sigmas]))
    assert merged == modified
    assert merged_report.residual == report.residual
    assert merged_report.vacuous == report.vacuous


@settings(max_examples=25, deadline=None)
@given(model=st.sampled_from([("su2", "killing", 2), ("u1", "unit", 3)]),
       c=st.sampled_from([Q(1), Q(-2, 3), Q(5, 4), Q(3, 7)]),
       h=st.sampled_from([Q(0), Q(1), Q(1, 3), Q(-5, 2), Q(2, 9)]),
       background=st.sampled_from(["symbolic", "zero"]))
def test_scaled_pipeline_is_the_scale_times_the_oracles(model, c, h,
                                                        background):
    # c times the model's tensor spans its invariant tensors (the Killing
    # form is the only invariant of su2 in degree 2, u1 has one entry)
    alg, inv, k = model
    g = builtin_algebra(alg)
    cs = CSData(g, builtin_invariant(inv, g, k).scaled(c),
                background=background, h=h)
    # the Killing form of su2 is -2 delta; lcm(1, 2, 3) = 6, lcm(1..5) = 60
    entry = -2 if alg == "su2" else 1
    assert cs.scale == (c * h * entry).denominator * (6 if k == 2 else 60)
    S = oracles.t_integrand_homotopy(cs)
    assert unscaled(cs_form(cs), cs) == S
    L = Lagrangian.from_horizontal_form(horizontal_projection(S))
    el = oracles.euler_lagrange(L)
    assert unscaled(euler_lagrange(variational._lagrangian(cs)), cs) == el
    sigma, report, modified = oracles.one_shot_conservation(cs)
    assert summed_sigma(cs) == sigma
    got, got_modified, sizes = oracles.merged_conservation(
        verify_conservation(cs))
    assert got_modified == modified
    # the components' sigmas share no monomial
    assert sum(sizes) == sigma.term_count()
    assert got.passed and report.passed
    assert got.vacuous == report.vacuous == (h == 0)


def test_model_data_is_built_once_per_csdata(monkeypatch):
    # P(F), P(F_B), S, sigma and the conservation law on one CSData share
    # one S and one of each curvature: F, F_B and the H of the homotopy's
    # pieces are the three curvatures built
    calls = Counter()

    def counted(fn):
        def run(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return run

    for name in ("cs_form", "_curvature"):
        monkeypatch.setattr(chern_simons, name,
                            counted(getattr(chern_simons, name)))
    cs = _su2_model()
    characteristic_form(cs)
    characteristic_at_B(cs)
    # cs_lagrangian reads the S that cs holds
    assert horizontal_projection(chern_simons._S(cs)) == cs_lagrangian(cs)
    sigma = summed_sigma(cs)
    report, _, _ = oracles.merged_conservation(verify_conservation(cs))
    assert report.passed and not sigma.is_zero()
    assert calls == {"cs_form": 1, "_curvature": 3}
    assert {("F",), ("F_B",), ("F_t",)} <= cs._shared.keys()


def test_verify_conservation_leaves_no_reference_cycle(term_cap):
    # a cycle would keep its objects, such as a slot sum's accumulator,
    # alive until a cyclic collection; so would one on the path of a
    # TermLimitExceeded, which the cap raises inside the slot sum of S
    cs, _ = build_model(load_config(str(ROOT / "configs/u1su2_k3.json")))
    gc.collect()
    gc.disable()
    try:
        report, _, _ = oracles.merged_conservation(verify_conservation(cs))
        assert report.passed
        del report
        assert gc.collect() == 0
        term_cap(2000)
        try:
            cs_form(cs)
        except TermLimitExceeded:
            pass
        else:
            raise AssertionError("the cap did not stop cs_form")
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("config", ["configs/su2_k2.json",
                                    "configs/u1su2_k3.json"])
def test_held_model_polys_are_sized_and_share_their_coefficients(config):
    # each Poly that the model holds is no larger than a fresh copy of its
    # dict, and the equal coefficients of one held object are one int
    cs, _ = build_model(load_config(str(ROOT / config)))
    L = variational._lagrangian(cs)
    held = {
        "S": list(chern_simons._S(cs).terms.values()),
        "gradient": list(L.gradient.values()),
        "jet_partials": [p for pairs in L.jet_partials.values()
                         for _, p in pairs],
        "Euler-Lagrange": list(euler_lagrange(L).values()),
    }
    for name, polys in held.items():
        assert polys, name
        shared: dict = {}
        for p in polys:
            assert sys.getsizeof(p.terms) <= sys.getsizeof(dict(p.terms)), name
            for c in p.terms.values():
                assert shared.setdefault(c, c) is c, (name, c)
        # the scaled model has coefficients that CPython does not cache
        if config.endswith("u1su2_k3.json") and name != "Euler-Lagrange":
            assert any(abs(c) > 256 for c in shared), name


def test_verify_conservation_yields_each_component_as_it_finishes(
        monkeypatch):
    # a component's report and part of J - sigma reach the caller before
    # the next component's sigma is built
    built = []
    component_sigma = variational.sigma_boundary_term

    def counted(cs, name, head, xi_C):
        built.append(name)
        return component_sigma(cs, name, head, xi_C)

    monkeypatch.setattr(variational, "sigma_boundary_term", counted)
    cs = _su2_model()
    parts = verify_conservation(cs)
    for r in range(3):
        report, modified, sigma_terms = next(parts)
        assert built == [f"gauge component {i}" for i in range(r + 1)]
        assert report.passed and not modified.is_zero() and sigma_terms
    assert next(parts, None) is None


def test_the_lagrangian_alone_does_not_keep_the_cs_form():
    # euler-lagrange and noether read S only to build L = h0 S, so S is not
    # kept while L, its gradient and its Euler-Lagrange components are
    # built; verify-conservation keeps S, and L is then built from it
    cs = _su2_model()
    L = variational._lagrangian(cs)
    euler_lagrange(L)
    assert ("S",) not in cs._shared
    report, _, _ = oracles.merged_conservation(verify_conservation(cs))
    assert report.passed and ("S",) in cs._shared
    assert (Lagrangian.from_horizontal_form(
        horizontal_projection(chern_simons._S(cs))).gradient == L.gradient)


def test_the_model_lagrangian_keeps_no_density():
    # every operator reads L's partials, so L = h0 S lets its density go
    # once they are built, and does not keep h0 S alive
    L = variational._lagrangian(_su2_model())
    assert not hasattr(L, "density")
    assert set(vars(L)) == {"ctx", "gradient", "jet_partials", "_el"}


@pytest.mark.parametrize("name", SHIPPED + list(VARIANTS))
def test_homotopy_matches_the_pullback_oracle(name):
    # the closed form of H on the descent primitive b(k xi, F, ..., F) and
    # on P(F) = b(F, ..., F), whose H is the transgression form S
    cs, params = _sigma_case(name)
    head = oracles.gauge_head(cs, params)
    psi = _slot_contraction(cs, [head], _t_free(_F(cs)))
    P, S = characteristic_form(cs), cs_form(cs)
    assert homotopy(cs, [head]) == oracles.homotopy_operator(psi, cs)
    assert S == oracles.homotopy_operator(P, cs)
    # a form's degree is the length of its generator tuples
    for a, degree in ((P, 2 * cs.k), (S, 2 * cs.k - 1), (psi, 2 * cs.k - 2)):
        assert a.is_zero() or oracles.degree(a) == degree


@pytest.mark.parametrize("background", ["symbolic", "zero"])
def test_sigma_rejects_a_non_invariant_tensor(background):
    # without ad-invariance psi is no primitive of xi_C . dS
    g = builtin_algebra("su2")
    cs = CSData(g, builtin_invariant("unit", g, 2), background=background)
    assert cs.invariance_residual
    with pytest.raises(NonzeroResidual,
                       match=r"^gauge component \d: descent residual"):
        summed_sigma(cs)


# -- sigma and the conservation law -------------------------------------


def test_sigma_satisfies_its_defining_identity():
    cs = _su2_model()
    xi_C = gauge_generator(cs.algebra, cs.ctx)
    S = cs_form(cs)
    sigma = summed_sigma(cs)
    L = Lagrangian.from_horizontal_form(horizontal_projection(S))
    lie = lie_derivative_lagrangian(L, xi_C)
    assert (horizontal_differential(sigma) - lie).is_zero()


@pytest.mark.parametrize("alg,inv,k", [("u1", "unit", 2), ("su2", "killing", 2)])
def test_conservation_law(alg, inv, k):
    g = builtin_algebra(alg)
    cs = CSData(g, builtin_invariant(inv, g, k))
    xi_C = gauge_generator(g, cs.ctx)
    S = cs_form(cs)
    sigma = summed_sigma(cs)
    L = Lagrangian.from_horizontal_form(horizontal_projection(S))
    report, modified = conservation_with_sigma(L, xi_C, sigma)
    assert report.passed, report.residual
    assert oracles.degree(modified) == cs.n - 1


def test_conservation_with_explicit_gauge_parameters():
    g = builtin_algebra("u1")
    cs = CSData(g, builtin_invariant("unit", g, 2))
    params = [Poly.var(x(0)) * Poly.var(x(1)) + Poly.var(x(2), 2)]
    xi_C = oracles.gauge_generator(g, cs.ctx, params=params)
    S = cs_form(cs)
    sigma = summed_sigma(cs, params)
    L = Lagrangian.from_horizontal_form(horizontal_projection(S))
    report, _ = conservation_with_sigma(L, xi_C, sigma)
    assert report.passed, report.residual


def test_zero_gauge_parameters_give_a_zero_current():
    g = builtin_algebra("su2")
    cs = CSData(g, builtin_invariant("killing", g, 2))
    params = [Poly.zero()] * 3
    xi_C = oracles.gauge_generator(g, cs.ctx, params=params)
    sigma = summed_sigma(cs, params)
    L = Lagrangian.from_horizontal_form(cs_lagrangian(cs))
    report, modified = conservation_with_sigma(L, xi_C, sigma)
    assert report.passed
    assert report.vacuous
    assert modified.is_zero()


def test_sigma_post_check_uses_the_given_lagrangian(monkeypatch):
    cs = _su2_model()
    S = cs_form(cs)
    h = horizontal_projection(S)
    L = Lagrangian.from_horizontal_form(h)
    sigma = summed_sigma(cs)
    # the post-check reads the model's L from its one builder
    monkeypatch.setattr(variational, "_lagrangian", lambda _: L)
    assert summed_sigma(cs) == sigma
    # it compares d_H sigma with the Lie derivative of that L; the first
    # component fails it for 2L
    monkeypatch.setattr(variational, "_lagrangian",
                        lambda _: Lagrangian.from_horizontal_form(h.scale(2)))
    with pytest.raises(SigmaMismatch, match="^gauge component 0: "):
        summed_sigma(cs)


def _assert_stored_form(a: Form):
    """Every coefficient is a nonzero int, or a Fraction that is not one."""
    for p in a.terms.values():
        for c in p.terms.values():
            assert c
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


@pytest.mark.parametrize("h", [1, Q(1, 4)])
def test_pipeline_coefficients_are_ints(h):
    # a rational h scales the model (cs.scale), so no stage holds a Fraction
    g = builtin_algebra("su2")
    cs = CSData(g, builtin_invariant("killing", g, 2), h=h)
    xi_C = gauge_generator(cs.algebra, cs.ctx)
    S = cs_form(cs)
    dS = exterior_d(S)
    chi = section_correction(cs).scale(cs.scale)
    psi = fiber_homotopy(contracted(xi_C, dS) - exterior_d(chi), cs) + chi
    sigma = summed_sigma(cs)
    L = Lagrangian.from_horizontal_form(horizontal_projection(S))
    report, modified = conservation_with_sigma(L, xi_C, sigma)
    assert report.passed and not report.vacuous
    stages = (S, dS, psi, sigma, modified)
    for a in stages:
        assert not a.is_zero()
        _assert_stored_form(a)
    assert {int} == {type(c) for a in stages for p in a.terms.values()
                     for c in p.terms.values()}


# -- negative controls for the conservation law --------------------------


@pytest.fixture(scope="module")
def su2_law():
    cs = _su2_model()
    xi_C = gauge_generator(cs.algebra, cs.ctx)
    S = cs_form(cs)
    sigma = summed_sigma(cs)
    L = Lagrangian.from_horizontal_form(horizontal_projection(S))
    assert conservation_with_sigma(L, xi_C, sigma)[0].passed
    return cs, xi_C, sigma, L


def test_conservation_fails_for_sigma_plus_a_non_exact_form(su2_law):
    cs, xi_C, sigma, L = su2_law
    ctx = cs.ctx
    # d_H eta = (a^0_{0;0} - a^1_{1;1} + a^2_{2;2}) d^3x, one term from each
    # direction, so d_H eta != 0 and eta is not d_H-exact
    eta = Form(ctx, {(x(1), x(2)): Poly.var(conn(0, 0)),
                     (x(0), x(2)): Poly.var(conn(1, 1)),
                     (x(0), x(1)): Poly.var(conn(2, 2))})
    report, _ = conservation_with_sigma(L, xi_C, sigma + eta)
    assert not report.passed
    d_eta = Poly.var(conn(0, 0, (0,))) - Poly.var(conn(1, 1, (1,))) \
        + Poly.var(conn(2, 2, (2,)))
    assert report.residual == Form(ctx, {(x(0), x(1), x(2)): -d_eta})


@pytest.mark.parametrize("lam", range(3))
def test_conservation_fails_for_a_current_with_one_flipped_sign(su2_law, lam):
    cs, xi_C, sigma, L = su2_law
    ctx = cs.ctx
    J = ctx.current_components(noether_current(L, xi_C))
    J_lam = J[lam]
    assert J_lam
    # J - (sigma + 2 J^lam omega_lam) is J with J^lam negated, minus sigma
    shift = ctx.current_form([Poly.zero()] * lam + [J_lam * 2])
    report, modified = conservation_with_sigma(L, xi_C, sigma + shift)
    assert not report.passed
    flipped = ctx.current_components(modified + sigma)
    assert flipped == [-c if i == lam else c for i, c in enumerate(J)]
    # d_H(-2 J^lam omega_lam) = -2 d_lam J^lam d^3x is all that is left
    left = ctx.volume_form(total_derivative(J_lam, lam, ctx) * -2)
    assert report.residual == left


def test_conservation_is_not_vacuous_when_nonzero_sides_cancel(su2_law):
    # d_H(J - sigma) and u . delta L are both nonzero and cancel exactly
    cs, xi_C, sigma, L = su2_law
    report, modified = conservation_with_sigma(L, xi_C, sigma)
    boundary = horizontal_differential(modified)
    el = euler_lagrange(L)
    u_el = cs.ctx.volume_form(sum((xi_C[i] * el[i] for i in el), Poly.zero()))
    assert not boundary.is_zero() and not u_el.is_zero()
    assert boundary == u_el.scale(-1)
    assert report.passed and not report.vacuous


def test_sigma_post_check_catches_one_wrong_coefficient(su2_law, monkeypatch):
    # sigma with one coefficient of one term off by 1 must fail d_H sigma =
    # L_xi L; the term is a longest monomial, so its total derivative is
    # nonzero and d_H sees the change
    cs, _, sigma, _ = su2_law
    h0 = variational.horizontal_projection

    def off_by_one(a):
        out = h0(a)
        key = min(out.terms)
        terms = dict(out.terms[key].terms)
        m = max(terms, key=len)
        assert m
        terms[m] += 1
        if not terms[m]:
            del terms[m]
        return Form(a.ctx, {**out.terms, key: Poly(terms)})

    assert summed_sigma(cs) == sigma
    monkeypatch.setattr(variational, "horizontal_projection", off_by_one)
    with pytest.raises(SigmaMismatch):
        summed_sigma(cs)


# -- gauge-invariant sector ---------------------------------------------


def _matter_model():
    g = builtin_algebra("su2")
    cs = CSData(g, builtin_invariant("killing", g, 2), matter_dim=3)
    return g, cs.ctx, cs


def _yang_mills_density(g, ctx, kappa):
    def strength(m, al, be):
        f = Poly.var(conn(m, be, (al,))) - Poly.var(conn(m, al, (be,)))
        for p in range(g.dim):
            for q in range(g.dim):
                cval = oracles.bracket_const(g, m, p, q)
                if cval:
                    f = f + cval * Poly.var(conn(p, al)) * Poly.var(conn(q, be))
        return f

    dens = Poly.zero()
    for (m, n_), kv in kappa.items():
        for al, be in product(range(ctx.n), repeat=2):
            dens = dens + kv * strength(m, al, be) * strength(n_, al, be)
    return dens


def _adjoint_variation(g):
    out = {}
    for m in range(g.dim):
        comp = Poly.zero()
        for p in range(g.dim):
            for q in range(g.dim):
                cval = oracles.bracket_const(g, m, p, q)
                if cval:
                    comp = comp + cval * Poly.var(matter(p)) * Poly.var(gauge(q))
        out[matter(m)] = comp
    return out


def _mass_density(kappa):
    return sum((kv * Poly.var(matter(m)) * Poly.var(matter(n_))
                for (m, n_), kv in kappa.items()), Poly.zero())


def test_invariant_sector_conserves_the_combined_current():
    # CS plus the su2 Yang-Mills + mass Lagrangian, with adjoint matter: the
    # added Lagrangian is gauge-invariant, so the CS sigma still makes the
    # combined current J - sigma conserved
    g, ctx, cs = _matter_model()
    kappa = killing_form(g)
    inv_density = _yang_mills_density(g, ctx, kappa) + _mass_density(kappa)
    L_inv = Lagrangian(ctx, inv_density)
    u = {**gauge_generator(g, ctx), **_adjoint_variation(g)}
    assert lie_derivative_lagrangian(L_inv, u).is_zero()
    # sigma, like the CS Lagrangian, is cs.scale times its value
    L = Lagrangian(ctx, cs_lagrangian(cs).coefficient(ctx.volume_key())
                   + inv_density * cs.scale)
    report, modified = conservation_with_sigma(L, u, summed_sigma(cs))
    assert report.passed and not report.vacuous, report.residual
    assert not modified.is_zero()


def test_conservation_check_rejects_a_sigma_on_another_context(su2_law):
    # the su2 model has no matter fields: a check on the matter context
    # would read a current built from its sigma, here sigma itself, as if
    # the matter components were zero
    _, _, sigma, _ = su2_law
    g, ctx, _ = _matter_model()
    L_inv = Lagrangian(ctx, _mass_density(killing_form(g)))
    with pytest.raises(JetvarError, match="different jet contexts"):
        conservation_check(L_inv, gauge_generator(g, ctx), sigma)
