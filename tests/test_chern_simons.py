"""Curvature identities, characteristic forms, and the transgression
construction of the CS Lagrangian."""

from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvar.algebra import (InvariantTensor, LieAlgebraData, builtin_algebra,
                            builtin_invariant, gauge_generator)
from jetvar.chern_simons import (_F, _FB, CSData, _slot_contraction,
                                 _t_free, _t_pieces, characteristic_at_B,
                                 characteristic_form, cs_form, cs_lagrangian,
                                 homotopy)
from jetvar.config import build_model, load_config
from jetvar.errors import JetvarError
from jetvar.forms import Form, _wrap, exterior_d, wedge
from jetvar.indets import T, conn, x
from jetvar.polynomial import Poly
from jetvar.variational import Lagrangian, euler_lagrange
import oracles
from oracles import cs_density_3d, lie_derivative_form, random_form, unscaled
from test_algebra import RATIONALS, _invariant_tensor, algebra_cases


ROOT = Path(__file__).resolve().parent.parent
# the model configs that pass; the two known negatives are checked by their
# golden check-algebra output in test_cli
NEGATIVES = ("jacobi_violation.json", "su2_unit.json")
SHIPPED = sorted(p.relative_to(ROOT).as_posix()
                 for d in ("configs", "tests/configs")
                 for p in (ROOT / d).glob("*.json")
                 if "algebra" in load_config(str(p))
                 and p.name not in NEGATIVES)


def _model(alg, inv, k, background="symbolic", h=1):
    g = builtin_algebra(alg)
    b = builtin_invariant(inv, g, k)
    return CSData(g, b, background=background, h=h)


def test_csdata_validation():
    g = builtin_algebra("su2")
    b = builtin_invariant("killing", g, 2)
    # k is the tensor's degree: the base is 2k - 1 dimensional
    cs = CSData(builtin_algebra("u1"), InvariantTensor(3, {(0, 0, 0): 1}))
    assert (cs.k, cs.n, cs.ctx.n) == (3, 5, 5)
    with pytest.raises(JetvarError, match="CS degree k must be >= 2"):
        CSData(builtin_algebra("u1"), InvariantTensor(1, {(0,): 1}))
    with pytest.raises(JetvarError):
        CSData(g, b, background="random")


def test_bianchi_identity_for_the_canonical_curvature():
    cs = _model("su2", "killing", 2)
    F = _F(cs)
    for r in range(3):
        rhs = None
        for p in range(3):
            for q in range(3):
                cval = oracles.bracket_const(cs.algebra, r, p, q)
                if cval:
                    term = wedge(F[p], cs.one_form(q)).scale(cval)
                    rhs = term if rhs is None else rhs + term
        assert (exterior_d(F[r]) - rhs).is_zero()


def test_bianchi_identity_for_the_background_curvature():
    cs = _model("su2", "killing", 2)
    FB = _FB(cs)
    for r in range(3):
        rhs = None
        for p in range(3):
            for q in range(3):
                cval = oracles.bracket_const(cs.algebra, r, p, q)
                if cval:
                    term = wedge(FB[p], cs.one_form(q, 0, 1)).scale(cval)
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


@pytest.mark.parametrize("background", ["symbolic", "zero"])
@pytest.mark.parametrize("name", SHIPPED)
def test_characteristic_at_B_matches_the_pullback_oracle(name, background):
    # P(F_B) is a 2k-form on the (2k-1)-dimensional base, so it is zero on
    # every config; only the curvature comparison tells the slot contraction
    # of F_B from the zero form
    cs, _ = build_model(dict(load_config(str(ROOT / name)),
                             background=background))
    bindings = {conn(r, mu): oracles.bg_poly(cs, r, mu)
                for r in range(cs.algebra.dim) for mu in range(cs.n)}
    FB = _FB(cs)
    assert {r: oracles.pullback(f, bindings)
            for r, f in _F(cs).items()} == FB
    # h = 0 leaves b without entries, so no curvature is built
    assert any(not f.is_zero() for f in FB.values()) == (
        background == "symbolic" and bool(cs.indices))
    assert characteristic_at_B(cs) == oracles.pullback(characteristic_form(cs),
                                                       bindings)


@pytest.mark.parametrize("alg,inv,k", [
    ("u1", "unit", 2), ("su2", "killing", 2), ("u1", "unit", 3),
    ("u1+su2", "u1su2-cubic", 3)])
def test_characteristic_forms_match_the_multiset_oracle(alg, inv, k):
    # the first-slot sum over ordered r1 against the multiset sum; P(F_B)
    # vanishes on the base, P(F(t)) of the interpolated curvature does not
    cs = _model(alg, inv, k)
    P = characteristic_form(cs)
    assert not P.is_zero()
    assert unscaled(P, cs) == oracles.invariant_contraction(
        cs, _F(cs))
    for curv in (_FB(cs), oracles.interp_curvature(cs)):
        assert (unscaled(_slot_contraction(cs, [curv], _t_free(curv)), cs)
                == oracles.invariant_contraction(cs, curv))


@settings(max_examples=60, deadline=None)
@given(case=algebra_cases().filter(lambda case: not case[3]), data=st.data())
def test_curvatures_match_the_ordered_pair_oracle(case, data):
    # the sum over p < q with weight c against the sum over ordered pairs
    # with weight c/2, at the indices of b, for F, F_B and F(t), the last
    # as the sum of its pieces t^alpha (1-t)^beta form; b need not be
    # invariant, and rescaled su2 constants are not all integral
    dim, c, _, _ = case
    g = LieAlgebraData(dim, c)
    k = data.draw(st.integers(2, 3))
    b = InvariantTensor(k, {
        tuple(sorted(data.draw(st.integers(0, dim - 1)) for _ in range(k))):
        data.draw(RATIONALS) for _ in range(data.draw(st.integers(1, 3)))})
    cs = CSData(g, b, background=data.draw(st.sampled_from(
        ["symbolic", "zero"])))
    A = [cs.one_form(r) for r in range(dim)]
    B = [cs.one_form(r, 0, 1) for r in range(dim)]
    t = Poly.var(T)
    linear_t = [exterior_d(a).scale(t) + exterior_d(bg).scale(1 - t)
                for a, bg in zip(A, B)]
    interp = [oracles.interp_one_form(cs, r) for r in range(dim)]
    pieces = _t_pieces(cs)
    assert sorted(pieces) == cs.indices
    for got, want in (
            (_F(cs),
             oracles.curvature(cs, [exterior_d(a) for a in A], A)),
            (_FB(cs),
             oracles.curvature(cs, [exterior_d(bg) for bg in B], B)),
            ({r: _t_sum(cs, choices) for r, choices in pieces.items()},
             oracles.curvature(cs, linear_t, interp))):
        assert got == {r: want[r] for r in cs.indices}
    assert cs.indices == sorted({i for idx in cs.b.entries for i in idx})


def _t_sum(cs, choices) -> Form:
    """sum t^alpha (1-t)^beta form over the pieces (alpha, beta, form)."""
    t = Poly.var(T)
    out = Form.zero(cs.ctx)
    for alpha, beta, f in choices:
        out = out + f.scale(t ** alpha * (1 - t) ** beta)
    return out


POWER = ((0, 0), (1, 0), (2, 0))
BERNSTEIN = ((0, 2), (1, 1), (2, 0))


@pytest.mark.parametrize("name,background,bernstein", [
    ("configs/u1su2_k3.json", "symbolic", [1, 2, 3]),
    ("configs/su2_k2.json", "symbolic", [0, 1, 2]),
    ("configs/u1_k3.json", "symbolic", []),
    ("configs/u1su2_k3.json", "zero", []),
    ("configs/su2_k2.json", "zero", []),
    ("tests/configs/su2_k4_zero_x3.json", "zero", [])])
def test_each_index_takes_the_basis_with_fewer_terms(name, background,
                                                     bernstein):
    # the su2 indices at a symbolic background take the Bernstein pieces;
    # the u1 index (H = 0) and every index at the zero background (F_B = 0)
    # keep the powers of t
    cs, _ = build_model(dict(load_config(str(ROOT / name)),
                             background=background))
    pieces = _t_pieces(cs)
    assert {r: tuple((a, b) for a, b, _ in choices)
            for r, choices in pieces.items()} == {
        r: BERNSTEIN if r in bernstein else POWER for r in cs.indices}
    # the term counts of both bases, from the ordered-pair oracle's H
    dim = cs.algebra.dim
    H = oracles.curvature(cs, [Form.zero(cs.ctx)] * dim,
                          [cs.one_form(r, 1, -1) for r in range(dim)])
    FB, F = _FB(cs), _F(cs)
    for r, choices in pieces.items():
        nabla = F[r] - FB[r] - H[r]
        sizes = [sum(f.term_count() for f in basis) for basis in (
            (FB[r], nabla, H[r]), (FB[r], FB[r].scale(2) + nabla, F[r]))]
        assert sum(f.term_count() for _, _, f in choices) == min(sizes)
        assert (sizes[1] < sizes[0]) == (r in bernstein)


# -- the sparse slot sum against the dense oracle ------------------------------

PARAMS = [Poly.zero(), Poly.const(Q(1, 2)), Poly.var(x(0)),
          Poly.var(x(1)) * Poly.var(x(2)) - Poly.const(3)]


def _random_head(draw, cs, rng) -> dict:
    """A map from algebra indices to forms of one degree, some of them zero
    and some indices left out: k xi for symbolic or explicit gauge
    parameters, or random forms of degree <= 2."""
    m = cs.algebra.dim
    kind = draw(st.sampled_from(["symbolic", "params", "forms"]))
    if kind == "symbolic":
        head = oracles.gauge_head(cs)
    elif kind == "params":
        head = oracles.gauge_head(
            cs, [draw(st.sampled_from(PARAMS)) for _ in range(m)])
    else:
        degree = draw(st.integers(0, 2))
        head = {r: random_form(cs.ctx, degree, rng) if draw(st.booleans())
                else Form.zero(cs.ctx) for r in range(m)}
    left_out = draw(st.sets(st.integers(0, m - 1), max_size=m))
    return {r: f for r, f in head.items() if r not in left_out}


def _tensor(draw, g, u1, k) -> InvariantTensor:
    """An invariant tensor of degree k, or a random one with rational
    entries that need not be invariant."""
    if draw(st.booleans()):
        return _invariant_tensor(draw, g, u1, k)
    return InvariantTensor(k, {
        tuple(sorted(draw(st.integers(0, g.dim - 1)) for _ in range(k))):
        draw(RATIONALS) for _ in range(draw(st.integers(1, 3)))})


@settings(max_examples=80, deadline=None)
@given(case=algebra_cases().filter(lambda case: not case[3]), data=st.data())
def test_slot_contraction_matches_the_dense_oracle(case, data):
    # j heads before the last one, which plays the a - B slot of homotopy;
    # invariant and non-invariant tensors with repeated indices, so a lead
    # counted once per ordering of equal indices or a weight taken on the
    # whole entry shows
    dim, c, u1, _ = case
    g = LieAlgebraData(dim, c)
    k = data.draw(st.integers(2, 3))
    cs = CSData(g, _tensor(data.draw, g, u1, k), h=data.draw(RATIONALS))
    rng = data.draw(st.randoms(use_true_random=False))
    j = data.draw(st.integers(0, min(2, k - 1)))
    heads = [_random_head(data.draw, cs, rng) for _ in range(j + 1)]
    if data.draw(st.booleans()):
        curv = _F(cs)
    else:
        curv = {r: random_form(cs.ctx, 2, rng) for r in range(dim)}
    got = _slot_contraction(cs, heads, _t_free(curv))
    want, want_den, want_degree = oracles.slot_sum(cs, heads, curv)
    # the library sums cs.scale times the contraction, the oracle want_den
    # times it
    assert got == _wrap(cs.ctx, want).scale(Q(cs.scale, want_den))
    assert got.is_zero() or oracles.degree(got) == want_degree


@settings(max_examples=80, deadline=None)
@given(case=algebra_cases().filter(lambda case: not case[3]), data=st.data())
def test_closed_form_t_integral_matches_the_t_integrand_oracle(case, data):
    # one to three pieces t^alpha (1-t)^beta form of random 2-forms per
    # index, all in powers of t, all in the Bernstein basis, or the basis
    # drawn per index, against the dense slot sum of their t-polynomial sum,
    # integrated term by term: up to three curvature slots, so runs of equal
    # indices with mixed picks and every weight t^A (1-t)^B with A + B <= 6
    # occur
    dim, c, u1, _ = case
    g = LieAlgebraData(dim, c)
    k = data.draw(st.integers(2, 4))
    cs = CSData(g, _tensor(data.draw, g, u1, k), h=data.draw(RATIONALS))
    rng = data.draw(st.randoms(use_true_random=False))
    j = data.draw(st.integers(0, min(2, k - 1)))
    heads = [_random_head(data.draw, cs, rng) for _ in range(j + 1)]
    mode = data.draw(st.sampled_from(["power", "bernstein", "mixed"]))
    count = data.draw(st.integers(1, 3))
    pieces = {}
    for r in range(dim):
        basis = {"power": POWER, "bernstein": BERNSTEIN}.get(mode) or (
            data.draw(st.sampled_from([POWER, BERNSTEIN])))
        pieces[r] = tuple(
            (alpha, beta, random_form(cs.ctx, 2, rng)
             if data.draw(st.booleans()) else Form.zero(cs.ctx))
            for alpha, beta in basis[:count])
    curv = {r: _t_sum(cs, choices) for r, choices in pieces.items()}
    assert (unscaled(_slot_contraction(cs, heads, pieces), cs)
            == oracles.t_integrand_contraction(cs, heads, curv))


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=20, deadline=None)
@given(case=algebra_cases().filter(lambda case: not case[3]), data=st.data())
def test_homotopy_matches_the_t_integrand_oracle(k, case, data):
    # the pieces of the curvature of B + t(a - B), in the basis that each
    # index takes, against the t-polynomial curvature; on the 7D base a non-abelian
    # algebra gets two heads, so one curvature slot, to bound the run time
    dim, c, u1, _ = case
    g = LieAlgebraData(dim, c)
    cs = CSData(g, _tensor(data.draw, g, u1, k), h=data.draw(RATIONALS),
                background=data.draw(st.sampled_from(["symbolic", "zero"])))
    rng = data.draw(st.randoms(use_true_random=False))
    j = data.draw(st.integers(2 if k == 4 and c else 0, min(2, k - 1)))
    heads = [_random_head(data.draw, cs, rng) for _ in range(j)]
    assert (unscaled(homotopy(cs, heads), cs)
            == oracles.t_integrand_homotopy(cs, heads))


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
    assert (unscaled(cs_lagrangian(cs), cs)
            - oracles.cs_lagrangian_direct(cs)).is_zero()


def test_abelian_cs_form_without_background_is_a_wedge_da():
    cs = _model("u1", "unit", 2, background="zero")
    a = cs.one_form(0)
    assert (unscaled(cs_form(cs), cs) - wedge(a, exterior_d(a))).is_zero()


def test_h_scales_the_lagrangian_linearly():
    one, third = (_model("su2", "killing", 2, h=h) for h in (1, Q(1, 3)))
    assert (one.scale, third.scale) == (6, 18)
    assert (unscaled(cs_lagrangian(one), one)
            - unscaled(cs_lagrangian(third), third).scale(Q(3))).is_zero()


def test_3d_lagrangian_matches_the_displayed_density():
    for background in ("zero", "symbolic"):
        cs = _model("su2", "killing", 2, background=background, h=Q(1, 2))
        lag = unscaled(cs_lagrangian(cs), cs)
        assert (lag.coefficient(cs.ctx.volume_key())
                == cs_density_3d(cs.algebra, Q(1, 2), cs.ctx,
                                 background == "symbolic"))


def test_euler_lagrange_background_independence_u1_k2():
    els = []
    for background in ("symbolic", "zero"):
        cs = _model("u1", "unit", 2, background=background)
        L = Lagrangian.from_horizontal_form(cs_lagrangian(cs))
        els.append(euler_lagrange(L))
    for i in els[0]:
        assert els[0][i] == els[1][i]


def test_abelian_el_components_are_the_contracted_strength():
    # k=2, B=0, h: delta L / delta a_mu = 2 h eps^{mu beta gamma} a_{gamma;beta}
    from jetvar.indets import conn
    from jetvar.polynomial import Poly
    from jetvar.reference3d import levi_civita
    h = Q(3, 2)
    cs = _model("u1", "unit", 2, background="zero", h=h)
    L = Lagrangian.from_horizontal_form(unscaled(cs_lagrangian(cs), cs))
    el = euler_lagrange(L)
    for mu in range(3):
        expected = Poly.zero()
        for be in range(3):
            for ga in range(3):
                e = levi_civita(mu, be, ga)
                if e:
                    expected = expected + 2 * h * e * Poly.var(conn(0, ga, (be,)))
        assert el[conn(0, mu)] == expected
