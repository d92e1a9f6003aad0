"""Lie-algebra data validation, Killing forms, invariant tensors, gauge
generators, and the section bracket.  The sparse algebra checks are tested
against the dense loops of the test oracles."""

from fractions import Fraction as Q
from itertools import product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from jetvar.algebra import (_EPS3, InvariantTensor, LieAlgebraData,
                            _generator, _multinomial, builtin_algebra,
                            builtin_invariant, check_invariant_tensor,
                            gauge_generator, killing_form, load_lie_algebra,
                            section_bracket)
from jetvar.chern_simons import CSData
from jetvar.errors import (AntisymmetryViolation, JacobiViolation, JetvarError)
from jetvar.indets import conn, gauge, x
from jetvar.jets import JetContext
from jetvar.polynomial import Poly


def test_su2_loads_and_so3_is_an_alias():
    g = builtin_algebra("su2")
    assert g.dim == 3
    assert builtin_algebra("so3").c == g.c
    assert oracles.bracket_const(g, 2, 0, 1) == 1
    assert oracles.bracket_const(g, 2, 1, 0) == -1


def test_abelian_families():
    assert builtin_algebra("u1").dim == 1
    assert builtin_algebra("u1^4").dim == 4
    assert not builtin_algebra("u1^4").c


def test_direct_sum_blocks():
    g = builtin_algebra("u1+su2")
    assert g.dim == 4
    # su2 block shifted by one, no cross terms
    assert oracles.bracket_const(g, 3, 1, 2) == 1
    for r, p in product(range(4), repeat=2):
        assert oracles.bracket_const(g, r, 0, p) == 0


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.sampled_from(["u1", "su2", "so3"])
                      | st.integers(1, 4).map(lambda m: f"u1^{m}"),
                      min_size=1, max_size=6))
def test_one_pass_sum_matches_the_pairwise_fold(parts):
    name = "+".join(parts)
    got, want = builtin_algebra(name), oracles.folded_sum(name)
    assert (got.dim, got.c) == (want.dim, want.c)


def test_a_sum_is_validated_once(monkeypatch):
    # each part and the sum are validated once: 2 * 6 * 2,000 constants
    # for 2,000 su2 parts, where the pairwise fold walked every partial
    # sum again, about 12M
    bound = 24_000
    walked = 0
    validate = LieAlgebraData._validate

    def counted(self):
        nonlocal walked
        walked += len(self.c)
        assert walked <= bound, f"more than {bound} constants validated"
        validate(self)

    monkeypatch.setattr(LieAlgebraData, "_validate", counted)
    g = builtin_algebra("+".join(["su2"] * 2000))
    assert (g.dim, len(g.c)) == (6000, 12_000)


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


@pytest.mark.parametrize("build", [
    lambda: load_lie_algebra(2, [(0, 0, 1, 0.5)]),
    lambda: LieAlgebraData(2, {(0, 0, 1): 0.5, (0, 1, 0): -0.5}),
    lambda: InvariantTensor(2, {(0, 0): 0.5}),
    lambda: CSData(builtin_algebra("su2"),
                   builtin_invariant("killing", builtin_algebra("su2"), 2),
                   h=0.1),
], ids=["structure constant", "direct structure constant", "tensor entry",
         "h"])
def test_float_model_data_raises_type_error(build):
    # exactness: a float would be stored as its binary fraction, or reach
    # the scale as one without a denominator
    with pytest.raises(TypeError, match="rational coefficient expected"):
        build()


@pytest.mark.parametrize("build, match", [
    (lambda: CSData(builtin_algebra("u1"), InvariantTensor(2, {(0, 1): 1})),
     r"entry \(0, 1\) has an index out of range 0\.\.0"),
], ids=["tensor index"])
def test_off_algebra_model_data_raises(build, match):
    # an index past the algebra would reach a connection a^r outside the
    # jet chart: d a^r fails later in cs_form
    with pytest.raises(JetvarError, match=match):
        build()


def test_rescaled_epsilon_still_satisfies_jacobi():
    # basis rescaling keeps the algebra valid
    g = load_lie_algebra(3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 2)])
    assert g.dim == 3


def test_killing_form_su2():
    assert killing_form(builtin_algebra("su2")) == {
        (0, 0): Q(-2), (1, 1): Q(-2), (2, 2): Q(-2)}


def test_killing_form_abelian_is_zero():
    assert killing_form(builtin_algebra("u1^2")) == {}


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
    assert oracles.tensor_value(b, (0, 0, 0)) == 1
    assert oracles.tensor_value(b, (0, 1, 1)) == -2
    assert oracles.tensor_value(b, (1, 0, 1)) == -2  # symmetric access
    assert check_invariant_tensor(g, b) == {}


def test_gauge_generator_components():
    g = builtin_algebra("su2")
    ctx = JetContext(3, 3)
    xi_C = gauge_generator(g, ctx)
    comp = xi_C[conn(0, 1)]
    expected = Poly.var(gauge(0, (1,))) \
        + Poly.var(conn(1, 1)) * Poly.var(gauge(2)) \
        - Poly.var(conn(2, 1)) * Poly.var(gauge(1))
    assert comp == expected


def _sparse(params: list) -> dict:
    """The explicit gauge parameters params as _generator reads them."""
    return {r: p for r, p in enumerate(params) if p}


def test_gauge_generator_with_explicit_params():
    g = builtin_algebra("u1")
    ctx = JetContext(3, 1)
    xi_C = _generator(g, ctx, {0: Poly.var(x(0)) * Poly.var(x(2))})
    assert xi_C[conn(0, 0)] == Poly.var(x(2))
    assert xi_C.get(conn(0, 1), Poly.zero()) == Poly.zero()
    assert xi_C[conn(0, 2)] == Poly.var(x(0))


def test_gauge_generators_close_under_the_section_bracket():
    # [xi_C, eta_C] = ([xi,eta])_C on x-dependent parameters
    g = builtin_algebra("su2")
    ctx = JetContext(3, 3)
    xi = [Poly.var(x(0)), Poly.var(x(1), 2), Poly.const(Q(1, 2))]
    eta = [Poly.var(x(2)), Poly.const(1), Poly.var(x(0)) * Poly.var(x(1))]
    xi_C = _generator(g, ctx, _sparse(xi))
    eta_C = _generator(g, ctx, _sparse(eta))
    bracket_C = _generator(g, ctx, _sparse(section_bracket(xi, eta, g)))
    for c in ctx.field_coords(0):
        direct = oracles.apply_derivation(
            xi_C, eta_C.get(c, Poly.zero()).gradient()) \
            - oracles.apply_derivation(eta_C, xi_C.get(c, Poly.zero()).gradient())
        assert direct == bracket_C.get(c, Poly.zero())


def test_section_bracket_is_antisymmetric():
    g = builtin_algebra("su2")
    xi = [Poly.var(gauge(r)) for r in range(3)]
    eta = [Poly.var(gauge(r)) * Poly.var(gauge(r)) for r in range(3)]
    lhs = section_bracket(xi, eta, g)
    rhs = section_bracket(eta, xi, g)
    for a, b in zip(lhs, rhs):
        assert a == -b


def test_large_abelian_algebra_checks_in_sparse_time():
    # the dense Jacobi loop gave no verdict on u1^40 within 60 s
    g = builtin_algebra("u1^40")
    assert (g.dim, g.c) == (40, {})
    assert check_invariant_tensor(g, builtin_invariant("unit", g, 2)) == {}
    assert killing_form(g) == {}


def test_gauge_generator_on_a_large_abelian_algebra():
    # the dense (p, q) loop made dim^3 n constant lookups per call
    g = builtin_algebra("u1^40")
    assert gauge_generator(g, JetContext(3, 40)) == {
        conn(r, mu): Poly.var(gauge(r, (mu,))) for r in range(40) for mu in range(3)}


# -- sparse checks against the dense oracles ----------------------------------

RATIONALS = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 2), Q(3)])


@st.composite
def algebra_cases(draw):
    """(dim, constants, u1 indices, whether a constant was perturbed):
    u1^m plus an optional rescaled su2 under a random relabeling of the
    basis, possibly with one perturbed constant that breaks antisymmetry or
    Jacobi."""
    m = draw(st.integers(0, 3))
    has_su2 = m == 0 or draw(st.booleans())
    dim = m + 3 * has_su2
    perm = draw(st.permutations(range(dim)))
    c = {}
    if has_su2:
        # e_i -> lam_i e_i rescales c^r_pq by lam_p lam_q / lam_r
        lam = [draw(RATIONALS) for _ in range(3)]
        for (r, p, q), v in _EPS3.items():
            c[(perm[m + r], perm[m + p], perm[m + q])] = lam[p] * lam[q] / lam[r] * v
    index = st.integers(0, dim - 1)
    kind = draw(st.sampled_from(["valid", "antisymmetry", "jacobi"]))
    if kind == "antisymmetry":
        c[(draw(index), draw(index), draw(index))] = draw(RATIONALS)
    elif kind == "jacobi":
        r, p, q = draw(index), draw(index), draw(index)
        v = draw(RATIONALS)
        c[(r, p, q)] = v
        c[(r, q, p)] = -v if p != q else 0
    return dim, c, [perm[i] for i in range(m)], kind != "valid"


def _outcome(check, *args):
    """The value of check(*args), or the type and message it raised."""
    try:
        return check(*args)
    except JetvarError as exc:
        return type(exc), str(exc)


def _invariant_tensor(draw, g, u1, k) -> InvariantTensor:
    """A random degree-k invariant tensor: the polarization of a sum of
    products of u1 coordinates, times a power of the Killing quadratic form
    when su2 is present.  The entry at a sorted index tuple e is the
    coefficient of x^e divided by the number of orderings of e."""
    quadratic = {(i, j): v * (1 if i == j else 2)
                 for (i, j), v in killing_form(g).items() if i <= j}
    poly: dict = {}
    for _ in range(draw(st.integers(1, 3))):
        coef = draw(RATIONALS)
        j = draw(st.integers(0, k // 2)) if quadratic else 0
        if not u1 and k != 2 * j:
            continue
        us = tuple(draw(st.sampled_from(u1)) for _ in range(k - 2 * j))
        for factors in product(quadratic.items(), repeat=j):
            key = tuple(sorted(sum((ij for ij, _ in factors), us)))
            qv = prod(v for _, v in factors)
            poly[key] = poly.get(key, 0) + coef * qv
    return InvariantTensor(k, {e: v / _multinomial(e) for e, v in poly.items()})


@settings(max_examples=300, deadline=None)
@given(case=algebra_cases(), data=st.data())
def test_sparse_checks_match_the_dense_oracles(case, data):
    dim, c, u1, perturbed = case
    want = _outcome(oracles.validate_algebra, dim, dict(c))
    got = _outcome(LieAlgebraData, dim, dict(c))
    if want is not None:
        assert got == want
        return
    g = got
    assert killing_form(g) == oracles.killing_form(g)
    k = data.draw(st.integers(1, 3))
    entries = {}
    if not perturbed:  # a perturbation may leave another valid algebra
        b = _invariant_tensor(data.draw, g, u1, k)
        assert oracles.check_invariant_tensor(g, b) == {}
        assert check_invariant_tensor(g, b) == {}
        entries = dict(b.entries)
    for _ in range(data.draw(st.integers(1, 2))):
        idx = tuple(sorted(data.draw(st.integers(0, dim - 1)) for _ in range(k)))
        entries[idx] = entries.get(idx, 0) + data.draw(RATIONALS)
    b = InvariantTensor(k, entries)
    assert check_invariant_tensor(g, b) == oracles.check_invariant_tensor(g, b)


PARAMS = st.sampled_from([
    Poly.zero(), Poly.const(Q(1, 2)), Poly.var(x(0)), Poly.var(x(2), 2),
    Poly.var(x(1)) * Poly.var(x(2)) - Poly.const(3)])


@settings(max_examples=150, deadline=None)
@given(case=algebra_cases(), data=st.data())
def test_bracket_and_gauge_generator_match_the_dense_oracles(case, data):
    dim, c, _, _ = case
    g = _outcome(LieAlgebraData, dim, dict(c))
    assume(isinstance(g, LieAlgebraData))
    ctx = JetContext(3, dim)
    xi = [data.draw(PARAMS) for _ in range(dim)]
    eta = [data.draw(PARAMS) for _ in range(dim)]
    assert section_bracket(xi, eta, g) == oracles.section_bracket(xi, eta, g)
    assert gauge_generator(g, ctx) == oracles.gauge_generator(g, ctx)
    assert (_generator(g, ctx, _sparse(xi))
            == oracles.gauge_generator(g, ctx, params=xi))


@settings(max_examples=150, deadline=None)
@given(case=algebra_cases(), data=st.data())
def test_sparse_and_symbolic_parameters_take_one_path(case, data):
    dim, c, _, _ = case
    g = _outcome(LieAlgebraData, dim, dict(c))
    assume(isinstance(g, LieAlgebraData))
    ctx = JetContext(3, dim)
    params = [data.draw(PARAMS) if data.draw(st.booleans()) else Poly.zero()
              for _ in range(dim)]
    assert (_generator(g, ctx, _sparse(params))
            == oracles.gauge_generator(g, ctx, params=params))
    # the symbolic family's component r is the explicit xi^r e_r; the
    # components add up to its generator and share no monomial
    total: dict = {}
    for r in range(dim):
        part = _generator(g, ctx, {r: Poly.var(gauge(r))})
        e_r = [Poly.var(gauge(r)) if s == r else Poly.zero() for s in range(dim)]
        assert part == oracles.gauge_generator(g, ctx, params=e_r)
        for coord, p in part.items():
            terms = total.setdefault(coord, {})
            assert not terms.keys() & p.terms.keys()
            terms.update(p.terms)
    assert {coord: Poly(t) for coord, t in total.items()} == gauge_generator(g, ctx)
