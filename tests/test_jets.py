"""Total derivatives, horizontal projection and differential, contact forms,
the context's image memos, and the prolongation of vertical fields by the
test oracle."""

import dataclasses
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvar import jets, polynomial
from jetvar.algebra import builtin_algebra, builtin_invariant
from jetvar.chern_simons import CSData
from jetvar.errors import JetvarError, TermLimitExceeded
from jetvar.forms import (Form, _wrap, add_into, exterior_d,
                          linear_combination, wedge)
from jetvar.indets import (BG, GAUGE, T, X, bg, conn, gauge, is_field_jet,
                           matter, multi_index, with_extra_deriv, x)
from jetvar.jets import (JetContext, horizontal_differential_into,
                         horizontal_projection, horizontal_projection_into,
                         total_derivatives_into)
from jetvar.polynomial import Poly, Q
from jetvar.random_inputs import random_poly, random_vertical_field
from oracles import (apply_derivation, contact_form, generator,
                     horizontal_differential, indets, jet_chart, partial,
                     prolong, random_form, total_derivative)

CTX = JetContext(2, 1, matter_dim=1)


def _densities(rng, count=8):
    pool = [c for c in jet_chart(CTX, 3)
            if c[0] == 0 or (c != T and len(multi_index(c)) <= 1)]
    return [random_poly(pool, rng, max_monomials=3) for _ in range(count)]


@pytest.mark.parametrize("dims", [(1, 2, 1), (3, 3, 0), (5, 4, 0)])
def test_field_coords_match_the_enumerated_chart(dims):
    ctx = JetContext(*dims)
    chart = jet_chart(ctx, 3)
    for k in range(4):
        assert ctx.field_coords(k) == [
            c for c in chart if is_field_jet(c) and len(multi_index(c)) == k]
        # a fresh list each call: a caller may extend it
        ctx.field_coords(k).append(T)
        assert T not in ctx.field_coords(k)
    assert all(c in ctx for c in chart)


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
    for v in indets(f):
        if is_field_jet(v) or v[0] in (BG, GAUGE):
            out = out + Poly.var(with_extra_deriv(v, lam)) * partial(f, v)
    return out


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


CTX3 = JetContext(3, 1, matter_dim=1)
H_POOL = [x(0), x(1), x(2), T, conn(0, 0), conn(0, 2, (1,)), matter(0),
          matter(0, (0,)), bg(0, 1), bg(0, 0, (2, 2)), gauge(0), gauge(0, (0,))]


def _horizontal_differential_oracle(a: Form) -> Form:
    """Every direction: dx^lam wedge d_lam of each coefficient, the wedge
    dropping the lam already present."""
    out = Form.zero(CTX3)
    for dcs, f in a.terms.items():
        for lam in range(CTX3.n):
            g = total_derivative(f, lam, CTX3)
            if g:
                out = out + wedge(Form(CTX3, {(x(lam),): g}),
                                  Form(CTX3, {dcs: Poly.const(1)}))
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
    return Form(CTX3, {d: p for d, p in terms.items() if p})


@pytest.mark.parametrize("degree", range(CTX3.n))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_horizontal_differential_matches_the_all_directions_oracle(degree, data):
    a = data.draw(horizontal_forms(degree))
    assert horizontal_differential(a) == _horizontal_differential_oracle(a)


WEIGHTS = [1, -1, Q(3, 2)]


@pytest.mark.parametrize("degree", range(CTX3.n))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_horizontal_differential_core_adds_into_a_filled_accumulator(degree, data):
    # seed + c * d_H a, with seed sharing terms with -c * d_H a half the time
    a = data.draw(horizontal_forms(degree))
    c = data.draw(st.sampled_from(WEIGHTS))
    result = horizontal_differential(a)
    seed = data.draw(horizontal_forms(degree + 1))
    if data.draw(st.booleans()):
        seed = seed - result.scale(c)
    seed = seed + Form(CTX3, {tuple(x(lam) for lam in range(degree + 1)):
                              Poly.var(T)})
    acc = horizontal_differential_into(add_into({}, seed), a, c)
    assert _wrap(CTX3, acc) == linear_combination(CTX3,
                                                  ((seed, 1), (result, c)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_total_derivative_core_adds_into_a_filled_term_dict(data):
    # the lam asked for, each into its own filled term dict, in one walk
    f = data.draw(horizontal_forms(0)).coefficient(())
    lams = data.draw(st.sets(st.integers(0, CTX3.n - 1), min_size=1))
    c = data.draw(st.sampled_from(WEIGHTS))
    want, outs = {}, {}
    for lam in lams:
        result = _total_derivative_oracle(f, lam)
        seed = Poly.var(T) + Poly.var(matter(0)) * Poly.var(x(lam))
        if data.draw(st.booleans()):
            seed = seed - result * c
        want[lam] = seed + result * c
        outs[lam] = dict(seed.terms)
    assert total_derivatives_into(outs, f, CTX3, c) is outs
    assert {lam: Poly(out) for lam, out in outs.items()} == want


def test_term_cap_stops_total_derivative(term_cap):
    # d_0 of a product of three and of four indeterminates
    f = Poly.var(conn(0, 0)) * Poly.var(conn(0, 1)) * Poly.var(x(0))
    g = f * Poly.var(matter(0))
    term_cap(3)
    assert total_derivative(f, 0, CTX).term_count() == 3
    with pytest.raises(TermLimitExceeded):
        total_derivative(g, 0, CTX)


def test_term_cap_stops_horizontal_differential(term_cap):
    # d_H (a0 a1 dx1) = d_0(a0 a1) dx0^dx1, two terms
    a = Form(CTX, {(x(1),): Poly.var(conn(0, 0)) * Poly.var(conn(0, 1))})
    # h0 ((a0 + a1) da0) = (a0 + a1)(a0_{;0} dx0 + a0_{;1} dx1), four terms
    b = Form(CTX, {(conn(0, 0),): Poly.var(conn(0, 0)) + Poly.var(conn(0, 1))})
    term_cap(2)
    assert horizontal_differential(a).term_count() == 2
    assert horizontal_projection(b).term_count() == 4
    term_cap(1)
    with pytest.raises(TermLimitExceeded):
        horizontal_differential(a)
    with pytest.raises(TermLimitExceeded):
        horizontal_projection(b)


def _fiber_replacement_oracle(c: tuple) -> Form:
    """h0 image of dc: c_{D+lam} dx^lam summed over lam."""
    out = Form.zero(CTX)
    for lam in range(CTX.n):
        out = out + Form(CTX, {(x(lam),): Poly.var(with_extra_deriv(c, lam))})
    return out


def _horizontal_projection_oracle(a: Form) -> Form:
    """The wedge loop: the coefficient as a 0-form, wedged in turn with dx^lam
    for dx^lam and with the fiber replacement for a field jet."""
    out = Form.zero(CTX)
    for dcs, f in a.terms.items():
        acc = Form.from_poly(CTX, f)
        for c in dcs:
            if acc.is_zero():
                break
            if c[0] == X:
                acc = wedge(acc, generator(CTX, c))
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


# t has no h0 image
H0_GENERATORS = [c for c in jet_chart(CTX, 3)
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
    return Form(CTX, {d: p for d, p in terms.items() if p})


@settings(max_examples=150, deadline=None)
@given(projection_forms())
def test_horizontal_projection_matches_the_wedge_loop_oracle(a):
    assert _outcome(horizontal_projection, a) \
        == _outcome(_horizontal_projection_oracle, a)


@settings(max_examples=100, deadline=None)
@given(projection_forms(), st.sampled_from([1, -1, Q(2, 3)]))
def test_horizontal_projection_into_adds_into_a_filled_accumulator(a, c):
    # the accumulator starts as a, whose dx-only tuples h0 fixes, so their
    # terms collide and, for c = -1, cancel
    def added(a):
        return _wrap(CTX, horizontal_projection_into(add_into({}, a), a, c))

    def want(a):
        return a + _horizontal_projection_oracle(a).scale(c)

    assert _outcome(added, a) == _outcome(want, a)
    with pytest.raises(JetvarError, match="h0 undefined on dt"):
        horizontal_projection_into(add_into({}, a), generator(CTX, T), c)


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


def test_total_derivative_of_a_third_order_jet_gives_fourth_order_jets():
    # J^inf has no top order
    for c in CTX.field_coords(3):
        for lam in range(CTX.n):
            d = total_derivative(Poly.var(c), lam, CTX)
            assert d == Poly.var(with_extra_deriv(c, lam))
            assert with_extra_deriv(c, lam) in CTX.field_coords(4)


@pytest.mark.parametrize("sizes", [(3, 5, 3), (5, 3, 5)])
def test_memoized_images_follow_the_base_dimension(sizes):
    # d and d_H images are memoized per process and context; the same
    # indeterminate on contexts of other dimensions gets only in-range lifts
    for n in sizes:
        ctx = JetContext(n, 1)
        lam = range(n)
        a = conn(0, 0, (1,))
        assert [total_derivative(Poly.var(a), mu, ctx) for mu in lam] \
            == [Poly.var(with_extra_deriv(a, mu)) for mu in lam]
        for v in (a, bg(0, 1)):
            f = Form.from_poly(ctx, Poly.var(v))
            lifts = {(x(mu),): Poly.var(with_extra_deriv(v, mu)) for mu in lam}
            assert horizontal_differential(f).terms == lifts
            d_lifts = {(v,): Poly.const(1)} if v in ctx else lifts
            assert exterior_d(f).terms == d_lifts
    # a context is a frozen value: equal contexts built apart share one
    # image table, and a context of another dimension has its own
    name, built = object(), []   # a map that nothing else builds
    for n in (sizes[0], sizes[0], 4):
        ctx = JetContext(n, 1)
        image = ctx._images(name, lambda v: built.append(ctx) or v)
        assert image(x(0)) == x(0)
    assert built == [JetContext(sizes[0], 1), JetContext(4, 1)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.n = 5
    su2 = builtin_algebra("su2")
    cs = CSData(su2, builtin_invariant("killing", su2, 2), matter_dim=3)
    assert cs.ctx == JetContext(3, 3, 3)


def test_a_context_keeps_the_map_it_made_for_each_name():
    # the first call for a name on a context makes its memoized map and the
    # context keeps it; a later call returns that map and ignores its build.
    # An equal context built apart makes its own map over the same table.
    ctx = JetContext(2, 3, 1)
    name, built = object(), []
    image = ctx._images(name, lambda v: built.append(v) or (v,))
    assert ctx._images(name, lambda v: ()) is image
    assert image(x(1)) == (x(1),) and image(x(1)) == (x(1),)
    other = JetContext(2, 3, 1)
    twin = other._images(name, lambda v: ())
    assert twin is not image and twin(x(1)) == (x(1),)
    assert built == [x(1)]
    # the kept maps take no part in a context's value
    assert other == ctx and hash(other) == hash(ctx)
    assert repr(ctx) == "JetContext(n=2, gauge_dim=3, matter_dim=1)"


class _Tracked(Form):
    """A form that a weak reference can follow."""

    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("op", [horizontal_projection,
                                horizontal_projection_into, exterior_d,
                                horizontal_differential])
def test_a_kept_image_build_holds_no_form(op):
    # the build that a context keeps for the first call of an operator
    # captures only the context, so the form of that call is freed once its
    # caller drops it
    ctx = JetContext(2, 1, 1)   # a new context object keeps no map yet
    assert not ctx._maps
    a = _Tracked(ctx, {(x(0),): Poly.var(conn(0, 1)) * Poly.var(bg(0, 0))})
    op({}, a) if op is horizontal_projection_into else op(a)
    assert ctx._maps
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


def test_horizontal_projection_kills_contact_forms():
    for c in CTX.field_coords(0) + CTX.field_coords(1):
        theta = contact_form(c, CTX)
        assert horizontal_projection(theta).is_zero()


def test_horizontal_projection_is_identity_on_dx():
    a = generator(CTX, x(1))
    assert (horizontal_projection(a) - a).is_zero()


def test_horizontal_projection_rejects_dt():
    a = generator(CTX, T)
    with pytest.raises(JetvarError):
        horizontal_projection(a)


def test_dH_h0_equals_h0_d(rng):
    for degree in (0, 1):
        for _ in range(6):
            a = random_form(CTX, degree, rng)
            lhs = horizontal_differential(horizontal_projection(a))
            rhs = horizontal_projection(exterior_d(a))
            assert (lhs - rhs).is_zero()


def test_dH_squared_is_zero(rng):
    for _ in range(6):
        a = horizontal_projection(random_form(CTX, 0, rng))
        assert horizontal_differential(horizontal_differential(a)).is_zero()


def test_prolongation_components():
    f = Poly.var(conn(0, 0)) * Poly.var(x(1))
    j = prolong({conn(0, 0): f}, CTX)
    assert j[conn(0, 0)] == f
    for lam in range(CTX.n):
        assert j[conn(0, 0, (lam,))] == total_derivative(f, lam, CTX)
    # other fields untouched
    assert conn(0, 1) not in j


def _is_interned(v):
    return polynomial._INDETS[polynomial._IDS[v]] is v


def test_image_memos_hold_the_interned_tuples():
    # the d and d_H images are keyed by id: their generators are the tuples
    # of the intern table, not equal copies, and each lift is the id of
    # with_extra_deriv(v, lam) for the lam of its generator x^lam
    ctx = JetContext(3, 2, matter_dim=1)
    image = jets._horizontal_image(ctx)

    def assert_interned(v, img):
        for g, lift in img:
            assert _is_interned(g)
            if lift is None:
                assert g == v
            else:
                assert g[0] == X
                assert polynomial._INDETS[lift] == with_extra_deriv(v, g[1])

    for v in (x(1), conn(1, 2), matter(0, (1,)), bg(0, 1), gauge(1, (2,))):
        assert_interned(v, image(polynomial._intern(v)))
    exterior_d(Form.from_poly(ctx, Poly.var(bg(0, 1)) * Poly.var(gauge(1))
                              * Poly.var(conn(0, 2))))
    d_images = jets._IMAGE_TABLES[("d", ctx)]
    assert {len(img) for img in d_images.values()} == {1, 3}
    for i, img in d_images.items():
        assert_interned(polynomial._INDETS[i], img)
    # the forms read from the d_H image are the ones the indeterminates give
    assert jets._d_H_coordinate(x(2), ctx) == generator(ctx, x(2))
    for c in (conn(1, 2), matter(0, (1,))):
        d_H_c = Form(ctx, {(x(lam),): Poly.var(with_extra_deriv(c, lam))
                           for lam in range(3)})
        assert jets._d_H_coordinate(c, ctx) == d_H_c
        assert contact_form(c, ctx) == generator(ctx, c) - d_H_c


def test_prolongation_is_linear(rng):
    u = random_vertical_field(CTX, rng)
    v = random_vertical_field(CTX, rng)
    w = {c: u.get(c, Poly.zero()) + v.get(c, Poly.zero())
         for c in set(u) | set(v)}
    ju, jv, jw = (prolong(z, CTX) for z in (u, v, w))
    for c in set(ju) | set(jv) | set(jw):
        assert jw.get(c, Poly.zero()) == \
            ju.get(c, Poly.zero()) + jv.get(c, Poly.zero())


def test_prolongation_preserves_brackets(rng):
    # J1 of [u, v] equals the bracket of the prolongations, componentwise
    u = random_vertical_field(CTX, rng)
    v = random_vertical_field(CTX, rng)
    ju = prolong(u, CTX)
    jv = prolong(v, CTX)
    w = {}
    for c in CTX.field_coords(0):
        comp = apply_derivation(ju, jv.get(c, Poly.zero()).gradient()) \
            - apply_derivation(jv, ju.get(c, Poly.zero()).gradient())
        if comp:
            w[c] = comp
    jw = prolong(w, CTX)
    for c in CTX.field_coords(0) + CTX.field_coords(1):
        direct = apply_derivation(ju, jv.get(c, Poly.zero()).gradient()) \
            - apply_derivation(jv, ju.get(c, Poly.zero()).gradient())
        assert jw.get(c, Poly.zero()) == direct


# -- currents as horizontal (n-1)-forms ----------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_current_components_invert_current_form(rng, n):
    ctx = JetContext(n, 1, matter_dim=1)
    pool = [c for c in jet_chart(ctx, 2) if c != T]
    for _ in range(10):
        comps = [random_poly(pool, rng) if rng.random() < 0.8 else Poly.zero()
                 for _ in range(n)]
        assert ctx.current_components(ctx.current_form(comps)) == comps


def test_current_form_follows_the_interior_product_sign():
    # omega_1 = d/dx^1 | dx^0 ^ dx^1 = -dx^0 on a 2D base
    ctx = JetContext(2, 1)
    p = Poly.var(conn(0, 0))
    assert ctx.current_form([Poly.zero(), p]) == Form(ctx, {(x(0),): -p})
    assert ctx.current_form([p, Poly.zero()]) == Form(ctx, {(x(1),): p})


def test_current_components_reject_other_forms():
    ctx = JetContext(3, 1)
    p = Poly.var(conn(0, 0))
    with_da = Form(ctx, {(x(0), conn(0, 1)): p})
    with pytest.raises(JetvarError, match="not a horizontal"):
        ctx.current_components(with_da)
    low_degree = Form(ctx, {(x(0),): p})
    with pytest.raises(JetvarError, match="not a horizontal"):
        ctx.current_components(low_degree)
