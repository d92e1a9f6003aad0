"""Ring axioms, calculus rules, and the frozen text format of Poly."""

import functools
import operator
from bisect import bisect_left
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvar.errors import TermLimitExceeded
from jetvar.indets import T, bg, conn, gauge, x
from jetvar.polynomial import (_INDETS, Poly, Q, _intern, _scaled, add_dicts,
                               chain_rule, integral_multiple, mul_dicts,
                               set_max_terms)
import oracles
from oracles import (CyclicSubstitution, decode_pairs, encode_terms, evaluate,
                     partial, substitute)

X0, X1 = x(0), x(1)
A00 = conn(0, 0)
A01 = conn(0, 1)
A00_0 = conn(0, 0, (0,))
B00 = bg(0, 0)
XI = gauge(0)
POOL = [X0, X1, A00, A01, A00_0, B00, XI, T]

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6)


@st.composite
def polys(draw):
    nterms = draw(st.integers(0, 4))
    p = Poly.zero()
    for _ in range(nterms):
        term = Poly.const(draw(rationals))
        for _ in range(draw(st.integers(0, 3))):
            term = term * Poly.var(draw(st.sampled_from(POOL)),
                                   draw(st.integers(1, 3)))
        p = p + term
    return p


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero() == a
    assert a * Poly.const(1) == a
    assert a - a == Poly.zero()


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_canonical_form_is_unique(a, b):
    # equal values have identical dicts, so string equality too
    s = a + b
    t = b + a
    assert s.terms == t.terms
    assert str(s) == str(t)


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_partial_is_a_derivation(a, b):
    for v in (A00, X0):
        assert partial(a * b, v) == partial(a, v) * b + a * partial(b, v)
        assert partial(a + b, v) == partial(a, v) + partial(b, v)


@settings(max_examples=80, deadline=None)
@given(polys())
def test_partials_commute(a):
    assert partial(partial(a, A00), X1) == partial(partial(a, X1), A00)


@settings(max_examples=150, deadline=None)
@given(polys())
def test_gradient_equals_every_partial(a):
    assert a.gradient() == {v: partial(a, v) for v in oracles.indets(a)}


def test_partial_examples():
    p = Poly.var(A00, 2) * Poly.var(X0) + Poly.var(X0, 3)
    assert partial(p, A00) == 2 * Poly.var(A00) * Poly.var(X0)
    assert partial(p, X0) == Poly.var(A00, 2) + 3 * Poly.var(X0, 2)
    assert partial(p, A01) == Poly.zero()


def test_negative_exponent_is_rejected():
    # an exponent is a count of repeated ids, so -1 would read as 0
    with pytest.raises(ValueError):
        Poly.var(A00, -1)


def test_pow_matches_repeated_multiplication():
    p = Poly.var(A00) + Poly.var(X0) - Poly.const(Q(1, 2))
    q = Poly.const(1)
    for e in range(6):
        assert p ** e == q
        q = q * p


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_integrate_t_is_linear(a, b):
    assert oracles.t_integral(a + b) == oracles.t_integral(a) + oracles.t_integral(b)


def test_integrate_t_fundamental_theorem():
    # integral of t^e over [0,1] is 1/(e+1); t-free factors pass through
    t = Poly.var(T)
    p = Poly.var(A00) * t ** 3 + Poly.var(X0)
    assert oracles.t_integral(p) == Q(1, 4) * Poly.var(A00) + Poly.var(X0)
    assert T not in oracles.indets(oracles.t_integral(p))


def test_substitute_allows_self_mention():
    # one-shot replacement a -> t*a
    a, t = Poly.var(A00), Poly.var(T)
    p = a ** 2 + a
    out = substitute(p, {A00: t * a})
    assert out == (t * a) ** 2 + t * a


def test_substitute_rejects_cross_mention_of_bound_indets():
    with pytest.raises(CyclicSubstitution):
        substitute(Poly.var(A00), {A00: Poly.var(A01), A01: Poly.var(A00)})


def test_substitute_is_simultaneous():
    p = Poly.var(A00) * Poly.var(X0)
    out = substitute(p, {A00: Poly.var(X1), X0: Poly.var(B00)})
    assert out == Poly.var(X1) * Poly.var(B00)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_evaluate_is_a_ring_homomorphism(a, b):
    point = {v: Fraction(i - 3, 2) for i, v in enumerate(POOL)}
    assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point)
    assert evaluate(a + b, point) == evaluate(a, point) + evaluate(b, point)


def test_term_cap_stops_products_and_sums(term_cap):
    a = Poly.var(A00) + Poly.var(A01) + Poly.var(X0)
    b = Poly.var(X1) + Poly.var(B00) + Poly.var(XI)
    term_cap(5)
    with pytest.raises(TermLimitExceeded):
        a * b    # 9 terms
    with pytest.raises(TermLimitExceeded):
        a + b    # 6 terms
    assert (a + Poly.var(A00)).term_count() == 3   # within the cap


def test_text_format_is_frozen():
    p = Poly.var(A00, 2) * Q(3, 4) - Poly.var(conn(1, 2, (0, 1))) \
        + Poly.const(Q(-1, 2)) + Poly.var(X1) * Poly.var(XI)
    assert str(p) == ("1/1*x[1]*xi[r=0;D=()] + 3/4*a[r=0;mu=0;D=()]^2 "
                      "+ -1/1*a[r=1;mu=2;D=(0,1)] + -1/2")
    assert str(Poly.zero()) == "0"


# -- integer-first coefficients against an all-Fraction oracle -------------
#
# Test-local copies of the kernel as it was when every coefficient was a
# Fraction: inputs are converted with Fraction(c), so every sum and product
# is Fraction arithmetic.  The kernel under test must give equal term dicts.


def _oracle_add_dicts(a, b):
    out = {m: Fraction(c) for m, c in a.items()}
    for m, c in b.items():
        s = out.get(m, 0) + Fraction(c)
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _oracle_mul_dicts(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            exps = dict(ma)
            for v, e in mb:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items()))
            s = out.get(m, 0) + Fraction(ca) * Fraction(cb)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _oracle_chain_rule(terms, route):
    for m, c in terms.items():
        for i, (v, e) in enumerate(m):
            rest = dict(m[:i] + m[i + 1:])
            if e > 1:
                rest[v] = e - 1
            for out, w, lift in route(v):
                nm = dict(rest)
                if lift is not None:
                    nm[lift] = nm.get(lift, 0) + 1
                nm = tuple(sorted(nm.items()))
                s = out.get(nm, 0) + w * Fraction(c) * e
                if s:
                    out[nm] = s
                else:
                    out.pop(nm, None)


def _oracle_integrate_t(terms):
    out = {}
    for m, c in terms.items():
        e = dict(m).get(T, 0)
        nm = tuple((w, k) for w, k in m if w != T)
        s = out.get(nm, 0) + Fraction(c) / (e + 1)
        if s:
            out[nm] = s
        else:
            out.pop(nm, None)
    return out


def assert_stored_form(terms):
    """Every coefficient is a nonzero int, or a Fraction that is not one."""
    for c in terms.values():
        assert c
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


coefficients = st.one_of(st.integers(-6, 6), rationals).filter(bool).map(
    lambda c: c.numerator if c.denominator == 1 else c)
monomials = st.dictionaries(st.sampled_from(POOL), st.integers(1, 3),
                            max_size=3).map(lambda d: tuple(sorted(d.items())))
term_dicts = st.one_of(
    st.just({(): 1}),
    coefficients.map(lambda c: {(): c}),
    st.dictionaries(monomials, coefficients, min_size=1, max_size=1),
    st.dictionaries(monomials, coefficients, max_size=6))


@settings(max_examples=300, deadline=None)
@given(term_dicts, term_dicts)
def test_sums_and_products_equal_the_all_fraction_oracle(a, b):
    total, product = encode_terms(a), {}
    add_dicts(total, encode_terms(b))
    mul_dicts(encode_terms(a), encode_terms(b), product)
    for got, want in ((total, _oracle_add_dicts(a, b)),
                      (product, _oracle_mul_dicts(a, b))):
        assert decode_pairs(got) == want
        assert_stored_form(got)


def _oracle_scale(a, c):
    return {m: Fraction(v) * c for m, v in a.items() if c}


@settings(max_examples=300, deadline=None)
@given(term_dicts, term_dicts, term_dicts,
       st.one_of(st.sampled_from([1, -1, 0, Fraction(-6, 1)]), coefficients))
def test_in_place_sums_and_products_equal_the_all_fraction_oracle(a, b, out, c):
    # c * b added into a, and c * a * b added into a filled dict out; an
    # integral Fraction c must still leave every coefficient in stored form
    ea, eb = encode_terms(a), encode_terms(b)
    total, product = dict(ea), encode_terms(out)
    add_dicts(total, eb, c)
    mul_dicts(ea, eb, product, c)
    assert (ea, eb) == (encode_terms(a), encode_terms(b))
    assert decode_pairs(total) == _oracle_add_dicts(a, _oracle_scale(b, c))
    assert decode_pairs(product) == _oracle_add_dicts(
        out, _oracle_scale(_oracle_mul_dicts(a, b), c))
    assert_stored_form(total)
    assert_stored_form(product)


@settings(max_examples=100, deadline=None)
@given(polys())
def test_aliased_operands(p):
    before = dict(p.terms)
    pairs = decode_pairs(p.terms)
    assert decode_pairs((p + p).terms) == _oracle_add_dicts(pairs, pairs)
    assert (p - p).terms == {}
    assert decode_pairs((p * p).terms) == _oracle_mul_dicts(pairs, pairs)
    assert p.terms == before


def _by_id(route):
    """The kernel's route on ids for a route on indeterminates, the form in
    which the pair-tuple oracles take it."""
    def by_id(i):
        return [(out, w, None if lift is None else _intern(lift))
                for out, w, lift in route(_INDETS[i])]
    return by_id


def _route_to(outs):
    # every indeterminate feeds a fixed mix of weights, lifts and no route
    def route(v):
        i = POOL.index(v)
        return [(outs[0], 1, None), (outs[1], -1, X1), (outs[0], Q(3, 2), X0),
                (outs[1], 1, A00)][i % 5:]
    return route


@settings(max_examples=300, deadline=None)
@given(term_dicts)
def test_chain_rule_and_integration_equal_the_all_fraction_oracle(a):
    got, want = ({}, {}), ({}, {})
    chain_rule(encode_terms(a), _by_id(_route_to(got)))
    _oracle_chain_rule(a, _route_to(want))
    assert tuple(map(decode_pairs, got)) == want
    p = Poly(encode_terms(a))
    integral = oracles.t_integral(p).terms
    assert decode_pairs(integral) == _oracle_integrate_t(a)
    for terms in (*got, integral, *(q.terms for q in p.gradient().values())):
        assert_stored_form(terms)


@pytest.mark.parametrize("bad", [0.5, 2.0, Decimal("1.5"), "1/2", 1 + 0j])
def test_non_rational_coefficients_are_rejected(bad):
    with pytest.raises(TypeError):
        Poly.const(bad)
    with pytest.raises(TypeError):
        Poly.var(A00) * bad


def test_integral_values_are_stored_as_int():
    half = Poly.const(Q(1, 2))
    a = Poly.var(A00, 2) * Q(1, 2)
    for p, want in [(Poly.const(Fraction(4, 2)), 2),
                    (Poly.var(A00) * Fraction(3, 1), 3),
                    (Poly.const(True), 1),
                    (half * 2, 1),
                    (half + half, 1),
                    (Poly.var(A00) * Q(2, 3) * Q(3, 2), 1),
                    (a.gradient()[A00], 1)]:
        (c,) = p.terms.values()
        assert c == want and type(c) is int


@settings(max_examples=200, deadline=None)
@given(st.lists(polys(), max_size=4))
def test_integral_multiple_scales_in_ints_as_the_fraction_route(ps):
    # each coefficient is scaled in ints; the route through Fraction
    # products and _exact gives the same values, all stored as ints
    N, scaled = integral_multiple(iter(ps))
    dens = {c.denominator for p in ps for c in p.terms.values()
            if type(c) is not int}
    assert N == functools.reduce(lambda a, b: a * b // gcd(a, b), dens, 1)
    want = [Poly(_scaled(p.terms, N)) for p in ps] if N > 1 else ps
    assert scaled == want
    for got, p in zip(scaled, want):
        assert list(got.terms) == list(p.terms)
        assert all(type(c) is int for c in got.terms.values())


def _t_term(e, *pairs):
    """The pair-tuple monomial t^e times pairs, sorted by indeterminate."""
    return tuple(sorted(((T, e),) * bool(e) + pairs))


@pytest.mark.parametrize("terms", [
    # t^0 ... t^6 on one monomial: 1 + 1/2 + ... + 1/7 = 363/140
    {_t_term(e, (A00, 1)): 1 for e in range(7)},
    # t^e x0^e with coefficient e + 1 integrates to x0^e exactly
    {_t_term(e, (X0, e) if e else (A01, 1)): e + 1 for e in range(7)},
    # Fraction inputs, two of them summing to the int 3/4 + 1/4 = 1
    {_t_term(2, (A00, 2)): Q(3, 4), _t_term(5, (X0, 1)): Q(-2, 3),
     _t_term(1, (XI, 1)): Q(3, 2), _t_term(0, (XI, 1)): Q(1, 4)},
    # a non-integral result: t^6 -> 1/7
    {_t_term(6): 1, _t_term(3, (B00, 1)): -5},
    # terms that cancel to 0, with ints and with Fractions, next to a survivor
    {_t_term(1, (A00, 1)): 2, _t_term(0, (A00, 1)): -1,
     _t_term(2, (X1, 1)): Q(3, 2), _t_term(0, (X1, 1)): Q(-1, 2),
     _t_term(4, (X0, 1)): 5, _t_term(0, (X0, 1)): -1, _t_term(3, (X0, 1)): 1},
    # everything cancels
    {_t_term(3, (XI, 2)): 4, _t_term(0, (XI, 2)): -1},
])
def test_integrate_t_equals_the_pair_tuple_oracle(terms):
    got = oracles.t_integral(Poly(encode_terms(terms))).terms
    assert decode_pairs(got) == oracles.integrate_t(terms)
    assert_stored_form(got)


def test_integrate_t_promotes_to_fraction_only_for_a_fraction():
    half = oracles.t_integral(Poly.var(T)).terms
    assert half == {(): Fraction(1, 2)} and type(half[()]) is Fraction
    one = oracles.t_integral(Poly.var(T) * 2).terms
    assert one == {(): 1} and type(one[()]) is int


# -- the multiset-id kernel against the pair-tuple kernel it replaced -------


@settings(max_examples=300, deadline=None)
@given(term_dicts, term_dicts, term_dicts,
       st.one_of(st.sampled_from([1, -1, 0]), coefficients))
def test_kernel_equals_the_pair_tuple_kernel(a, b, out, c):
    total, want_total = encode_terms(a), dict(a)
    add_dicts(total, encode_terms(b), c)
    oracles.add_dicts(want_total, b, c)
    product, want_product = encode_terms(out), dict(out)
    mul_dicts(encode_terms(a), encode_terms(b), product, c)
    oracles.mul_dicts(a, b, want_product, c)
    got, want = ({}, {}), ({}, {})
    chain_rule(encode_terms(a), _by_id(_route_to(got)))
    oracles.chain_rule(a, _route_to(want))
    p = Poly(encode_terms(a))
    assert decode_pairs(total) == want_total
    assert decode_pairs(product) == want_product
    assert tuple(map(decode_pairs, got)) == want
    assert {v: decode_pairs(q.terms) for v, q in p.gradient().items()} \
        == oracles.gradient(a)
    assert decode_pairs(oracles.t_integral(p).terms) == oracles.integrate_t(a)


def test_a_constant_factor_keeps_its_partners_monomials():
    b = encode_terms({((X0, 1), (A00, 2)): 3, ((XI, 1),): Q(1, 2)})
    for a in ({(): 1}, {(): -4}):
        out: dict = {}
        mul_dicts(b, a, out, Q(2, 3))
        assert out == {m: Q(2, 3) * a[()] * v for m, v in b.items()}
        assert all(m is n for m, n in zip(out, b))


# Monomials as long as the 5D ones, 4 to 6 distinct factors, with every
# indeterminate routed to every lift of the pool and to none: each lifted term
# sorts its lift before, between or after the other factors, or onto one.
LONG_POOL = POOL + [x(2), conn(1, 2), conn(0, 1, (1, 2)), bg(1, 0, (0,)),
                    gauge(1), gauge(0, (2,))]
long_monomials = st.lists(
    st.tuples(st.sampled_from(LONG_POOL), st.integers(1, 3)), min_size=4,
    max_size=6, unique_by=lambda p: p[0]).map(lambda ps: tuple(sorted(ps)))
long_term_dicts = st.dictionaries(long_monomials, coefficients, min_size=1,
                                  max_size=4)


def _every_lift(outs):
    def route(v):
        return [(outs[k % 2], (1, -1, Q(3, 2))[k % 3], lift)
                for k, lift in enumerate([None, *LONG_POOL])]
    return route


@settings(max_examples=200, deadline=None)
@given(long_term_dicts, long_term_dicts, st.sampled_from([1, -1, Q(3, 2)]))
def test_kernel_on_long_monomials_equals_the_pair_tuple_kernel(a, b, c):
    got, want = ({}, {}), ({}, {})
    chain_rule(encode_terms(a), _by_id(_every_lift(got)))
    oracles.chain_rule(a, _every_lift(want))
    product, want_product = {}, {}
    mul_dicts(encode_terms(a), encode_terms(b), product, c)
    oracles.mul_dicts(a, b, want_product, c)
    assert tuple(map(decode_pairs, got)) == want
    assert decode_pairs(product) == want_product
    for terms in (*got, product):
        assert all(list(m) == sorted(m) for m in terms)   # canonical keys
        assert_stored_form(terms)


@settings(max_examples=200, deadline=None)
@given(long_term_dicts)
def test_lifts_onto_neighbouring_ids_equal_the_pair_tuple_kernel(a):
    # every indeterminate is lifted onto each factor of a and onto the ids
    # next to those, so a lift lands on v itself, on the factor just before
    # or after it in the term, or on an id one away from a factor
    ids = {i for m in encode_terms(a) for i in m}
    lifts = sorted({j for i in ids for j in (i - 1, i, i + 1)
                    if 0 <= j < len(_INDETS)})

    def route_to(outs):
        def route(v):
            return [(outs[k % 2], (1, -1, Q(3, 2))[k % 3], _INDETS[j])
                    for k, j in enumerate(lifts)]
        return route

    got, want = ({}, {}), ({}, {})
    chain_rule(encode_terms(a), _by_id(route_to(got)))
    oracles.chain_rule(a, route_to(want))
    assert tuple(map(decode_pairs, got)) == want
    for terms in got:
        assert all(list(m) == sorted(m) for m in terms)
        assert_stored_form(terms)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 3), (2, 5), (3, 2), (3, 7), (5, 3), (5, 7)]),
       st.dictionaries(long_monomials,
                       st.sampled_from([1, -1, 7, -11, 13, 29, -31, 49]),
                       min_size=1, max_size=6),
       long_monomials)
def test_integral_fraction_products_on_new_keys_are_stored_as_ints(de, ns, mb):
    # (e n / d) * (d / e) = n: each product of two Fractions is an int, and
    # a's monomials are distinct, so each lands on a new key of out
    d, e = de
    a = {m: Fraction(e * n, d) for m, n in ns.items()}
    b = {mb: Fraction(d, e)}
    product: dict = {}
    mul_dicts(encode_terms(a), encode_terms(b), product)
    assert decode_pairs(product) == _oracle_mul_dicts(a, b)
    assert len(product) == len(a)
    assert all(type(c) is int for c in product.values())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_new_keys_alone_cross_the_term_cap(data):
    # a's monomials and b's share no indeterminate, so their products are
    # distinct and each is a new key of out
    def term_dicts_over(pool):
        keys = st.dictionaries(st.sampled_from(pool), st.integers(1, 3),
                               min_size=1, max_size=3)
        return st.dictionaries(keys.map(lambda d: tuple(sorted(d.items()))),
                               coefficients, min_size=1, max_size=4)

    a = data.draw(term_dicts_over(POOL[:4]))
    b = data.draw(term_dicts_over(POOL[4:]))
    n = len(a) * len(b)
    cap = data.draw(st.integers(0, n - 1))
    out: dict = {}
    old = set_max_terms(cap)
    try:
        with pytest.raises(TermLimitExceeded):
            mul_dicts(encode_terms(a), encode_terms(b), out)
    finally:
        set_max_terms(old)
    assert cap < len(out) <= n


@settings(max_examples=100, deadline=None)
@given(st.lists(polys(), min_size=1, max_size=4).flatmap(
    lambda fs: st.tuples(st.just(fs), st.permutations(fs))))
def test_product_does_not_depend_on_factor_order(factors):
    one, two = (functools.reduce(operator.mul, fs) for fs in factors)
    assert one.terms == two.terms
    assert str(one) == str(two)


@settings(max_examples=150, deadline=None)
@given(polys(), st.integers(1, 4))
def test_text_equals_the_decoded_pairs_oracle(p, limit):
    text = oracles.render(p)
    assert str(p) == text
    parts = text.split(" + ")
    # the stream splits by degree first: also try limits below, at and
    # just past each degree's boundary
    limits = {limit}
    held = 0
    for _, n in sorted(Counter(map(len, p.terms)).items(), reverse=True):
        held += n
        limits |= {held - 1, held, held + 1}
    for lim in sorted(limits - {0}):
        assert p.leading(lim).render() == " + ".join(parts[:lim])


@settings(max_examples=150, deadline=None)
@given(polys(), st.integers(0, 120))
def test_render_width_stops_at_the_first_term_that_reaches_it(p, width):
    # the whole terms of the full text, up to the first that takes the text
    # to width characters
    parts = str(p).split(" + ")
    n = next((i for i in range(1, len(parts) + 1)
              if len(" + ".join(parts[:i])) >= width), len(parts))
    assert p.render(width=width) == " + ".join(parts[:n])
    for lim in range(1, len(parts) + 1):
        assert (p.leading(lim).render(width)
                == " + ".join(parts[:min(n, lim)]))


@settings(max_examples=150, deadline=None)
@given(st.lists(polys(), min_size=1, max_size=4), st.integers(1, 6))
def test_leading_terms_rank_as_render_does(parts, limit):
    # one ranking: the leading terms print as the head of the full text,
    # and the leading terms of a sum of parts that share no monomial lie
    # among the leading terms of the parts
    disjoint = []
    seen: set = set()
    for p in parts:
        head = " + ".join(str(p).split(" + ")[:limit])
        assert p.leading(limit).render() == head
        assert p.leading(limit).terms.items() <= p.terms.items()
        q = Poly({m: c for m, c in p.terms.items() if m not in seen})
        seen |= q.terms.keys()
        disjoint.append(q)
    whole = sum(disjoint, Poly.zero())
    kept = sum((q.leading(limit) for q in disjoint), Poly.zero())
    assert kept.leading(limit) == whole.leading(limit)


def test_text_order_does_not_depend_on_intern_order():
    # x[1002] is interned first, so ids sort opposite to the indeterminates
    x2, x1, x0 = (Poly.var(x(1000 + i)) for i in (2, 1, 0))
    ((i2,),), ((i0,),) = x2.terms, x0.terms
    assert i2 < i0
    p = x2 ** 2 + x0 * x1 + x2
    assert str(p) == "1/1*x[1000]*x[1001] + 1/1*x[1002]^2 + 1/1*x[1002]"


# x[2005], ..., x[2000] are interned in that order, so their ids run
# opposite to the natural order of the indeterminates
REVERSED = [x(2000 + i) for i in range(5, -1, -1)]
for v in REVERSED:
    Poly.var(v)
# 12 to 60 terms of degree 0 to 6 over 8 indeterminates, so exponents up
# to 6 and the constant monomial: a poly spans many groups of the stream,
# and many monomials share their degree and their least indeterminate
long_polys = st.lists(
    st.tuples(st.lists(st.sampled_from(POOL[:4] + REVERSED[:4]), max_size=6),
              coefficients), min_size=12, max_size=60).map(
    lambda t: Poly(encode_terms({tuple(Counter(vs).items()): c for vs, c in t})))


def _group_ends(p: Poly) -> list:
    """The term counts at the ends of the groups of serialization order:
    the monomials of one degree and one least indeterminate."""
    starts = Counter((-len(m), oracles.decode_monomial(m)[0][0] if m else ())
                     for m in p.terms)
    ends, held = [], 0
    for _, n in sorted(starts.items()):
        held += n
        ends.append(held)
    return ends


@settings(max_examples=100, deadline=None)
@given(long_polys, st.sampled_from([1, 2, 6]))
def test_lazy_ranking_equals_the_eager_oracle(p, den):
    assert [_intern(v) for v in REVERSED] == sorted(map(_intern, REVERSED))
    parts = oracles.render(p).split(" + ")
    assert str(p) == " + ".join(parts)
    assert p.render(den=den) == oracles.render_ranked(p, den=den)
    # size[i]: the length of the text of the first i terms
    size = [-3]
    for part in parts:
        size.append(size[-1] + len(part) + 3)
    ends = _group_ends(p)
    # limits at, just below and just past each group boundary
    for lim in sorted({n + d for n in ends for d in (-1, 0, 1)} - {0}):
        lead = p.leading(lim)
        assert lead == oracles.leading(p, lim)
        assert lead.render() == " + ".join(parts[:lim])
    # widths at, just below and just past the text of each group boundary
    for w in {size[n] + d for n in ends for d in (-1, 0, 1)}:
        n = min(max(bisect_left(size, w), 1), len(parts))
        assert p.render(w) == " + ".join(parts[:n])
        assert p.render(w, den) == oracles.render_ranked(p, w, den)
