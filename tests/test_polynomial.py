"""Ring axioms, calculus rules, and the frozen text format of Poly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvar.errors import CyclicSubstitution, TermLimitExceeded
from jetvar.indets import T, bg, conn, gauge, x
from jetvar.polynomial import Poly, Q

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
        assert (a * b).partial(v) == a.partial(v) * b + a * b.partial(v)
        assert (a + b).partial(v) == a.partial(v) + b.partial(v)


@settings(max_examples=80, deadline=None)
@given(polys())
def test_partials_commute(a):
    assert a.partial(A00).partial(X1) == a.partial(X1).partial(A00)


@settings(max_examples=150, deadline=None)
@given(polys())
def test_gradient_equals_every_partial(a):
    assert a.gradient() == {v: a.partial(v) for v in a.indets()}


def test_partial_examples():
    p = Poly.var(A00, 2) * Poly.var(X0) + Poly.var(X0, 3)
    assert p.partial(A00) == 2 * Poly.var(A00) * Poly.var(X0)
    assert p.partial(X0) == Poly.var(A00, 2) + 3 * Poly.var(X0, 2)
    assert p.partial(A01) == Poly.zero()


def test_pow_matches_repeated_multiplication():
    p = Poly.var(A00) + Poly.var(X0) - Poly.const(Q(1, 2))
    q = Poly.const(1)
    for e in range(6):
        assert p ** e == q
        q = q * p


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_integrate_t_is_linear(a, b):
    assert (a + b).integrate_t() == a.integrate_t() + b.integrate_t()


def test_integrate_t_fundamental_theorem():
    # integral of t^e over [0,1] is 1/(e+1); t-free factors pass through
    t = Poly.var(T)
    p = Poly.var(A00) * t ** 3 + Poly.var(X0)
    assert p.integrate_t() == Q(1, 4) * Poly.var(A00) + Poly.var(X0)
    assert T not in p.integrate_t().indets()


def test_substitute_allows_self_mention():
    # one-shot replacement a -> t*a
    a, t = Poly.var(A00), Poly.var(T)
    p = a ** 2 + a
    out = p.substitute({A00: t * a})
    assert out == (t * a) ** 2 + t * a


def test_substitute_rejects_cross_mention_of_bound_indets():
    with pytest.raises(CyclicSubstitution):
        Poly.var(A00).substitute({A00: Poly.var(A01), A01: Poly.var(A00)})


def test_substitute_is_simultaneous():
    p = Poly.var(A00) * Poly.var(X0)
    out = p.substitute({A00: Poly.var(X1), X0: Poly.var(B00)})
    assert out == Poly.var(X1) * Poly.var(B00)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_evaluate_is_a_ring_homomorphism(a, b):
    point = {v: Fraction(i - 3, 2) for i, v in enumerate(POOL)}
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


def test_term_cap_stops_products_and_sums(monkeypatch):
    a = Poly.var(A00) + Poly.var(A01) + Poly.var(X0)
    b = Poly.var(X1) + Poly.var(B00) + Poly.var(XI)
    monkeypatch.setenv("JETVAR_MAX_TERMS", "5")
    with pytest.raises(TermLimitExceeded):
        a * b    # 9 terms
    with pytest.raises(TermLimitExceeded):
        a + b    # 6 terms
    assert (a + Poly.var(A00)).term_count() == 3   # within the cap


def test_text_format_is_frozen():
    p = Poly.var(A00, 2, coeff=Q(3, 4)) - Poly.var(conn(1, 2, (0, 1))) \
        + Poly.const(Q(-1, 2)) + Poly.var(X1) * Poly.var(XI)
    assert str(p) == ("1/1*x[1]*xi[r=0;D=()] + 3/4*a[r=0;mu=0;D=()]^2 "
                      "+ -1/1*a[r=1;mu=2;D=(0,1)] + -1/2")
    assert str(Poly.zero()) == "0"
