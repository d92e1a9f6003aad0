"""Seeded random polynomials, Lagrangians and vertical fields for property
tests and the first-variational self-test.

A random polynomial is built as one term dict over the interned ids of its
pool's indeterminates.  It makes the random draws of building the same
polynomial by Poly arithmetic one factor and one term at a time, in the
same order, so a seed gives the same instances either way.  Each draw of
randint or choice is made by _below, which draws exactly what they draw."""

from __future__ import annotations

import random
from fractions import Fraction

from .indets import x
from .jets import JetContext
from .polynomial import Poly, _intern, add_dicts

__all__ = ["random_poly", "random_density", "random_vertical_field"]


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n) for an int n >= 1, drawn as CPython's Random draws
    it: n.bit_length() random bits, drawn again while they reach n.  So
    randint(a, b) is a + _below(rng, b - a + 1) and choice(seq) is
    seq[_below(rng, len(seq))], draw for draw and state for state, at a
    fraction of their call cost."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def random_coeff(rng: random.Random) -> int | Fraction:
    """A nonzero num/den, |num| <= 6 and 1 <= den <= 4, in stored form."""
    num = _below(rng, 13) - 6   # randint(-6, 6)
    if num == 0:
        num = 1
    den = 1 + _below(rng, 4)    # randint(1, 4)
    return Fraction(num, den) if num % den else num // den


def random_poly(pool, rng: random.Random, max_monomials: int = 3,
                max_exp: int = 2) -> Poly:
    """The sum of 1..max_monomials terms, each a random coefficient times
    0..2 factors v^e, v drawn from the sequence pool and 1 <= e <=
    max_exp."""
    terms: dict = {}
    for _ in range(1 + _below(rng, max_monomials)):
        c = random_coeff(rng)
        m = []
        for _ in range(_below(rng, 3)):
            i = _intern(pool[_below(rng, len(pool))])
            m += [i] * (1 + _below(rng, max_exp))
        m.sort()
        add_dicts(terms, {(*m,): c})
    return Poly(terms)


def _pool(ctx: JetContext, top_order: int) -> tuple:
    """x^lam and the field jets of order <= top_order, sorted; built once
    per process, context and order."""
    def build(top_order):
        return tuple(sorted(
            [x(lam) for lam in range(ctx.n)]
            + [c for k in range(top_order + 1) for c in ctx.field_coords(k)]))

    return ctx._images("random pool", build)(top_order)


def random_density(ctx: JetContext, rng: random.Random) -> Poly:
    """A first-order polynomial Lagrangian density."""
    return random_poly(_pool(ctx, 1), rng, max_monomials=4)


def random_vertical_field(ctx: JetContext, rng: random.Random) -> dict:
    """Components u^i(x, fields) on the order-0 field coordinates."""
    pool = _pool(ctx, 0)
    out = {}
    for i in ctx.field_coords(0):
        if rng.random() < 0.25:
            continue
        out[i] = random_poly(pool, rng, max_monomials=2)
    return out
