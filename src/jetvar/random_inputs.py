"""Seeded random polynomials, Lagrangians and vertical fields for property
tests and the first-variational self-test.

A random polynomial is built as one term dict over the interned ids of its
pool's indeterminates.  It makes the random draws of building the same
polynomial by Poly arithmetic one factor and one term at a time, in the
same order, so a seed gives the same instances either way."""

from __future__ import annotations

import random
from fractions import Fraction

from .indets import x
from .jets import JetContext
from .polynomial import Poly, _intern, add_dicts

__all__ = ["random_poly", "random_density", "random_vertical_field"]


def random_coeff(rng: random.Random) -> int | Fraction:
    """A nonzero num/den, |num| <= 6 and 1 <= den <= 4, in stored form."""
    num = rng.randint(-6, 6)
    if num == 0:
        num = 1
    den = rng.randint(1, 4)
    return Fraction(num, den) if num % den else num // den


def random_poly(pool: list, rng: random.Random, max_monomials: int = 3,
                max_exp: int = 2) -> Poly:
    """The sum of 1..max_monomials terms, each a random coefficient times
    0..2 factors v^e, v drawn from pool and 1 <= e <= max_exp."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_monomials)):
        c = random_coeff(rng)
        m = []
        for _ in range(rng.randint(0, 2)):
            i = _intern(rng.choice(pool))
            m += [i] * rng.randint(1, max_exp)
        m.sort()
        add_dicts(terms, {(*m,): c})
    return Poly(terms)


def _pool(ctx: JetContext, top_order: int) -> list:
    """x^lam and the field jets of order <= top_order, sorted."""
    return sorted([x(lam) for lam in range(ctx.n)]
                  + [c for k in range(top_order + 1) for c in ctx.field_coords(k)])


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
