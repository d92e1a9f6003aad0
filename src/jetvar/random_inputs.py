"""Seeded random polynomials, Lagrangians and vertical fields for property
tests and the first-variational self-test."""

from __future__ import annotations

import random
from fractions import Fraction

from .indets import x
from .jets import JetContext
from .polynomial import Poly

__all__ = ["random_poly", "random_density", "random_vertical_field"]


def random_coeff(rng: random.Random) -> Fraction:
    num = rng.randint(-6, 6)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 4))


def random_poly(pool: list, rng: random.Random, max_monomials: int = 3,
                max_exp: int = 2) -> Poly:
    out = Poly.zero()
    for _ in range(rng.randint(1, max_monomials)):
        term = Poly.const(random_coeff(rng))
        for _ in range(rng.randint(0, 2)):
            v = rng.choice(pool)
            term = term * Poly.var(v, rng.randint(1, max_exp))
        out = out + term
    return out


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
