"""Test-only oracles on Poly, written as free functions over its term dicts.

They use only Poly's public ring operations, so they check the library's
calculus (gradient, chain rule, total derivatives) from outside.
"""

from fractions import Fraction

from jetvar.polynomial import Poly


def partial(p: Poly, v: tuple) -> Poly:
    """Formal partial derivative d/dv; every other indeterminate is a constant."""
    out = Poly.zero()
    for m, c in p.terms.items():
        for i, (w, e) in enumerate(m):
            if w == v:
                term = Poly.const(c * e)
                for u, k in m[:i] + ((w, e - 1),) + m[i + 1:]:
                    term = term * Poly.var(u, k)
                out = out + term
    return out


def evaluate(p: Poly, point: dict) -> Fraction:
    """Exact value at a rational point: point maps each indeterminate to a
    rational."""
    total = Fraction(0)
    for m, c in p.terms.items():
        val = c
        for v, e in m:
            val *= point[v] ** e
        total += val
    return total
