"""The seeded random inputs of the property tests and the self-test: the
term-dict generator draws the instances of the Poly-arithmetic oracle."""

import random

import pytest

from jetvar import random_inputs
from jetvar.jets import JetContext
from jetvar.random_inputs import (_pool, random_density, random_poly,
                                  random_vertical_field)
import oracles


def _typed(p):
    """The terms of p with the type of each coefficient, so that an int
    and an equal Fraction differ."""
    return {m: (c, type(c)) for m, c in p.terms.items()}


@pytest.mark.parametrize("matter_dim", [0, 1])
@pytest.mark.parametrize("n", range(1, 6))
def test_random_poly_draws_the_oracle_stream(n, matter_dim):
    ctx = JetContext(n, 2, matter_dim)
    for top_order in (0, 1):
        pool = _pool(ctx, top_order)
        for max_monomials, max_exp in [(1, 1), (2, 2), (3, 2), (4, 3), (8, 4)]:
            for seed in range(10):
                got, want = random.Random(seed), random.Random(seed)
                for _ in range(5):
                    p = random_poly(pool, got, max_monomials, max_exp)
                    q = oracles.random_poly(pool, want, max_monomials, max_exp)
                    assert _typed(p) == _typed(q)
                assert got.getstate() == want.getstate()


@pytest.mark.parametrize("matter_dim", [0, 1])
@pytest.mark.parametrize("seed", range(4))
def test_selftest_instances_are_the_oracle_stream(monkeypatch, seed,
                                                  matter_dim):
    # the self-test draws a density and then a field, cycling through n
    def stream():
        rng = random.Random(seed)
        out = []
        for _ in range(3):
            for n in range(1, 6):
                ctx = JetContext(n, 2, matter_dim)
                density = random_density(ctx, rng)
                field = random_vertical_field(ctx, rng)
                out.append((_typed(density),
                            {c: _typed(p) for c, p in field.items()}))
        return out, rng.getstate()

    got = stream()
    monkeypatch.setattr(random_inputs, "random_poly", oracles.random_poly)
    assert stream() == got


@pytest.mark.parametrize("width", [1, 2, 3, 4, 7, 8, 13, 64, 1000])
def test_below_draws_what_randrange_draws(width):
    for seed in range(50):
        got, want = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert random_inputs._below(got, width) == want.randrange(width)
        assert got.getstate() == want.getstate()
