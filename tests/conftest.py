import random

import pytest

from jetvar.polynomial import DEFAULT_MAX_TERMS, set_max_terms


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def term_cap():
    """set_max_terms for one test: the kernel's cap is restored afterwards."""
    old = set_max_terms(DEFAULT_MAX_TERMS)
    yield set_max_terms
    set_max_terms(old)
