"""Indexed indeterminates.

An indeterminate is a plain tuple of small ints whose natural tuple order
IS the canonical total order used everywhere (monomial sorting, coordinate
ordering, serialization).  The first entry is a kind rank:

    0  x[lam]              base coordinate x^lam
    1  a[r;mu;D]           connection jet coordinate a^r_{D;mu}
    2  z[A;D]              matter jet coordinate z^A_D
    3  B[r;mu;D]           background function symbol B^r_{D;mu}
    4  xi[r;D]             gauge parameter function symbol xi^r_D
    5  t                   auxiliary scalar (transgression parameter)

The derivative multi-index D is kept sorted ascending; this sort is the
normalization that encodes jet-coordinate symmetry (a^r_{lm;mu} = a^r_{ml;mu}).
Inside the tuple D is stored as (len(D), *D) so that shorter multi-indices
sort first within a fixed kind and fiber index.
"""

from __future__ import annotations

X, CONN, MATTER, BG, GAUGE, AUX = range(6)

T = (AUX,)


def x(lam: int) -> tuple:
    return (X, lam)


def conn(r: int, mu: int, D: tuple = ()) -> tuple:
    D = tuple(sorted(D))
    return (CONN, r, mu, len(D)) + D


def matter(A: int, D: tuple = ()) -> tuple:
    D = tuple(sorted(D))
    return (MATTER, A, len(D)) + D


def bg(r: int, mu: int, D: tuple = ()) -> tuple:
    D = tuple(sorted(D))
    return (BG, r, mu, len(D)) + D


def gauge(r: int, D: tuple = ()) -> tuple:
    D = tuple(sorted(D))
    return (GAUGE, r, len(D)) + D


def multi_index(v: tuple) -> tuple:
    """Derivative multi-index of a jet coordinate or function symbol."""
    k = v[0]
    if k in (CONN, BG):
        return v[4:]
    if k in (MATTER, GAUGE):
        return v[3:]
    raise ValueError(f"{indet_str(v)} carries no multi-index")


def with_extra_deriv(v: tuple, lam: int) -> tuple:
    """Same symbol with one more derivative in direction lam (D kept sorted)."""
    k = v[0]
    if k == CONN:
        return conn(v[1], v[2], multi_index(v) + (lam,))
    if k == BG:
        return bg(v[1], v[2], multi_index(v) + (lam,))
    if k == MATTER:
        return matter(v[1], multi_index(v) + (lam,))
    if k == GAUGE:
        return gauge(v[1], multi_index(v) + (lam,))
    raise ValueError(f"cannot differentiate {indet_str(v)}")


def is_field_jet(v: tuple) -> bool:
    """True for coordinates of the jet fiber (connection or matter jets)."""
    return v[0] in (CONN, MATTER)


def _dstr(D: tuple) -> str:
    return "(" + ",".join(str(d) for d in D) + ")"


def indet_str(v: tuple) -> str:
    k = v[0]
    if k == X:
        return f"x[{v[1]}]"
    if k == CONN:
        return f"a[r={v[1]};mu={v[2]};D={_dstr(v[4:])}]"
    if k == MATTER:
        return f"z[A={v[1]};D={_dstr(v[3:])}]"
    if k == BG:
        return f"B[r={v[1]};mu={v[2]};D={_dstr(v[4:])}]"
    if k == GAUGE:
        return f"xi[r={v[1]};D={_dstr(v[3:])}]"
    if k == AUX:
        return "t"
    raise ValueError(f"unknown indeterminate {v!r}")
