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


# kind -> the position of len(D) in its indeterminates, which follows the
# kind and its fiber indices; kinds without a multi-index are absent
_LEN_AT = {CONN: 3, MATTER: 2, BG: 3, GAUGE: 2}


def _jet(head: tuple, D: tuple) -> tuple:
    D = tuple(sorted(D))
    return (*head, len(D), *D)


def conn(r: int, mu: int, D: tuple = ()) -> tuple:
    return _jet((CONN, r, mu), D)


def matter(A: int, D: tuple = ()) -> tuple:
    return _jet((MATTER, A), D)


def bg(r: int, mu: int, D: tuple = ()) -> tuple:
    return _jet((BG, r, mu), D)


def gauge(r: int, D: tuple = ()) -> tuple:
    return _jet((GAUGE, r), D)


def multi_index(v: tuple) -> tuple:
    """Derivative multi-index of a jet coordinate or function symbol."""
    at = _LEN_AT.get(v[0])
    if at is None:
        raise ValueError(f"{indet_str(v)} carries no multi-index")
    return v[at + 1:]


def with_extra_deriv(v: tuple, lam: int) -> tuple:
    """Same symbol with one more derivative in direction lam (D kept sorted)."""
    at = _LEN_AT.get(v[0])
    if at is None:
        raise ValueError(f"cannot differentiate {indet_str(v)}")
    return _jet(v[:at], v[at + 1:] + (lam,))


def order_zero(v: tuple) -> tuple:
    """The order-0 coordinate or symbol of the jet v, for any D."""
    return v[:_LEN_AT[v[0]]] + (0,)


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
        return f"a[r={v[1]};mu={v[2]};D={_dstr(multi_index(v))}]"
    if k == MATTER:
        return f"z[A={v[1]};D={_dstr(multi_index(v))}]"
    if k == BG:
        return f"B[r={v[1]};mu={v[2]};D={_dstr(multi_index(v))}]"
    if k == GAUGE:
        return f"xi[r={v[1]};D={_dstr(multi_index(v))}]"
    if k == AUX:
        return "t"
    raise ValueError(f"unknown indeterminate {v!r}")
