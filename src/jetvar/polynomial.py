"""Exact-rational multivariate polynomials over indexed indeterminates.

A polynomial is a dict from monomials to nonzero exact rational
coefficients.  A coefficient is stored as an int when it is integral and as
a Fraction only when its denominator exceeds 1; no float is ever stored.
Each operation puts a coefficient in that form where it forms it (_exact(),
so (1/2)*2 is stored as the int 1).  Equal int and Fraction values compare
and hash equal.  A monomial is a tuple of (indeterminate, exponent) pairs
sorted by the indeterminate's natural tuple order (see indets.py).
Canonical form is therefore unique by construction: equal expressions have
equal dicts.

Serialization order is graded-lex: decreasing total degree, ties broken by
tuple comparison of the monomials themselves.  The exact text format is
frozen by golden tests.

The term-expansion kernel (mono_mul, add_dicts, mul_dicts, chain_rule) works
on those raw dicts directly; zero coefficients are never stored.  A sum or
product of two ints is an int, so only a value that came out as a Fraction
goes through _exact().

The kernel sums in place: add_dicts, mul_dicts and chain_rule add their
result into a term dict the caller owns and passes in, so a long sum is built
in one dict rather than copied on each step; the dict added into must not be
one of the inputs.  Only these three functions read the term cap
(max_terms()), and each raises TermLimitExceeded when a dict it added into
holds more terms than the cap.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from fractions import Fraction

from .errors import ConfigError, TermLimitExceeded
from .indets import T, indet_str

__all__ = ["Poly", "Q", "max_terms"]

Q = Fraction


def max_terms() -> int:
    """Current monomial-count cap (env JETVAR_MAX_TERMS, default 10^7)."""
    raw = os.environ.get("JETVAR_MAX_TERMS", "10000000")
    try:
        cap = int(raw)
        if cap >= 1:
            return cap
    except ValueError:
        pass
    raise ConfigError(f"JETVAR_MAX_TERMS must be a positive integer, got {raw!r}")


def mono_mul(ma: tuple, mb: tuple) -> tuple:
    """Merge two sorted monomials, adding exponents."""
    if not ma:
        return mb
    if not mb:
        return ma
    out = []
    i = j = 0
    na, nb = len(ma), len(mb)
    while i < na and j < nb:
        va, ea = ma[i]
        vb, eb = mb[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(ma[i])
            i += 1
        else:
            out.append(mb[j])
            j += 1
    out.extend(ma[i:])
    out.extend(mb[j:])
    return tuple(out)


def add_dicts(a: dict, b: dict, c=1) -> None:
    """Add c * b into the term dict a."""
    if type(c) is not int:
        c = _exact(c)
    if c != 1:
        b = {m: _exact(v * c) for m, v in b.items()} if c else {}
    get = a.get
    for m, v in b.items():
        s = get(m)
        if s is None:
            a[m] = v
        else:
            s = s + v
            if type(s) is not int:
                s = _exact(s)
            if s:
                a[m] = s
            else:
                del a[m]
    cap = max_terms()
    if len(a) > cap:
        raise TermLimitExceeded(f"{len(a)} terms exceeds cap {cap}")


def mul_dicts(a: dict, b: dict, out: dict, c=1) -> None:
    """Add c * a * b into the term dict out."""
    cap = max_terms()
    if len(a) > len(b):
        a, b = b, a
    if type(c) is not int:
        c = _exact(c)
    if c != 1:
        a = {m: _exact(v * c) for m, v in a.items()} if c else {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            s = get(m)
            s = ca * cb if s is None else s + ca * cb
            if type(s) is not int:
                s = _exact(s)
            if s:
                out[m] = s
            else:
                del out[m]
        if len(out) > cap:
            raise TermLimitExceeded(f"{len(out)} terms exceeds cap {cap}")


def chain_rule(terms: dict, route) -> None:
    """Add the chain rule of one term dict into caller-owned term dicts.

    route(v) lists the (out, sign, lift) triples that the partial df/dv
    feeds; it is called once per indeterminate v of the terms.  Each triple
    adds sign * df/dv into the term dict out, times the indeterminate of the
    pair lift = (w, 1) unless lift is None.  Callers build each lift pair
    once and share it, so the output monomials hold one pair object per w.
    Partials with no route are never formed.
    """
    routes: dict = {}
    for m, c in terms.items():
        for i, (v, e) in enumerate(m):
            r = routes.get(v)
            if r is None:
                r = routes[v] = route(v)
            if not r:
                continue
            rest = m[:i] + m[i + 1:] if e == 1 else m[:i] + ((v, e - 1),) + m[i + 1:]
            ce = c if e == 1 else _exact(c * e)
            for out, sign, lift in r:
                if lift is None:
                    nm = rest
                else:
                    j = bisect_left(rest, lift)
                    if j < len(rest) and rest[j][0] == lift[0]:
                        nm = rest[:j] + ((lift[0], rest[j][1] + 1),) + rest[j + 1:]
                    else:
                        nm = rest[:j] + (lift,) + rest[j:]
                val = ce if sign > 0 else -ce
                s = out.get(nm)
                if s is None:
                    out[nm] = val
                else:
                    s = s + val
                    if type(s) is not int:
                        s = _exact(s)
                    if s:
                        out[nm] = s
                    else:
                        del out[nm]
    cap = max_terms()
    for r in routes.values():
        for out, _, _ in r:
            if len(out) > cap:
                raise TermLimitExceeded(f"{len(out)} terms exceeds cap {cap}")


def _exact(c):
    """A Fraction or int value in stored form: the int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _as_q(c):
    """An input coefficient in stored form; raises TypeError for anything but
    an int or a Fraction, floats included."""
    if isinstance(c, (int, Fraction)):
        return _exact(c)
    raise TypeError(f"exact kernel: rational coefficient expected, got {type(c)!r}")


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        # Caller guarantees canonical form; use the constructors below otherwise.
        self.terms = terms or {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls({})

    @classmethod
    def const(cls, c) -> "Poly":
        c = _as_q(c)
        return cls({(): c} if c else {})

    @classmethod
    def var(cls, v: tuple, exp: int = 1, coeff: int | Fraction = 1) -> "Poly":
        c = _as_q(coeff)
        if not c:
            return cls({})
        if exp == 0:
            return cls({(): c})
        return cls({((v, exp),): c})

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Poly":
        out = dict(self.terms)
        add_dicts(out, _coerce(other).terms)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        out = dict(self.terms)
        add_dicts(out, _coerce(other).terms, -1)
        return Poly(out)

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) - self

    def __mul__(self, other) -> "Poly":
        out: dict = {}
        mul_dicts(self.terms, _coerce(other).terms, out)
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus ------------------------------------------------------

    def gradient(self) -> dict:
        """Every partial derivative in one walk over the monomials: v -> d/dv.

        Keys are exactly self.indets().  Dividing distinct monomials by the
        same v keeps them distinct, so no partial sums terms or is zero.
        """
        grads: dict = {}
        for m, c in self.terms.items():
            for i, (v, e) in enumerate(m):
                rest = m[:i] + m[i + 1:] if e == 1 else m[:i] + ((v, e - 1),) + m[i + 1:]
                terms = grads.get(v)
                if terms is None:
                    terms = grads[v] = {}
                terms[rest] = c if e == 1 else _exact(c * e)
        return {v: Poly(terms) for v, terms in grads.items()}

    def integrate_t(self) -> "Poly":
        """Exact definite integral over t in [0,1]; the result is t-free."""
        out: dict = {}
        for m, c in self.terms.items():
            e = 0
            nm = m
            for i, (w, k) in enumerate(m):
                if w == T:
                    e = k
                    nm = m[:i] + m[i + 1:]
                    break
            nc = out.get(nm, 0) + (Fraction(c, e + 1) if e else c)
            if type(nc) is not int:
                nc = _exact(nc)
            if nc:
                out[nm] = nc
            elif nm in out:
                del out[nm]
        return Poly(out)

    # -- queries -------------------------------------------------------

    def indets(self) -> set:
        vs: set = set()
        for m in self.terms:
            for v, _ in m:
                vs.add(v)
        return vs

    def term_count(self) -> int:
        return len(self.terms)

    # -- serialization ---------------------------------------------------

    def render(self, limit: int | None = None) -> str:
        """The text of the first limit terms in serialization order, or of
        every term when limit is None; str(p) is p.render()."""
        if not self.terms:
            return "0"
        def key(m):
            return (-sum(e for _, e in m), m)
        parts = []
        for m in sorted(self.terms, key=key)[:limit]:
            c = self.terms[m]
            frag = [f"{c.numerator}/{c.denominator}"]
            for v, e in m:
                frag.append(indet_str(v) if e == 1 else f"{indet_str(v)}^{e}")
            parts.append("*".join(frag))
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Poly({self})"


def _coerce(other) -> Poly:
    if isinstance(other, Poly):
        return other
    if isinstance(other, (int, Fraction)):
        return Poly.const(other)
    raise TypeError(f"cannot combine Poly with {type(other)!r}")
