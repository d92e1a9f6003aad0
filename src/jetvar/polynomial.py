"""Exact-rational multivariate polynomials over indexed indeterminates.

A polynomial is a dict from monomials to nonzero exact rational
coefficients.  A coefficient is stored as an int when it is integral and as
a Fraction only when its denominator exceeds 1; no float is ever stored.
Each operation puts a coefficient in that form where it forms it (_exact(),
so (1/2)*2 is stored as the int 1).  Equal int and Fraction values compare
and hash equal.

A monomial is the sorted tuple of the small int ids of its factors, each id
repeated once per power: x^2 y is (i, i, j) for the ids i of x and j of y.
Ids come from one process-wide intern table; an indeterminate gets the next
id on first use and keeps it for the life of the process, and t is interned
first, so id 0 is t.  Canonical form is therefore unique by construction:
equal expressions have equal dicts.  Id order is intern order, not the
natural tuple order of indets.py.

Serialization order is graded-lex: decreasing total degree, ties broken by
tuple comparison of the (indeterminate, exponent) pairs of the monomials.
It does not depend on intern order; the exact text format is frozen by
golden tests.  A sort key ranks the ids in indeterminate order and codes a
factor as one int, rank * k + exponent; ranks are multiples of k and every
exponent is below k, so a key starts with the degree and the rank of the
least indeterminate, and that start orders the groups of monomials that
share it.  A group is keyed and sorted only when a reader reaches it
(_ranked): leading(limit) and render(width) key only the groups they print,
and a full render keys every group in turn.

The term-expansion kernel (add_dicts, mul_dicts, chain_rule) works on those
raw dicts directly; zero coefficients are never stored.  A product of
monomials is one sort of their concatenation, so no exponent is ever added
field by field.  A lifted chain-rule term is the monomial with one copy of v
replaced by its lift and sorted once: the e - 1 copies of v that stay next
to the lift make it e * v^(e-1) * lift.  chain_rule's routes speak ids as
well: a route is asked for the id of v and names each lift by its id, so
building one decodes and interns no indeterminate.  A sum or product of two
ints is an int, so only a value that came out as a Fraction goes through
_exact(), and a product of two nonzero coefficients that starts a new term
needs no zero test.
Nothing in the kernel divides: a caller that wants int arithmetic throughout
scales its inputs by a common denominator N, and divides by N only the
coefficients it prints (Poly.render's den).

The kernel sums in place: add_dicts, mul_dicts and chain_rule add their
result into a term dict the caller owns and passes in, so a long sum is built
in one dict rather than copied on each step; the dict added into must not be
one of the inputs.  Only these three functions read the term cap, and each
raises TermLimitExceeded when a dict it added into holds more terms than the
cap.  The cap is one module-level int that set_max_terms() alone writes;
max_terms() parses the environment's cap (JETVAR_MAX_TERMS), once per run.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import islice
from math import lcm

from .errors import ConfigError, TermLimitExceeded
from .indets import T, indet_str

__all__ = ["Poly", "Q", "max_terms", "set_max_terms"]

Q = Fraction

_IDS: dict = {}      # indeterminate -> id
_INDETS: list = []   # id -> indeterminate
_NAMES: dict = {}    # id -> indet_str of its indeterminate, once rendered


def _intern(v: tuple) -> int:
    """The id of indeterminate v, assigned on its first use."""
    i = _IDS.get(v)
    if i is None:
        i = _IDS[v] = len(_INDETS)
        _INDETS.append(v)
    return i


def _interned(v: tuple) -> tuple:
    """The tuple that the intern table keeps for v, interning v if it is
    new: a table built from it then holds no duplicate of that tuple."""
    return _INDETS[_intern(v)]


_T = _intern(T)   # 0: the run of t ids leads every monomial that has one


DEFAULT_MAX_TERMS = 10_000_000
_cap = DEFAULT_MAX_TERMS   # the kernel's term cap; set_max_terms() writes it


def max_terms() -> int:
    """The monomial-count cap the environment asks for: JETVAR_MAX_TERMS,
    default 10^7.  Raises ConfigError unless it is a positive integer."""
    raw = os.environ.get("JETVAR_MAX_TERMS", str(DEFAULT_MAX_TERMS))
    try:
        cap = int(raw)
        if cap >= 1:
            return cap
    except ValueError:
        pass
    raise ConfigError(f"JETVAR_MAX_TERMS must be a positive integer, got {raw!r}")


def set_max_terms(cap: int) -> int:
    """Make cap the kernel's term cap; returns the cap it replaces."""
    global _cap
    old, _cap = _cap, cap
    return old


def add_dicts(a: dict, b: dict, c=1) -> None:
    """Add c * b into the term dict a."""
    if type(c) is not int:
        c = _exact(c)
    if c != 1:
        b = _scaled(b, c)
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
    if len(a) > _cap:
        raise TermLimitExceeded(f"{len(a)} terms exceeds cap {_cap}")


def mul_dicts(a: dict, b: dict, out: dict, c=1) -> None:
    """Add c * a * b into the term dict out.  A constant factor a = {(): v}
    adds c * v * b, so out keeps b's monomials and sorts none."""
    cap = _cap
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1 and () in a:
        return add_dicts(out, b, c * a[()])
    if type(c) is not int:
        c = _exact(c)
    if c != 1:
        a = _scaled(a, c)
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = [*ma, *mb]
            m.sort()
            m = tuple(m)
            val = ca * cb
            s = get(m)
            if s is None:
                # a product of two nonzero coefficients is nonzero
                out[m] = val if type(val) is int else _exact(val)
            else:
                s += val
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

    route(i) lists the (out, w, lift) triples that the partial df/dv feeds,
    for the indeterminate v of id i; it is called once per id of the terms,
    and lift is an id or None.  Each triple adds w * df/dv into the term dict
    out for the rational weight w, times the indeterminate of id lift unless
    lift is None.  Partials with no route are never formed.  A term with a
    lift is m with its first copy of i replaced by the lift, sorted once; a
    term without one drops that copy, and is built once per monomial and i.
    """
    routes: dict = {}
    for m, c in terms.items():
        prev = None
        for i, v in enumerate(m):
            if v == prev:
                continue
            prev = v
            r = routes.get(v)
            if r is None:
                r = routes[v] = route(v)
            if not r:
                continue
            e = m.count(v)
            ce = c if e == 1 else _exact(c * e)
            rest = None
            for out, w, lift in r:
                if lift is None:
                    if rest is None:
                        rest = m[:i] + m[i + 1:]
                    nm = rest
                else:
                    nm = [*m]
                    nm[i] = lift
                    nm.sort()
                    nm = tuple(nm)
                if w == 1:
                    val = ce
                elif w == -1:
                    val = -ce
                else:
                    val = _exact(ce * w)
                s = out.get(nm)
                if s is None:
                    out[nm] = val
                else:
                    s += val
                    if type(s) is not int:
                        s = _exact(s)
                    if s:
                        out[nm] = s
                    else:
                        del out[nm]
    for r in routes.values():
        for out, _, _ in r:
            if len(out) > _cap:
                raise TermLimitExceeded(f"{len(out)} terms exceeds cap {_cap}")


def _scaled(terms: dict, c) -> dict:
    """The term dict c * terms for a stored-form c other than 1; negation
    needs no gcd, so c = -1 is a plain sign flip."""
    if c == -1:
        return {m: -v for m, v in terms.items()}
    return {m: _exact(v * c) for m, v in terms.items()} if c else {}


def _held(terms: dict, shared: dict) -> dict:
    """A copy of the term dict terms for a Poly that outlives its call.

    The copy is sized to its terms: a dict that a sum grew keeps the table
    of its largest size after terms cancel.  Equal coefficients are stored
    as one object, the first one stored for the value in the table shared:
    CPython shares only the ints -5..256, and a Poly held N times its value
    has many coefficients above 256 that take few distinct values.  The
    caller passes one table for all the Polys of one held object."""
    get = shared.setdefault
    return {m: get(c, c) for m, c in terms.items()}


def integral_multiple(polys) -> tuple:
    """(N, scaled): the least common denominator N of the coefficients of
    the Polys polys, and the list of the Polys N p, whose coefficients are
    all ints.  N is a multiple of every denominator, so each coefficient
    is scaled in ints: v * N for an int v, and the numerator times
    N // denominator for a Fraction."""
    polys = list(polys)
    N = lcm(*{c.denominator for p in polys for c in p.terms.values()
              if type(c) is not int})
    if N == 1:
        return 1, polys
    return N, [Poly({m: v * N if type(v) is int
                     else v.numerator * (N // v.denominator)
                     for m, v in p.terms.items()}) for p in polys]


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
    def var(cls, v: tuple, exp: int = 1) -> "Poly":
        if exp < 0:
            raise ValueError("negative exponent")
        return cls({(_intern(v),) * exp: 1})

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

    def gradient(self, keep=None) -> dict:
        """Every partial derivative in one chain_rule pass: v -> d/dv.

        Keys are exactly self.indets(), or those v for which keep(v) is
        true when keep is given; keep is called once per indeterminate, and
        the partials it rejects are never formed.  Dividing distinct
        monomials by the same v keeps them distinct, so no partial sums
        terms or is zero.  The partials are held copies (see _held) that
        share one table of coefficients.
        """
        grads: dict = {}   # id -> terms of the partial by its indeterminate

        def route(i):
            if keep is None or keep(_INDETS[i]):
                return ((grads.setdefault(i, {}), 1, None),)
            return ()

        chain_rule(self.terms, route)
        shared: dict = {}
        return {_INDETS[i]: Poly(_held(terms, shared))
                for i, terms in grads.items()}

    # -- queries -------------------------------------------------------

    def indets(self) -> set:
        return {_INDETS[i] for m in self.terms for i in m}

    def term_count(self) -> int:
        return len(self.terms)

    # -- serialization ---------------------------------------------------

    def leading(self, limit: int) -> "Poly":
        """The first limit terms of self in serialization order, as a Poly
        (self when it has no more)."""
        if len(self.terms) <= limit:
            return self
        _, _, rows = _ranked(self.terms)
        return Poly({m: self.terms[m] for *_, m in islice(rows, limit)})

    def render(self, width: int | None = None, den: int = 1) -> str:
        """The text of every term in serialization order; str(p) is
        p.render().  With width, terms stop once the text reaches width
        characters: the text is then a prefix of the full one, at least
        width long unless it is all of it.  Each printed coefficient is
        divided by the int den >= 1, so a Poly held N times its value prints
        its value with den = N; only the printed terms are divided."""
        if not self.terms:
            return "0"
        ids, k, rows = _ranked(self.terms)
        names = _NAMES
        parts = []
        size = -3   # the length of " + ".join(parts)
        for _, codes, m in rows:
            c = self.terms[m]
            if den != 1:
                c = Fraction(c, den)
            frag = [f"{c.numerator}/{c.denominator}"]
            for code in codes:
                i = ids[code // k]
                name = names.get(i)
                if name is None:
                    name = names[i] = indet_str(_INDETS[i])
                e = code % k
                frag.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(frag))
            size += len(parts[-1]) + 3
            if width is not None and size >= width:
                break
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Poly({self})"


def _ranked(terms: dict) -> tuple:
    """(ids, k, rows): the monomials m of the nonempty term dict terms in
    serialization order, as an iterator of rows (-degree, codes, m) that
    keys and sorts a group of monomials only when the reader reaches it.
    codes are the factors of m in print order, each the int
    rank * k + exponent of an indeterminate whose id is ids[rank]; they
    order as the (indeterminate, exponent) pairs do (module docstring).
    Distinct monomials have distinct codes, so a row never compares m."""
    k = 1 + max(map(len, terms))
    ids = sorted(set().union(*terms), key=_INDETS.__getitem__)
    rank = {i: r * k for r, i in enumerate(ids)}

    def row(m):
        return -len(m), sorted([rank[i] + m.count(i) for i in set(m)]), m
    return ids, k, _groups(terms, rank, row)


def _groups(terms: dict, rank: dict, row):
    """The rows of terms, one group at a time: a group shares the degree and
    the least indeterminate, and a degree is split into its groups only when
    the reader reaches it."""
    by_degree: dict = {}
    for m in terms:
        by_degree.setdefault(len(m), []).append(m)
    for d in sorted(by_degree, reverse=True):
        group = by_degree[d]
        if len(group) == 1:   # so () is alone
            yield row(group[0])
            continue
        split: dict = {}
        for m in group:
            split.setdefault(min(map(rank.__getitem__, m)), []).append(m)
        for r in sorted(split):
            yield from sorted(map(row, split[r]))


def _coerce(other) -> Poly:
    if isinstance(other, Poly):
        return other
    if isinstance(other, (int, Fraction)):
        return Poly.const(other)
    raise TypeError(f"cannot combine Poly with {type(other)!r}")
