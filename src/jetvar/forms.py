"""Graded exterior algebra with Poly coefficients on a jet context.

A form lives on a JetContext, and its generators are the differentials of
the context's coordinates: `c in ctx` is the coordinate rule.  Function
symbols (B, xi families) are deliberately NOT coordinates: they have no
differentials of their own, and the exterior derivative turns their
variation into dx terms via the formal x-derivative rule
s -> s_{D+lam} dx^lam.  Any other indeterminate outside the rule has no
differential, and d raises rather than drop it.

Form terms are keyed by strictly increasing tuples of coordinate
indeterminates; antisymmetry is normalized away at construction time.  A
form's degree is the length of its generator tuples, which must all have
one length; the zero form has no tuple and every degree.

Every operator, here and in jets, has one core that adds c * op(...) into an
accumulator the caller owns: a dict from generator tuples to raw term dicts
(add_into, wedge_into, differential_into, exterior_d_into, contract_into).  A
sum of operator results is built in one accumulator and turned into a Form
once, by _wrap; each returning operator is that core added into an empty one.
"""

from __future__ import annotations

from .errors import JetvarError
from .indets import BG, GAUGE, indet_str, with_extra_deriv, x
from .polynomial import (_INDETS, Poly, _held, _intern, _interned, add_dicts,
                         chain_rule, mul_dicts)

__all__ = ["Form", "wedge", "exterior_d", "linear_combination", "add_into",
           "wedge_into", "differential_into", "exterior_d_into",
           "contract_into"]


def _merge_tuples(ta: tuple, tb: tuple):
    """Merge two strictly increasing tuples; returns (merged, sign) or None."""
    if not ta:
        return tb, 1
    if not tb:
        return ta, 1
    out = []
    sign = 1
    i = j = 0
    na, nb = len(ta), len(tb)
    while i < na and j < nb:
        if ta[i] == tb[j]:
            return None
        if ta[i] < tb[j]:
            out.append(ta[i])
            i += 1
        else:
            out.append(tb[j])
            j += 1
            if (na - i) & 1:
                sign = -sign
    out.extend(ta[i:])
    out.extend(tb[j:])
    return tuple(out), sign


class Form:
    """A sum of Poly coefficients times wedges of coordinate differentials,
    on the JetContext ctx; two forms combine only on equal contexts."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms: dict | None = None):
        self.ctx = ctx
        if terms:
            size = len(next(iter(terms)))
            for dcs, p in terms.items():
                if not p.terms:
                    raise JetvarError(
                        f"zero coefficient at generator tuple {dcs}")
                if len(dcs) != size:
                    raise JetvarError(f"degree mismatch: generator tuples of "
                                      f"lengths {size} and {len(dcs)}")
                if any(dcs[i] >= dcs[i + 1] for i in range(size - 1)):
                    raise JetvarError(
                        f"generator tuple not strictly increasing: {dcs}")
        self.terms = terms or {}

    @classmethod
    def zero(cls, ctx) -> "Form":
        return cls(ctx)

    @classmethod
    def from_poly(cls, ctx, p: Poly) -> "Form":
        return cls(ctx, {(): p} if p else {})

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return sum(p.term_count() for p in self.terms.values())

    def _check(self, other: "Form"):
        if self.ctx != other.ctx:
            raise JetvarError("forms live on different jet contexts")

    def __add__(self, other: "Form") -> "Form":
        return linear_combination(self.ctx, ((self, 1), (other, 1)))

    def __sub__(self, other: "Form") -> "Form":
        return linear_combination(self.ctx, ((self, 1), (other, -1)))

    def scale(self, c) -> "Form":
        out = {}
        for d, p in self.terms.items():
            q = p * c
            if q:
                out[d] = q
        return Form(self.ctx, out)

    def __eq__(self, other):
        return (isinstance(other, Form) and self.ctx == other.ctx
                and self.terms == other.terms)

    __hash__ = None  # mutable terms dict; identity hashing would mislead

    def coefficient(self, dcs: tuple) -> Poly:
        return self.terms.get(tuple(dcs), Poly.zero())

    def leading(self, limit: int) -> "Form":
        """The first limit terms of each coefficient (see Poly.leading)."""
        return Form(self.ctx, {dcs: p.leading(limit)
                               for dcs, p in self.terms.items()})

    def render(self, width: int | None = None, den: int = 1) -> str:
        """str(self); with width, its first width characters, of which only
        the terms that reach into them are rendered.  Each printed
        coefficient is divided by the int den >= 1 (see Poly.render)."""
        parts = []
        size = -3   # the length of " + ".join(parts)
        for dcs in sorted(self.terms):
            # the text of p starts after a separator and "("
            p = self.terms[dcs].render(
                width=None if width is None else width - size - 4, den=den)
            if dcs:
                gens = "∧".join("d" + indet_str(c) for c in dcs)
                parts.append(f"({p}) {gens}")
            else:
                parts.append(f"({p})")
            size += len(parts[-1]) + 3
            if width is not None and size >= width:
                break
        return (" + ".join(parts) or "0")[:width]

    def __str__(self) -> str:
        return self.render()

    def __repr__(self):
        degree = next((len(dcs) for dcs in self.terms), None)
        return f"Form(deg={degree}, {self})"


def _wrap(ctx, raw: dict) -> Form:
    """The form whose coefficients are the raw term dicts raw[key]; empty
    dicts are dropped.  Each coefficient holds a copy of its dict (see
    polynomial._held), so the hash-table slack a dict keeps after sums that
    cancel is freed, and the coefficients of the form share one table."""
    shared: dict = {}
    return Form(ctx, {key: Poly(_held(t, shared))
                      for key, t in raw.items() if t})


def is_empty(acc: dict) -> bool:
    """Whether the accumulator acc holds no term."""
    return not any(acc.values())


def add_into(acc: dict, a: Form, c=1) -> dict:
    """Add c * a into the accumulator acc; returns acc."""
    for dcs, p in a.terms.items():
        add_dicts(acc.setdefault(dcs, {}), p.terms, c)
    return acc


def linear_combination(ctx, pairs) -> Form:
    """The sum of c * a over the (a, c) pairs, c rational, built in one
    accumulator.  pairs may be a generator: each a is then dropped once it
    is summed."""
    acc: dict = {}
    for a, c in pairs:
        if a.ctx != ctx:
            raise JetvarError("forms live on different jet contexts")
        add_into(acc, a, c)
    return _wrap(ctx, acc)


def wedge_into(acc: dict, a: Form, b: Form, c=1) -> dict:
    """Add c * (a ^ b) into the accumulator acc; returns acc."""
    a._check(b)
    for ta, fa in a.terms.items():
        for tb, fb in b.terms.items():
            merged = _merge_tuples(ta, tb)
            if merged is None:
                continue
            dcs, sign = merged
            mul_dicts(fa.terms, fb.terms, acc.setdefault(dcs, {}),
                      c if sign > 0 else -c)
    return acc


def wedge(a: Form, b: Form) -> Form:
    return _wrap(a.ctx, wedge_into({}, a, b))


def differential_into(acc: dict, a: Form, image, c=1) -> dict:
    """Add c * d(a) into the accumulator acc for the derivation d with
    d(f dcs) = df ^ dcs and dv = image(i) for the indeterminate v of id i;
    returns acc.

    image(i) lists (g, lift) pairs meaning dv = sum lift dg over coordinate
    generators g, where lift is None for 1 or the id of an indeterminate w;
    it is called once per id per coefficient, so it should be memoized (the
    images of d and d_H are, for the process, keyed by id).  Each
    coefficient is walked once by the chain-rule kernel, and a partial whose
    dc already occurs in dcs is never formed.
    """
    for dcs, f in a.terms.items():
        slots: dict = {}  # g -> (terms of dg ^ dcs, weight), or () when it is 0

        def route(i):
            r = []
            for g, lift in image(i):
                slot = slots.get(g)
                if slot is None:
                    merged = _merge_tuples((g,), dcs)
                    slot = slots[g] = () if merged is None else (
                        acc.setdefault(merged[0], {}),
                        c if merged[1] > 0 else -c)
                if slot:
                    r.append((slot[0], slot[1], lift))
            return r

        chain_rule(f.terms, route)
    return acc


def exterior_d_into(acc: dict, a: Form, c=1) -> dict:
    """Add c * da into the accumulator acc; returns acc.  d is the chain
    rule: a coordinate v gives dv, a function symbol s gives
    s_{D+lam} dx^lam; any other indeterminate raises.  The image of each
    indeterminate is built once per process and context, keyed by its id,
    and holds the interned tuples of x^lam and the ids of s_{D+lam}."""
    ctx = a.ctx

    def image(i):
        v = _INDETS[i]
        if v in ctx:
            return ((v, None),)
        if v[0] in (BG, GAUGE):
            return tuple((_interned(x(lam)), _intern(with_extra_deriv(v, lam)))
                         for lam in range(ctx.n))
        raise JetvarError(f"d{indet_str(v)} is not a coordinate differential")

    return differential_into(acc, a, ctx._images("d", image), c)


def exterior_d(a: Form) -> Form:
    return _wrap(a.ctx, exterior_d_into({}, a))


def contract_into(acc: dict, X: dict, a: Form, c=1) -> dict:
    """Add c * (X . a) into the accumulator acc, for the interior product
    with the vector field of components X: coord -> Poly; returns acc."""
    for dcs, f in a.terms.items():
        for j, g in enumerate(dcs):
            comp = X.get(g)
            if not comp:
                continue
            key = dcs[:j] + dcs[j + 1:]
            mul_dicts(comp.terms, f.terms, acc.setdefault(key, {}),
                      -c if j & 1 else c)
    return acc

