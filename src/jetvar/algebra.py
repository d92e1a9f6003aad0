"""Lie-algebra data, invariant symmetric tensors, gauge generators.

Structure constants and tensor entries are exact rationals; antisymmetry,
Jacobi, and ad-invariance are verified at load time, never assumed.
"""

from __future__ import annotations

from collections import Counter
from math import factorial

from .errors import AntisymmetryViolation, JacobiViolation, JetvarError
from .indets import conn, gauge
from .jets import JetContext, total_derivatives_into
from .polynomial import Poly, Q, _as_q, mul_dicts

__all__ = ["LieAlgebraData", "InvariantTensor", "load_lie_algebra",
           "killing_form", "check_invariant_tensor", "gauge_generator",
           "section_bracket", "builtin_algebra", "builtin_invariant"]


class LieAlgebraData:
    """dim and sparse structure constants c^r_pq (validated)."""

    def __init__(self, dim: int, c: dict):
        if dim < 1:
            raise JetvarError(f"algebra dimension must be >= 1, got {dim}")
        self.dim = dim
        for v in c.values():
            _as_q(v)   # an int or a Fraction, else TypeError
        self.c = {k: v for k, v in c.items() if v}
        self._validate()

    def _validate(self):
        for (r, p, q), v in self.c.items():
            if not all(0 <= i < self.dim for i in (r, p, q)):
                raise JetvarError(f"structure constant index out of range: {(r, p, q)}")
            if v != -self.c.get((r, q, p), 0):
                raise AntisymmetryViolation(
                    f"c^{r}_{{{p}{q}}} != -c^{r}_{{{q}{p}}}")
        # T[(a, b, d, r)] = c^u_ab c^r_ud summed over u, from the pairs of
        # nonzero constants that share u.  Jacobi at (p, q, s, r) is
        # T(p,q,s,r) + T(q,s,p,r) + T(s,p,q,r), so only sorted triples
        # {a, b, d} of nonzero T entries can fail; the first failure in
        # (p, q, s, r) order is reported.
        upper = _by_upper(self.c)
        T: dict = {}
        for (r, u, d), w in self.c.items():
            for a, b, v in upper.get(u, ()):
                key = (a, b, d, r)
                T[key] = T.get(key, 0) + v * w
        for key in sorted({(*sorted(key[:3]), key[3])
                           for key, v in T.items() if v}):
            p, q, s, r = key
            if T.get((p, q, s, r), 0) + T.get((q, s, p, r), 0) \
                    + T.get((s, p, q, r), 0):
                raise JacobiViolation(f"Jacobi fails at (p,q,s,r)=({p},{q},{s},{r})")


def _by_upper(c: dict) -> dict:
    """r -> the (p, q, c^r_pq) of the nonzero constants c^r_pq."""
    out: dict = {}
    for (r, p, q), v in c.items():
        out.setdefault(r, []).append((p, q, v))
    return out


def _multinomial(idx: tuple) -> int:
    """Number of distinct orderings of the multiset idx."""
    mult = factorial(len(idx))
    for c in Counter(idx).values():
        mult //= factorial(c)
    return mult


class InvariantTensor:
    """Fully symmetric degree-k tensor, stored on sorted index tuples."""

    def __init__(self, degree: int, entries: dict):
        self.degree = degree
        self.entries = {}
        seen: dict = {}   # every given value by sorted key, zeros too
        for idx, v in entries.items():
            if len(idx) != degree:
                raise JetvarError(f"entry {idx} has wrong arity")
            _as_q(v)   # an int or a Fraction, else TypeError
            key = tuple(sorted(idx))
            if seen.setdefault(key, v) != v:
                raise JetvarError(f"conflicting symmetric entries at {key}")
            if v:
                self.entries[key] = v

    def scaled(self, c) -> "InvariantTensor":
        return InvariantTensor(self.degree,
                               {k: v * c for k, v in self.entries.items()})


def load_lie_algebra(dim: int, constants) -> LieAlgebraData:
    """constants: iterable of (r, p, q, value); omitted entries are zero.
    Entries are mirrored antisymmetrically when only one orientation is given."""
    c: dict = {}
    for r, p, q, v in constants:
        v = Q(_as_q(v))
        c[(r, p, q)] = v
        mirror = (r, q, p)
        if mirror in c:
            if c[mirror] != -v:
                raise AntisymmetryViolation(f"c^{r}_{{{p}{q}}} and c^{r}_{{{q}{p}}} clash")
        else:
            c[mirror] = -v
    return LieAlgebraData(dim, c)


def killing_form(g: LieAlgebraData) -> dict:
    """kappa_mn = c^p_mq c^q_np as the dict {(m, n): value} of its nonzero
    entries in sorted order, summed over the pairs of nonzero constants
    c^p_mq, c^q_np."""
    out: dict = {}
    upper = _by_upper(g.c)
    for (p, i, q), v in g.c.items():
        for j, p2, w in upper.get(q, ()):
            if p2 == p:
                out[(i, j)] = out.get((i, j), 0) + v * w
    return {key: out[key] for key in sorted(out) if out[key]}


def check_invariant_tensor(g: LieAlgebraData, b: InvariantTensor):
    """Ad-invariance residual, fully symmetrized over the free slots.

    Returns a dict of nonzero residual entries keyed by (p, sorted free
    indices); empty means the tensor is invariant.  The entry at (p, e) sums
    c^r1_{p t0} b(r1, t1, ..., t_{k-1}) over the orderings t of e; it is
    walked from the nonzero entries of b and constants c^r1_ps: an entry
    with slot value r1 and other indices R gives every ordering of R, so
    its product is weighted by their number.
    """
    upper = _by_upper(g.c)
    residual: dict = {}
    for idx, bval in b.entries.items():
        for i, r1 in enumerate(idx):
            if i and idx[i - 1] == r1:
                continue  # one slot value per distinct index
            consts = upper.get(r1)
            if not consts:
                continue
            rest = idx[:i] + idx[i + 1:]
            weight = bval * _multinomial(rest)
            for p, s, cval in consts:
                key = (p, tuple(sorted(rest + (s,))))
                residual[key] = residual.get(key, Q(0)) + cval * weight
    return {k2: v for k2, v in residual.items() if v}


def gauge_generator(g: LieAlgebraData, ctx: JetContext) -> dict:
    """Vertical field xi_C on C: component d_mu xi^r + [a_mu, xi]^r of the
    symbolic family xi^r, whose jets are free symbols.  It stands for every
    gauge parameter, as substituting xi^r = f^r(x) commutes with d_mu."""
    if g.dim != ctx.gauge_dim:
        raise JetvarError("algebra dimension does not match the jet context")
    return _generator(g, ctx, {q: Poly.var(gauge(q)) for q in range(g.dim)})


def _generator(g: LieAlgebraData, ctx: JetContext, xi: dict) -> dict:
    """gauge_generator of the sparse parameters xi: r -> nonzero Poly, the
    others zero.  Only the constants c^r_pq whose q is in xi are read."""
    out: dict = {}
    for r, p in xi.items():
        total_derivatives_into({mu: out.setdefault(conn(r, mu), {})
                                for mu in range(ctx.n)}, p, ctx)
    for (r, p, q), cval in g.c.items():
        if q in xi:
            for mu in range(ctx.n):
                mul_dicts(Poly.var(conn(p, mu)).terms, xi[q].terms,
                          out.setdefault(conn(r, mu), {}), cval)
    return {c: Poly(out[c]) for c in sorted(out) if out[c]}


def section_bracket(xi: list, eta: list, g: LieAlgebraData) -> list:
    """[xi, eta]^r = c^r_pq xi^p eta^q, componentwise on V_GP sections,
    summed over the nonzero constants only."""
    out = [{} for _ in range(g.dim)]
    for (r, p, q), cval in g.c.items():
        mul_dicts(xi[p].terms, eta[q].terms, out[r], cval)
    return [Poly(terms) for terms in out]


# -- shipped algebras and tensors -------------------------------------

_EPS3 = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
         (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}


def builtin_algebra(name: str) -> LieAlgebraData:
    """The named algebra.  A '+'-joined name is the direct sum of its parts:
    each part's constants are shifted by the dimensions before it into one
    dict, and the sum is validated once."""
    name = name.strip().lower()
    if "+" in name:
        dim, c = 0, {}
        for part in map(builtin_algebra, name.split("+")):
            for (r, p, q), v in part.c.items():
                c[r + dim, p + dim, q + dim] = v
            dim += part.dim
        return LieAlgebraData(dim, c)
    if name == "u1":
        return LieAlgebraData(1, {})
    if name.startswith("u1^"):
        try:
            m = int(name[3:])
        except ValueError:
            raise JetvarError(f"u1^m needs an integer m >= 1, got {name!r}") from None
        return LieAlgebraData(m, {})
    if name in ("su2", "so3"):
        return LieAlgebraData(3, {k: Q(v) for k, v in _EPS3.items()})
    raise JetvarError(f"unknown algebra {name!r}")


def builtin_invariant(name: str, g: LieAlgebraData, k: int) -> InvariantTensor:
    """Named invariant tensors: 'killing' (k=2), 'unit' (abelian, all-zero
    index slot), 'u1su2-cubic' (degree 3 on u1+su2)."""
    name = name.strip().lower()
    if name == "killing":
        if k != 2:
            raise JetvarError("killing tensor has degree 2")
        return InvariantTensor(2, {(i, j): v for (i, j), v in killing_form(g).items()
                                   if i <= j})
    if name == "unit":
        return InvariantTensor(k, {(0,) * k: Q(1)})
    if name == "u1su2-cubic":
        if k != 3 or g.dim != 4:
            raise JetvarError("u1su2-cubic needs degree 3 on the 4-dim u1+su2")
        entries: dict = {(0, 0, 0): Q(1)}
        for (i, j), v in killing_form(g).items():
            if i <= j:
                key = tuple(sorted((0, i, j)))
                entries[key] = entries.get(key, Q(0)) + v
        return InvariantTensor(3, entries)
    raise JetvarError(f"unknown invariant tensor {name!r}")
