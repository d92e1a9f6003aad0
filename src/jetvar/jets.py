"""Jet-bundle operators: total derivatives, horizontal projection and
differential, and currents as horizontal (n-1)-forms."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .errors import JetvarError
from .forms import Form, _wrap, differential_into, wedge
from .indets import (AUX, CONN, MATTER, X, conn, indet_str, matter,
                     multi_index, with_extra_deriv, x)
from .polynomial import (_INDETS, Poly, _intern, _interned, chain_rule,
                         mul_dicts)

__all__ = ["JetContext", "total_derivatives_into", "horizontal_projection",
           "horizontal_projection_into", "horizontal_differential_into"]


_IMAGE_TABLES: dict = {}   # (map name, context) -> {argument: image}


@dataclass(frozen=True)
class JetContext:
    """Base dimension and field content of the infinite jet bundle J^inf.

    The connection block contributes a^r_mu for r < gauge_dim, mu < n; the
    optional matter block contributes z^A for A < matter_dim.  Coordinates
    follow a rule, not a list: x^lam for lam < n, the auxiliary scalar t (so
    the transgression homotopy has a dt generator), and every jet
    a^r_{D;mu}, z^A_D whose indices are in range, at any order |D|.
    A context is an immutable value that every form carries; contexts with
    the same (n, gauge_dim, matter_dim) are equal.
    """

    n: int
    gauge_dim: int
    matter_dim: int = 0
    # name -> the memoized map that _images made for it on this context
    _maps: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def _images(self, name: str, build):
        """The map v -> build(v), memoized for the life of the process in
        the table that equal contexts share under name.  The map is made on
        the first call for name on this context and kept by it, so a later
        call costs one lookup and its build is not read: a build must
        capture nothing but the context.  A build that raises stores
        nothing, so it raises again on every call."""
        image = self._maps.get(name)
        if image is None:
            memo = _IMAGE_TABLES.setdefault((name, self), {})

            def image(v):
                img = memo.get(v)
                if img is None:
                    img = memo[v] = build(v)
                return img
            self._maps[name] = image
        return image

    def __contains__(self, c: tuple) -> bool:
        """The coordinate rule."""
        kind = c[0]
        if kind == X:
            return 0 <= c[1] < self.n
        if kind == AUX:
            return True
        if kind == CONN:
            fiber = 0 <= c[1] < self.gauge_dim and 0 <= c[2] < self.n
        elif kind == MATTER:
            fiber = 0 <= c[1] < self.matter_dim
        else:
            return False
        return fiber and all(0 <= d < self.n for d in multi_index(c))

    def field_coords(self, order: int = 0) -> list:
        """Field coordinates of exactly the given jet order, sorted, as a
        fresh list; each order is enumerated once per process and context."""
        def build(order):
            Ds = list(combinations_with_replacement(range(self.n), order))
            return (*(conn(r, mu, D) for r in range(self.gauge_dim)
                      for mu in range(self.n) for D in Ds),
                    *(matter(A, D) for A in range(self.matter_dim) for D in Ds))

        return list(self._images("field_coords", build)(order))

    def volume_key(self) -> tuple:
        """The generator tuple of omega = d^n x."""
        return tuple(x(lam) for lam in range(self.n))

    def omega_key(self, lam: int) -> tuple:
        """The generator tuple of omega_lam = (-1)^lam times it."""
        return tuple(x(nu) for nu in range(self.n) if nu != lam)

    def volume_form(self, coeff: Poly) -> Form:
        """coeff * omega, omega = d^n x."""
        return Form(self, {self.volume_key(): coeff} if coeff else None)

    def current_form(self, components: list) -> Form:
        """The horizontal (n-1)-form J^lam omega_lam of current components,
        omega_lam = d/dx^lam | omega (interior product with the volume)."""
        return Form(self, {self.omega_key(lam): -p if lam % 2 else p
                           for lam, p in enumerate(components) if p})

    def current_components(self, a: Form) -> list:
        """The components J^lam of a horizontal (n-1)-form J^lam omega_lam."""
        comps = [Poly.zero()] * self.n
        for dcs, p in a.terms.items():
            if any(c[0] != X for c in dcs) or len(dcs) != self.n - 1:
                raise JetvarError("not a horizontal (n-1)-form")
            (lam,) = set(range(self.n)) - {c[1] for c in dcs}
            comps[lam] = p if lam % 2 == 0 else -p
        return comps


def _horizontal_image(ctx: JetContext):
    """The map i -> d_H v for the indeterminate v of id i, as (dx^lam, lift)
    pairs: v_{D+lam} dx^lam summed over lam for a field jet or function
    symbol, in the order of lam, dx^lam for x^lam, nothing for t; each image
    is built once per process and context, keyed by id, and holds the
    interned tuples of x^lam and the ids of the lifts."""
    n = ctx.n

    def image(i):
        v = _INDETS[i]
        k = v[0]
        if k == X:
            return ((v, None),)
        if k == AUX:
            return ()
        return tuple((_interned(x(lam)), _intern(with_extra_deriv(v, lam)))
                     for lam in range(n))

    return ctx._images("d_H", image)


def total_derivatives_into(outs: dict, f: Poly, ctx: JetContext,
                           c=1) -> dict:
    """Add c * d_lam f into the term dict outs[lam] for each lam in outs,
    in one chain-rule walk over f; returns outs.  d_lam f is the chain rule:
    the partial in x^lam, plus (df/dv) v_{D+lam} for every field jet and
    function symbol v; other x and t are constants.  Each term of d_H f goes
    to outs[lam] for the dx^lam it pairs with, and one whose lam is not in
    outs is never formed."""
    image = _horizontal_image(ctx)

    def route(i):
        return [(outs[g[1]], c, lift) for g, lift in image(i) if g[1] in outs]

    chain_rule(f.terms, route)
    return outs


def _require_horizontal(a: Form):
    for dcs in a.terms:
        for c in dcs:
            if c[0] != X:
                raise JetvarError(f"form is not horizontal: d{indet_str(c)}")


def horizontal_differential_into(acc: dict, a: Form, c=1) -> dict:
    """Add c * d_H a into the accumulator acc (see forms); returns acc.
    d_H = dx^lam wedge d_lam on horizontal forms; d_lam of a coefficient is
    formed only for the lam whose dx^lam the wedge keeps."""
    _require_horizontal(a)
    return differential_into(acc, a, _horizontal_image(a.ctx), c)


def _d_H_coordinate(c: tuple, ctx: JetContext) -> Form:
    """d_H c as a 1-form, read from the memoized d_H image of c."""
    return Form(ctx, {(g,): Poly({() if lift is None else (lift,): 1})
                      for g, lift in _horizontal_image(ctx)(_intern(c))})


def horizontal_projection_into(acc: dict, a: Form, c=1) -> dict:
    """Add c * h0(a) into the accumulator acc (see forms); returns acc.
    h0: each dc becomes d_H c, coefficients unchanged.  d_H t is 0, but
    h0 is undefined on dt and raises there.  The image of each generator
    tuple, the wedge of the d_H of its coordinates, is built once per
    process and context."""
    ctx = a.ctx

    def build(dcs):
        img = Form.from_poly(ctx, Poly.const(1))
        for v in dcs:
            if v[0] == AUX:
                raise JetvarError(f"h0 undefined on d{indet_str(v)}")
            img = wedge(img, _d_H_coordinate(v, ctx))
            if img.is_zero():
                break
        return img

    image = ctx._images("h0", build)
    for dcs, f in a.terms.items():
        for key, g in image(dcs).terms.items():
            mul_dicts(f.terms, g.terms, acc.setdefault(key, {}), c)
    return acc


def horizontal_projection(a: Form) -> Form:
    return _wrap(a.ctx, horizontal_projection_into({}, a))

