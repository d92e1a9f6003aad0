"""Jet-bundle operators: total derivatives, horizontal projection and
differential, contact forms, first prolongation of vertical fields, and
currents as horizontal (n-1)-forms."""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import JetOrderExceeded, JetvarError
from .forms import (Chart, Form, differential, linear_combination,
                    map_generators)
from .indets import (AUX, T, X, conn, indet_str, is_field_jet, matter,
                     multi_index, with_extra_deriv, x)
from .polynomial import Poly, chain_rule

__all__ = ["JetContext", "total_derivative", "horizontal_projection",
           "horizontal_differential", "contact_form", "prolong"]


class JetContext:
    """Base dimension, field content, jet order, and the generated chart.

    The connection block contributes a^r_mu for r < gauge_dim, mu < n; the
    optional matter block contributes z^A for A < matter_dim.  All jet
    coordinates with |D| <= jet_order are chart coordinates, as is the
    auxiliary scalar t (so the transgression homotopy has a dt generator).
    """

    def __init__(self, n: int, gauge_dim: int, matter_dim: int = 0,
                 jet_order: int = 3):
        if jet_order < 1:
            raise JetvarError("jet order must be >= 1")
        self.n = n
        self.gauge_dim = gauge_dim
        self.matter_dim = matter_dim
        self.jet_order = jet_order
        coords = [x(lam) for lam in range(n)]
        coords.append(T)
        for size in range(jet_order + 1):
            for D in combinations_with_replacement(range(n), size):
                for r in range(gauge_dim):
                    for mu in range(n):
                        coords.append(conn(r, mu, D))
                for A in range(matter_dim):
                    coords.append(matter(A, D))
        self.chart = Chart(coords, n)

    def field_coords(self, order: int = 0) -> list:
        """Field coordinates of exactly the given jet order, chart order."""
        return [c for c in self.chart.coords
                if is_field_jet(c) and len(multi_index(c)) == order]

    def volume_form(self, coeff: Poly) -> Form:
        """coeff * omega, omega = d^n x."""
        key = tuple(x(lam) for lam in range(self.n))
        return Form(self.chart, self.n, {key: coeff} if coeff else None)

    def omega_lambda(self, lam: int, coeff: Poly) -> Form:
        """coeff * omega_lam, omega_lam = d/dx^lam | omega (interior product
        with the volume)."""
        key = tuple(x(nu) for nu in range(self.n) if nu != lam)
        if lam % 2:
            coeff = -coeff
        return Form(self.chart, self.n - 1, {key: coeff} if coeff else None)

    def current_form(self, components: list) -> Form:
        """The horizontal (n-1)-form J^lam omega_lam of current components."""
        return linear_combination(self.chart, self.n - 1, (
            (self.omega_lambda(lam, p), 1) for lam, p in enumerate(components)))

    def current_components(self, a: Form) -> list:
        """The components J^lam of a horizontal (n-1)-form J^lam omega_lam."""
        comps = [Poly.zero()] * self.n
        for dcs, p in a.terms.items():
            if any(c[0] != X for c in dcs) or len(dcs) != self.n - 1:
                raise JetvarError("not a horizontal (n-1)-form")
            (lam,) = set(range(self.n)) - {c[1] for c in dcs}
            comps[lam] = p if lam % 2 == 0 else -p
        return comps


def _horizontal_image(v: tuple, ctx: JetContext) -> tuple:
    """d_H v as (dx^lam, lift) pairs: v_{D+lam} dx^lam summed over lam for a
    field jet or function symbol, dx^lam for x^lam, nothing for t."""
    k = v[0]
    if k == X:
        return ((v, None),)
    if k == AUX:
        return ()
    if is_field_jet(v) and len(multi_index(v)) >= ctx.jet_order:
        raise JetOrderExceeded(
            f"total derivative of expression containing top-order {indet_str(v)}")
    return tuple((x(lam), (with_extra_deriv(v, lam), 1)) for lam in range(ctx.n))


def total_derivative(f: Poly, lam: int, ctx: JetContext) -> Poly:
    """d_lam f by the chain rule: the partial in x^lam, plus (df/dv) v_{D+lam}
    for every field jet and function symbol v; other x and t are constants."""
    out: dict = {}
    dx = x(lam)

    def route(v):
        return [(out, 1, lift) for c, lift in _horizontal_image(v, ctx) if c == dx]

    chain_rule(f.terms, route)
    return Poly(out)


def _require_horizontal(a: Form):
    for dcs in a.terms:
        for c in dcs:
            if c[0] != X:
                raise JetvarError(f"form is not horizontal: d{indet_str(c)}")


def horizontal_differential(a: Form, ctx: JetContext) -> Form:
    """d_H = dx^lam wedge d_lam on horizontal forms; d_lam of a coefficient
    is formed only for the lam whose dx^lam the wedge keeps."""
    _require_horizontal(a)
    return differential(a, lambda v: _horizontal_image(v, ctx))


def _d_H_coordinate(c: tuple, ctx: JetContext) -> Form:
    """d_H c as a 1-form; raises JetOrderExceeded for a top-order jet."""
    return horizontal_differential(Form.from_poly(ctx.chart, Poly.var(c)), ctx)


def horizontal_projection(a: Form, ctx: JetContext) -> Form:
    """h0: each dc becomes d_H c, coefficients unchanged.  d_H t is 0, but
    h0 is undefined on dt and raises there."""
    def image(c):
        if c[0] == AUX:
            raise JetvarError(f"h0 undefined on d{indet_str(c)}")
        return _d_H_coordinate(c, ctx)

    return map_generators(a, image)


def contact_form(c: tuple, ctx: JetContext) -> Form:
    """theta^c = dc - d_H c for a fiber coordinate below top order."""
    if not is_field_jet(c):
        raise JetvarError(f"{indet_str(c)} is not a field coordinate")
    return Form.generator(ctx.chart, c) - _d_H_coordinate(c, ctx)


def prolong(u: dict, ctx: JetContext) -> dict:
    """First jet prolongation of a vertical field given on order-0 field
    coordinates: adds the components d_lam u^i on the first-order jets."""
    for c in u:
        if not is_field_jet(c) or multi_index(c):
            raise JetvarError(f"field is not vertical order-0: {indet_str(c)}")
    out = {c: p for c, p in u.items() if p}
    for c, p in u.items():
        for lam in range(ctx.n):
            comp = total_derivative(p, lam, ctx)
            if comp:
                out[with_extra_deriv(c, lam)] = comp
    return out
