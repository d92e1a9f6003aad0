"""Euler-Lagrange operator, first variational formula, Noether currents, the
boundary term sigma, and the exact on-shell conservation check.

Every operator works on the jet context of its Lagrangian, L.ctx; a Noether
current is the horizontal (n-1)-form J^lam omega_lam.  Each operator is
linear in the Lagrangian and in the field, so its result on N L and M u is
N M times its result on L and u: the operators on a CS model (sigma, its
checks, the conservation law) run on the model's forms, held cs.scale times
their value (see chern_simons), and return cs.scale times theirs."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import _generator
from .chern_simons import (CSData, _dS, _F, _S, _slot_contraction, _t_free,
                           cs_lagrangian, homotopy)
from .errors import JetvarError, NonzeroResidual, SigmaMismatch
from .forms import (Form, _wrap, add_into, contract_into, exterior_d_into,
                    is_empty)
from .indets import gauge, indet_str, is_field_jet, multi_index, order_zero
from .jets import (JetContext, horizontal_differential_into,
                   horizontal_projection, total_derivatives_into)
from .polynomial import Poly, _held, mul_dicts

__all__ = ["Lagrangian", "VerificationReport", "euler_lagrange",
           "noether_current", "lie_derivative_lagrangian",
           "first_variational_check", "conservation_check",
           "sigma_boundary_term", "verify_conservation"]


@dataclass
class VerificationReport:
    residual: Form
    vacuous: bool = False   # every term of the checked identity is zero

    @property
    def passed(self) -> bool:
        return self.residual.is_zero()


class Lagrangian:
    """First-order horizontal n-form L = density * d^n x, held as the
    partials of its density.

    gradient maps each field-jet indeterminate of the density to its
    partial, the only partials that the Euler-Lagrange operator, Noether
    currents and Lie derivatives read; it is built once and shared by every
    operator on L.  jet_partials indexes the partials in the first-order
    jets i_lam by their order-0 coordinate i, as (lam, partial) pairs: the
    same Polys, so the operators that read partial^lam_i visit only those
    that the density has.  No operator reads the density itself, so L
    does not keep it once the partials are built."""

    def __init__(self, ctx: JetContext, density: Poly):
        grad = density.gradient(is_field_jet)
        jet_partials: dict = {}
        for v, p in grad.items():
            D = multi_index(v)
            if not D:
                continue
            if len(D) > 1:
                raise JetvarError(f"Lagrangian is not first-order: {indet_str(v)}")
            jet_partials.setdefault(order_zero(v), []).append((D[0], p))
        self.ctx = ctx
        self.gradient = grad
        self.jet_partials = jet_partials
        self._el = None   # euler_lagrange(self), built by _el_into

    @classmethod
    def from_horizontal_form(cls, a: Form) -> "Lagrangian":
        key = a.ctx.volume_key()
        for dcs in a.terms:
            if dcs != key:
                raise JetvarError("not a horizontal top-degree form")
        return cls(a.ctx, a.coefficient(key))


def euler_lagrange(L: Lagrangian) -> dict:
    """delta_i = partial_i - d_lam partial^lam_i applied to the density.

    Returns a dict over every order-0 field coordinate, in field_coords
    order (a zero component included); values live on J2.  Each component
    is a held copy of the sum it was built in (see polynomial._held)."""
    ctx = L.ctx
    grad = L.gradient
    jet_partials = L.jet_partials
    out = {}
    shared: dict = {}
    for i in ctx.field_coords(0):
        p = grad.get(i)
        comp = dict(p.terms) if p else {}
        for lam, dldj in jet_partials.get(i, ()):
            total_derivatives_into({lam: comp}, dldj, ctx, -1)
        out[i] = Poly(_held(comp, shared))
    return out


def _noether_into(acc: dict, L: Lagrangian, u: dict, c=1) -> dict:
    """Add c * J_u (see noether_current) into the accumulator acc."""
    ctx = L.ctx
    jet_partials = L.jet_partials
    for i, ui in u.items():
        for lam, dldj in jet_partials.get(i, ()):
            mul_dicts(ui.terms, dldj.terms,
                      acc.setdefault(ctx.omega_key(lam), {}),
                      -c if lam % 2 else c)
    return acc


def noether_current(L: Lagrangian, u: dict) -> Form:
    """J = J^lam omega_lam, J^lam = u^i partial^lam_i(density), for a
    vertical order-0 field u."""
    return _wrap(L.ctx, _noether_into({}, L, u))


def _lie_into(out: dict, L: Lagrangian, u: dict, c=1) -> dict:
    """Add c * (u^i partial_i + d_lam u^i partial^lam_i) density, the
    coefficient of omega in the Lie derivative of L along the first
    prolongation J1 u, into the term dict out; returns out.

    u is a vertical field on order-0 field coordinates, else JetvarError.
    Only the partials that the density has are read: u^i partial_i from
    L.gradient, and d_lam u^i only for the (lam, partial^lam_i) pairs of
    L.jet_partials, all of them from one chain-rule walk over u^i; a
    component of J1 u that meets no partial is never formed."""
    for i in u:
        if not is_field_jet(i) or multi_index(i):
            raise JetvarError(f"field is not vertical order-0: {indet_str(i)}")
    ctx = L.ctx
    grad = L.gradient
    jet_partials = L.jet_partials
    for i, ui in u.items():
        p = grad.get(i)
        if p:
            mul_dicts(ui.terms, p.terms, out, c)
        partials = jet_partials.get(i)
        if partials:
            parts = total_derivatives_into({lam: {} for lam, _ in partials},
                                           ui, ctx)
            for lam, dldj in partials:
                mul_dicts(parts[lam], dldj.terms, out, c)
    return out


def lie_derivative_lagrangian(L: Lagrangian, u: dict) -> Form:
    """(u^i partial_i + d_lam u^i partial^lam_i) density * omega."""
    return L.ctx.volume_form(Poly(_lie_into({}, L, u)))


def _el_into(out: dict, L: Lagrangian, u: dict, c=1) -> dict:
    """Add c * u^i delta_i(density), the coefficient of omega in
    u . delta L, into the term dict out.  The Euler-Lagrange components
    are built on the first call and held by L."""
    if L._el is None:
        L._el = euler_lagrange(L)
    el = L._el
    for i, ui in u.items():
        if el.get(i):
            mul_dicts(ui.terms, el[i].terms, out, c)
    return out


def first_variational_check(L: Lagrangian, u: dict) -> VerificationReport:
    """Residual of L_{J1u}L - u.deltaL - d_H(J_u); passes iff exactly zero."""
    ctx = L.ctx
    vol = _lie_into({}, L, u)
    _el_into(vol, L, u, -1)
    acc = {ctx.volume_key(): vol}
    horizontal_differential_into(acc, noether_current(L, u), -1)
    return VerificationReport(_wrap(ctx, acc))


# -- the boundary term, one gauge component at a time ---------------------


def _lagrangian(cs: CSData) -> Lagrangian:
    """The CS Lagrangian L = h0 S, built once per CSData; it holds its
    Euler-Lagrange components once they are built."""
    return cs._memo(("L",), lambda: Lagrangian.from_horizontal_form(
        cs_lagrangian(cs)))


def _components(cs: CSData):
    """The gauge components as (name, head, xi_C) triples, one per index r
    of the symbolic family, with the parameters xi^r e_r.  head maps r to
    the 0-form k xi^r of the descent primitive's head slot, and xi_C is the
    gauge generator of xi^r e_r.  A generator: each component is built only
    when it is reached, so the components are never all held at once."""
    for r in range(cs.algebra.dim):
        xi = Poly.var(gauge(r))
        yield (f"gauge component {r}", {r: Form.from_poly(cs.ctx, xi * cs.k)},
               _generator(cs.algebra, cs.ctx, {r: xi}))


def sigma_boundary_term(cs: CSData, name: str, head: dict,
                        xi_C: dict) -> Form:
    """sigma = h0(psi - d eta + xi_C . S(B)) of one gauge component: a
    horizontal primitive of the CS Lagrangian's Lie derivative along J1 xi_C.

    psi = k b(xi, F, ..., F) is the descent primitive of xi_C . dS
    (Bianchi plus ad-invariance); d psi == xi_C . dS is asserted exactly
    and raises NonzeroResidual otherwise.  eta = homotopy(cs, [k xi]) is the
    fiber homotopy H of psi, so psi - d eta is the primitive
    H(xi_C . dS - d chi) + chi of the homotopy formula dH + Hd = id - s*pi*,
    chi being the restriction of psi to the background section.
    Post-verified: d_H sigma equals the Lie derivative of the CS Lagrangian
    along J1 xi_C, else SigmaMismatch.  A failed check names the component.
    S, dS, F and the Lagrangian L = h0 S are the model data of cs, built
    once per CSData, and sigma is cs.scale times its value.  psi, eta and
    the sum are released before the post-check."""
    ctx = cs.ctx
    psi = _slot_contraction(cs, [head], _t_free(_F(cs)))
    residual = contract_into(exterior_d_into({}, psi), xi_C, _dS(cs), -1)
    if not is_empty(residual):
        residual = _wrap(ctx, residual)
        raise NonzeroResidual(
            f"{name}: descent residual has {residual.term_count()} terms: "
            f"{residual.render(den=cs.scale)}")
    eta = homotopy(cs, [head])
    acc = exterior_d_into(add_into({}, psi), eta, -1)
    del psi, eta, residual
    contract_into(acc, xi_C, _S(cs))
    sigma = _wrap(ctx, acc)
    del acc
    sigma = horizontal_projection(sigma)
    # d_H sigma - L_{J1 xi_C} L, in one accumulator
    check = horizontal_differential_into({}, sigma)
    L = _lagrangian(cs)
    _lie_into(check.setdefault(ctx.volume_key(), {}), L, xi_C, -1)
    if not is_empty(check):
        raise SigmaMismatch(
            f"{name}: d_H sigma != Lie derivative of the CS Lagrangian")
    return sigma


def conservation_check(L_total: Lagrangian, u: dict,
                       modified: Form) -> VerificationReport:
    """Strong rendering of the weak conservation law:
    d_H(J_u - sigma) + u^i delta_i(density) omega = 0 exactly, for the
    modified current J_u - sigma given as modified.

    The report is vacuous when both d_H(J_u - sigma) and the Euler-Lagrange
    term are zero."""
    ctx = L_total.ctx
    if modified.ctx != ctx:
        raise JetvarError("forms live on different jet contexts")
    acc = horizontal_differential_into({}, modified)
    boundary_zero = is_empty(acc)
    _el_into(acc.setdefault(ctx.volume_key(), {}), L_total, u)
    residual = _wrap(ctx, acc)
    return VerificationReport(residual, boundary_zero and residual.is_zero())


def verify_conservation(cs: CSData):
    """The conservation law of the CS model cs along the gauge generator
    xi_C of the symbolic family: for each gauge component in turn (see
    _components), its sigma (see sigma_boundary_term), its part of the
    modified current J - sigma, and its conservation_check along its part
    of xi_C, with the model's Lagrangian L = h0 S.

    Every monomial of xi_C, sigma, J, J - sigma and each residual holds
    exactly one factor xi^r_D, so each splits by r into parts that share no
    monomial: the component r runs with the parameters xi^r e_r and checks
    the part r of the same residuals.  S, L and its Euler-Lagrange
    components, dS and F are the model data of cs, built once per CSData.

    A generator: it yields (report, modified, sigma_terms) for each
    component as the component finishes, its report, its part of the
    modified current J - sigma and the term count of its sigma, and holds
    none of them once it resumes.  sigma is released once J - sigma is
    built, before the check takes d_H(J - sigma).  The law holds iff every
    component's report passes, and it is vacuous iff every one is; the
    caller keeps what it reads of the parts.  The residuals and J - sigma
    are cs.scale times their values."""
    for name, head, xi_C in _components(cs):
        sigma = sigma_boundary_term(cs, name, head, xi_C)
        sigma_terms = sigma.term_count()
        L = _lagrangian(cs)
        acc = add_into(_noether_into({}, L, xi_C), sigma, -1)
        del sigma
        modified = _wrap(cs.ctx, acc)
        del acc
        report = conservation_check(L, xi_C, modified)
        yield report, modified, sigma_terms
        del report, modified
