"""Euler-Lagrange operator, first variational formula, Noether currents, the
fiberwise homotopy primitive, and the exact on-shell conservation check."""

from __future__ import annotations

from dataclasses import dataclass, field

from .chern_simons import CSData, cs_form, cs_lagrangian, section_correction
from .errors import (JetvarError, NonzeroResidual, NotClosed, NotInvariant,
                     SigmaMismatch)
from .forms import (Form, apply_derivation, contract, exterior_d,
                    linear_combination, pullback, wedge)
from .indets import (T, conn, indet_str, is_field_jet, multi_index,
                     with_extra_deriv, x)
from .jets import (JetContext, contact_form, horizontal_differential,
                   horizontal_projection, prolong, total_derivative)
from .polynomial import Poly, add_dicts, mul_dicts

__all__ = ["Lagrangian", "Current", "VerificationReport", "euler_lagrange",
           "poincare_cartan", "noether_current", "lie_derivative_lagrangian",
           "first_variational_check", "fiber_homotopy", "sigma_boundary_term",
           "conservation_check", "invariant_sector"]


@dataclass
class VerificationReport:
    name: str
    passed: bool
    residual: str = "0"
    term_counts: dict = field(default_factory=dict)
    vacuous: bool = False   # every term of the checked identity is zero

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


class Lagrangian:
    """First-order horizontal n-form L = density * d^n x."""

    def __init__(self, ctx: JetContext, density: Poly):
        for v in density.indets():
            if is_field_jet(v) and len(multi_index(v)) > 1:
                raise JetvarError(f"Lagrangian is not first-order: {indet_str(v)}")
        self.ctx = ctx
        self.density = density

    @classmethod
    def from_horizontal_form(cls, ctx: JetContext, a: Form) -> "Lagrangian":
        key = tuple(x(lam) for lam in range(ctx.n))
        for dcs in a.terms:
            if dcs != key:
                raise JetvarError("not a horizontal top-degree form")
        return cls(ctx, a.coefficient(key))

    def form(self) -> Form:
        return self.ctx.volume_form(self.density)

    def __add__(self, other: "Lagrangian") -> "Lagrangian":
        return Lagrangian(self.ctx, self.density + other.density)


class Current:
    """Horizontal (n-1)-form J = J^lam omega_lam."""

    def __init__(self, ctx: JetContext, components: list):
        self.ctx = ctx
        self.components = components

    @classmethod
    def zero(cls, ctx: JetContext) -> "Current":
        return cls(ctx, [Poly.zero() for _ in range(ctx.n)])

    @classmethod
    def from_form(cls, ctx: JetContext, a: Form) -> "Current":
        comps = [Poly.zero()] * ctx.n
        for dcs, p in a.terms.items():
            lams = {c[1] for c in dcs}
            if any(c[0] != 0 for c in dcs) or len(dcs) != ctx.n - 1:
                raise JetvarError("not a horizontal (n-1)-form")
            (lam,) = set(range(ctx.n)) - lams
            comps[lam] = p if lam % 2 == 0 else -p
        return cls(ctx, comps)

    def form(self) -> Form:
        ctx = self.ctx
        return linear_combination(ctx.chart, ctx.n - 1, (
            (ctx.omega_lambda(lam, p), 1) for lam, p in enumerate(self.components)))

    def __add__(self, other: "Current") -> "Current":
        return Current(self.ctx, [a + b for a, b in
                                  zip(self.components, other.components)])

    def __sub__(self, other: "Current") -> "Current":
        return Current(self.ctx, [a - b for a, b in
                                  zip(self.components, other.components)])


def euler_lagrange(L: Lagrangian, ctx: JetContext | None = None) -> dict:
    """delta_i = partial_i - d_lam partial^lam_i applied to the density.

    Returns a dict over order-0 field coordinates; values live on J2."""
    ctx = ctx or L.ctx
    grad = L.density.gradient()
    out = {}
    for i in ctx.field_coords(0):
        comp = dict(grad[i].terms) if i in grad else {}
        for lam in range(ctx.n):
            dldj = grad.get(with_extra_deriv(i, lam))
            if dldj:
                add_dicts(comp, total_derivative(dldj, lam, ctx).terms, -1)
        out[i] = Poly(comp)
    return out


def poincare_cartan(L: Lagrangian, ctx: JetContext | None = None) -> Form:
    """H_L = density * omega + partial^lam_i(density) theta^i ^ omega_lam."""
    ctx = ctx or L.ctx
    grad = L.density.gradient()

    def pieces():
        yield L.form(), 1
        for i in ctx.field_coords(0):
            for lam in range(ctx.n):
                dldj = grad.get(with_extra_deriv(i, lam))
                if dldj:
                    yield wedge(contact_form(i, ctx), ctx.omega_lambda(lam, dldj)), 1

    return linear_combination(ctx.chart, ctx.n, pieces())


def noether_current(L: Lagrangian, u: dict, ctx: JetContext | None = None) -> Current:
    """J^lam = u^i partial^lam_i(density) for a vertical order-0 field u."""
    ctx = ctx or L.ctx
    grad = L.density.gradient()
    comps = []
    for lam in range(ctx.n):
        s: dict = {}
        for i, ui in u.items():
            dldj = grad.get(with_extra_deriv(i, lam))
            if dldj:
                mul_dicts(ui.terms, dldj.terms, s)
        comps.append(Poly(s))
    return Current(ctx, comps)


def lie_derivative_lagrangian(L: Lagrangian, u: dict,
                              ctx: JetContext | None = None) -> Form:
    """(u^i partial_i + d_lam u^i partial^lam_i) density * omega."""
    ctx = ctx or L.ctx
    ju = prolong(u, ctx, order=1)
    scalar = apply_derivation(ju, L.density)
    return ctx.volume_form(scalar)


def _el_term(L: Lagrangian, u: dict, ctx: JetContext) -> Form:
    el = euler_lagrange(L, ctx)
    s: dict = {}
    for i, ui in u.items():
        if el.get(i):
            mul_dicts(ui.terms, el[i].terms, s)
    return ctx.volume_form(Poly(s))


def first_variational_check(L: Lagrangian, u: dict,
                            ctx: JetContext | None = None) -> VerificationReport:
    """Residual of L_{J1u}L - u.deltaL - d_H(J_u); passes iff exactly zero."""
    ctx = ctx or L.ctx
    lie = lie_derivative_lagrangian(L, u, ctx)
    el = _el_term(L, u, ctx)
    bdry = horizontal_differential(noether_current(L, u, ctx).form(), ctx)
    residual = lie - el - bdry
    return VerificationReport(
        name="first_variational",
        passed=residual.is_zero(),
        residual=str(residual),
        term_counts={"lie": lie.term_count(), "residual": residual.term_count()},
    )


# -- homotopy primitive and the boundary term --------------------------


def fiber_homotopy(omega: Form, cs: CSData) -> Form:
    """Primitive psi with d(psi) = omega, via the fiberwise scaling homotopy
    centered at the background section a = B.

    Raises NotClosed when d(omega) != 0 and NonzeroResidual when the homotopy
    leaves a boundary piece (omega restricted to the section is nonzero)."""
    if not exterior_d(omega).is_zero():
        raise NotClosed("fiber_homotopy needs a closed form")
    homotopy = {conn(r, mu): cs.interp_poly(r, mu)
                for r in range(cs.algebra.dim) for mu in range(cs.n)}
    pulled = pullback(omega, homotopy)
    psi = contract({T: Poly.const(1)}, pulled).map_coefficients(
        lambda p: p.integrate_t())
    residual = omega - exterior_d(psi)
    if not residual.is_zero():
        raise NonzeroResidual(
            f"homotopy residual has {residual.term_count()} terms: {residual}")
    return psi


def sigma_boundary_term(cs: CSData, xi_C: dict, params: list | None = None,
                        S: Form | None = None,
                        L: Lagrangian | None = None) -> Form:
    """sigma = h0(psi + xi_C . S(B)) with d(psi) = xi_C . d S(B).

    For a symbolic background the scaling homotopy leaves the section
    restriction of xi_C . P_2k(F); its explicit primitive chi is added before
    integrating, so the combined psi is an exact primitive.  Post-verified:
    d_H sigma equals the Lie derivative of the CS Lagrangian along J1 xi_C.
    S and its Lagrangian L = h0 S are built here unless the caller has them."""
    ctx = cs.ctx
    if S is None:
        S = cs_form(cs)
    if L is None:
        L = Lagrangian.from_horizontal_form(ctx, horizontal_projection(S, ctx))
    dS = exterior_d(S)
    omega = contract(xi_C, dS)
    chi = section_correction(cs, params)
    psi = fiber_homotopy(omega - exterior_d(chi), cs) + chi
    sigma = horizontal_projection(psi + contract(xi_C, S), ctx)
    lie = lie_derivative_lagrangian(L, xi_C, ctx)
    if not (horizontal_differential(sigma, ctx) - lie).is_zero():
        raise SigmaMismatch("d_H sigma != Lie derivative of the CS Lagrangian")
    return sigma


def conservation_check(L_total: Lagrangian, u: dict, sigma: Form,
                       ctx: JetContext | None = None,
                       name: str = "conservation") -> tuple:
    """Strong rendering of the weak conservation law:
    d_H(J_u - sigma) + u^i delta_i(density) omega = 0 exactly.

    Returns (report, modified current form J - sigma)."""
    ctx = ctx or L_total.ctx
    J = noether_current(L_total, u, ctx)
    modified = J.form() - sigma
    boundary = horizontal_differential(modified, ctx)
    el = _el_term(L_total, u, ctx)
    residual = boundary + el
    report = VerificationReport(
        name=name,
        passed=residual.is_zero(),
        residual=str(residual),
        term_counts={"current": modified.term_count(),
                     "residual": residual.term_count()},
        vacuous=boundary.is_zero() and el.is_zero(),
    )
    return report, modified


def invariant_sector(L_inv: Lagrangian, matter_variation: dict, xi_C: dict,
                     cs: CSData, sigma: Form) -> tuple:
    """Adds a gauge-invariant Lagrangian to the CS one and re-runs the law.

    matter_variation maps order-0 matter coordinates to their linear-in-xi
    variation polynomials.  Raises NotInvariant when L_inv fails invariance
    under the combined field."""
    ctx = cs.ctx
    u_total = dict(xi_C)
    u_total.update(matter_variation)
    lie_inv = lie_derivative_lagrangian(L_inv, u_total, ctx)
    if not lie_inv.is_zero():
        raise NotInvariant(f"L_inv is not gauge-invariant: {lie_inv}")
    L_cs = Lagrangian.from_horizontal_form(ctx, cs_lagrangian(cs))
    report, modified = conservation_check(L_cs + L_inv, u_total, sigma, ctx,
                                          name="conservation_with_matter")
    return report, modified
