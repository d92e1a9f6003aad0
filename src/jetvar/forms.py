"""Graded exterior algebra with Poly coefficients on a declared chart.

A chart fixes the ordered list of coordinates whose differentials exist as
generators.  Function symbols (B, xi families) are deliberately NOT chart
coordinates: they have no differentials of their own, and the exterior
derivative turns their variation into dx terms via the formal x-derivative
rule s -> s_{D+lam} dx^lam.  Any other indeterminate off the chart has no
differential, and d raises rather than drop it.

Form terms are keyed by strictly increasing tuples of coordinate
indeterminates; antisymmetry is normalized away at construction time.
"""

from __future__ import annotations

from .errors import AntisymmetryViolation, JetvarError
from .indets import BG, GAUGE, indet_str, with_extra_deriv, x
from .polynomial import Poly, add_dicts, chain_rule, mul_dicts

__all__ = ["Chart", "Form", "wedge", "exterior_d", "contract",
           "lie_derivative_form", "apply_derivation", "map_generators",
           "pullback", "linear_combination"]


class Chart:
    """Ordered coordinate list plus base dimension."""

    __slots__ = ("coords", "n", "coord_set")

    def __init__(self, coords, n: int):
        coords = tuple(sorted(coords))
        if len(set(coords)) != len(coords):
            raise JetvarError("duplicate chart coordinates")
        self.coords = coords
        self.coord_set = frozenset(coords)
        self.n = n

    def __eq__(self, other):
        return isinstance(other, Chart) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)


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
    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int, terms: dict | None = None):
        self.chart = chart
        self.degree = degree
        if terms:
            for dcs in terms:
                if any(dcs[i] >= dcs[i + 1] for i in range(len(dcs) - 1)):
                    raise AntisymmetryViolation(
                        f"generator tuple not strictly increasing: {dcs}")
        self.terms = terms or {}

    @classmethod
    def zero(cls, chart: Chart, degree: int = 0) -> "Form":
        return cls(chart, degree)

    @classmethod
    def from_poly(cls, chart: Chart, p: Poly) -> "Form":
        return cls(chart, 0, {(): p} if p else {})

    @classmethod
    def generator(cls, chart: Chart, c: tuple) -> "Form":
        """The 1-form dc for a chart coordinate c."""
        if c not in chart.coord_set:
            raise JetvarError(f"{indet_str(c)} is not a chart coordinate")
        return cls(chart, 1, {(c,): Poly.const(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return sum(p.term_count() for p in self.terms.values())

    def _check(self, other: "Form"):
        if self.chart != other.chart:
            raise JetvarError("forms live on different charts")

    def __add__(self, other: "Form") -> "Form":
        degree = self.degree if self.terms else other.degree
        return linear_combination(self.chart, degree, ((self, 1), (other, 1)))

    def __sub__(self, other: "Form") -> "Form":
        degree = self.degree if self.terms else other.degree
        return linear_combination(self.chart, degree, ((self, 1), (other, -1)))

    def scale(self, c) -> "Form":
        out = {}
        for d, p in self.terms.items():
            q = p * c
            if q:
                out[d] = q
        return Form(self.chart, self.degree, out)

    def __eq__(self, other):
        return (isinstance(other, Form) and self.chart == other.chart
                and self.terms == other.terms)

    __hash__ = None  # mutable terms dict; identity hashing would mislead

    def coefficient(self, dcs: tuple) -> Poly:
        return self.terms.get(tuple(dcs), Poly.zero())

    def map_coefficients(self, fn) -> "Form":
        out = {}
        for d, p in self.terms.items():
            q = fn(p)
            if q:
                out[d] = q
        return Form(self.chart, self.degree, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for dcs in sorted(self.terms):
            p = self.terms[dcs]
            if dcs:
                gens = "∧".join("d" + indet_str(c) for c in dcs)
                parts.append(f"({p}) {gens}")
            else:
                parts.append(f"({p})")
        return " + ".join(parts)

    def __repr__(self):
        return f"Form(deg={self.degree}, {self})"


def _wrap(chart: Chart, degree: int, raw: dict) -> Form:
    """The form whose coefficients are the raw term dicts raw[key]; empty
    dicts are dropped."""
    return Form(chart, degree, {key: Poly(t) for key, t in raw.items() if t})


def linear_combination(chart: Chart, degree: int, pairs) -> Form:
    """The sum of c * a over the (a, c) pairs, c rational, as a form of the
    given degree (a zero a may have any degree), built in one term dict per
    generator tuple.  pairs may be a generator: each a is then dropped once
    it is summed."""
    out: dict = {}
    for a, c in pairs:
        if a.chart != chart:
            raise JetvarError("forms live on different charts")
        if a.terms and a.degree != degree:
            raise JetvarError("degree mismatch in form addition")
        for dcs, p in a.terms.items():
            add_dicts(out.setdefault(dcs, {}), p.terms, c)
    return _wrap(chart, degree, out)


def wedge(a: Form, b: Form) -> Form:
    a._check(b)
    out: dict = {}
    for ta, fa in a.terms.items():
        for tb, fb in b.terms.items():
            merged = _merge_tuples(ta, tb)
            if merged is None:
                continue
            dcs, sign = merged
            mul_dicts(fa.terms, fb.terms, out.setdefault(dcs, {}), sign)
    return _wrap(a.chart, a.degree + b.degree, out)


def differential(a: Form, image) -> Form:
    """d(f dcs) = df ^ dcs for the derivation with dv = image(v).

    image(v) lists (c, lift) pairs meaning dv = sum lift dc over chart
    generators c, where lift is None for 1 or a shared (w, 1) pair for the
    indeterminate w; it is called once per indeterminate per call.  Each
    coefficient is walked once by the chain-rule kernel, and a partial whose
    dc already occurs in dcs is never formed.
    """
    images: dict = {}
    out: dict = {}
    for dcs, f in a.terms.items():
        slots: dict = {}  # c -> (terms of dc ^ dcs, sign), or () when it is 0

        def route(v):
            img = images.get(v)
            if img is None:
                img = images[v] = image(v)
            r = []
            for c, lift in img:
                slot = slots.get(c)
                if slot is None:
                    merged = _merge_tuples((c,), dcs)
                    slot = slots[c] = () if merged is None else (
                        out.setdefault(merged[0], {}), merged[1])
                if slot:
                    r.append((slot[0], slot[1], lift))
            return r

        chain_rule(f.terms, route)
    return _wrap(a.chart, a.degree + 1, out)


def exterior_d(a: Form) -> Form:
    """d by the chain rule: a chart coordinate v gives dv, a function symbol
    s gives s_{D+lam} dx^lam; any other indeterminate raises."""
    chart = a.chart

    def image(v):
        if v in chart.coord_set:
            return ((v, None),)
        if v[0] in (BG, GAUGE):
            return tuple((x(lam), (with_extra_deriv(v, lam), 1))
                         for lam in range(chart.n))
        raise JetvarError(f"d{indet_str(v)} is not a chart differential")

    return differential(a, image)


def contract(X: dict, a: Form) -> Form:
    """Interior product with the vector field of components X: coord -> Poly."""
    if a.degree == 0:
        return Form.zero(a.chart, 0)
    out: dict = {}
    for dcs, f in a.terms.items():
        for j, c in enumerate(dcs):
            comp = X.get(c)
            if not comp:
                continue
            key = dcs[:j] + dcs[j + 1:]
            mul_dicts(comp.terms, f.terms, out.setdefault(key, {}), -1 if j & 1 else 1)
    return _wrap(a.chart, a.degree - 1, out)


def lie_derivative_form(X: dict, a: Form) -> Form:
    """Cartan formula: L_X = X . d + d . X ."""
    return contract(X, exterior_d(a)) + exterior_d(contract(X, a))


def apply_derivation(X: dict, grad: dict) -> Poly:
    """The vector field acting on a scalar f given by its gradient
    f.gradient(): sum X^c partial_c f."""
    out: dict = {}
    for c, df in grad.items():
        comp = X.get(c)
        if comp:
            mul_dicts(comp.terms, df.terms, out)
    return Poly(out)


def map_generators(a: Form, image, coeff=None) -> Form:
    """The algebra map f dc1 ^ ... ^ dcp -> coeff(f) image(c1) ^ ... ^ image(cp).

    image(c) is the 1-form that dc maps to, built once per generator per
    call; coeff maps each coefficient (identity when None).  The images of
    a generator tuple are wedged together first, so each coefficient is
    multiplied once per output key.
    """
    images: dict = {}
    out: dict = {}
    for dcs, f in a.terms.items():
        if coeff is not None:
            f = coeff(f)
        img = None
        for c in dcs:
            ic = images.get(c)
            if ic is None:
                ic = images[c] = image(c)
            img = ic if img is None else wedge(img, ic)
            if img.is_zero():
                break
        if img is None:
            add_dicts(out.setdefault(dcs, {}), f.terms)
        else:
            for key, g in img.terms.items():
                mul_dicts(f.terms, g.terms, out.setdefault(key, {}))
    return _wrap(a.chart, a.degree, out)


def pullback(a: Form, bindings: dict) -> Form:
    """Pull back along the map substituting coordinates by bindings.

    Coefficients get the polynomial substitution; each differential dc
    becomes the exterior derivative of its binding value, so unbound
    coordinates pass through.  A binding may mention its own key and other
    chart coordinates such as t, so the fiber homotopy a -> B + t(a - B) is
    a pullback too: its da becomes t da + (a - B) dt + (1 - t) dB.
    """
    chart = a.chart
    return map_generators(
        a, lambda c: exterior_d(Form.from_poly(chart, bindings.get(c, Poly.var(c)))),
        lambda f: f.substitute(bindings))
