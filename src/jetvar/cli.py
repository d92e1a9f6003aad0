"""Command-line front end: config parsing, dispatch, deterministic output.

stdout carries only the verification text (byte-deterministic for a fixed
config and seed); timings and diagnostics go to stderr.  Exit codes:
0 all checks pass, 1 a verification failed, 2 configuration or usage error,
3 term-expansion cap exceeded (env JETVAR_MAX_TERMS).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from .algebra import (InvariantTensor, LieAlgebraData, builtin_algebra,
                      builtin_invariant, check_invariant_tensor,
                      gauge_generator, load_lie_algebra)
from .chern_simons import (CSData, characteristic_at_B, characteristic_form,
                           cs_form, cs_lagrangian)
from .errors import (AntisymmetryViolation, ConfigError, JacobiViolation,
                     JetvarError, TermLimitExceeded)
from .forms import Form, exterior_d
from .indets import indet_str
from .jets import JetContext, horizontal_differential, horizontal_projection
from .polynomial import Poly
from .random_inputs import random_density, random_vertical_field
from .variational import (Current, Lagrangian, conservation_check,
                          euler_lagrange, first_variational_check,
                          lie_derivative_lagrangian, noether_current,
                          sigma_boundary_term)

TRUNCATE_AT = 40
CONFIG_KEYS = frozenset({"algebra", "invariant", "k", "background", "h",
                         "jet_order", "gauge_params", "selftest_instances",
                         "dimensions"})


# -- config ------------------------------------------------------------


def parse_rational(v, where: str) -> Fraction:
    if isinstance(v, bool):
        raise ConfigError(f"{where}: expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{where}: bad rational {v!r}: {exc}") from exc
    # exactness forbids floats in configs
    raise ConfigError(f"{where}: rationals must be ints or 'p/q' strings, "
                      f"got {type(v).__name__}")


def config_int(v, least: int, what: str) -> int:
    """v when it is an int >= least; a JSON true is not the int 1."""
    if type(v) is not int or v < least:
        raise ConfigError(f"{what} must be an integer >= {least}")
    return v


def config_indices(idx: list, dim: int, where: str) -> tuple:
    """idx as a tuple of algebra indices in 0..dim-1."""
    if not all(type(j) is int for j in idx):
        raise ConfigError(f"{where}: indices must be ints")
    if not all(0 <= j < dim for j in idx):
        raise ConfigError(f"{where}: index out of range 0..{dim - 1}: {idx}")
    return tuple(idx)


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown key {', '.join(map(repr, unknown))}")
    return cfg


def config_algebra(cfg: dict) -> LieAlgebraData:
    spec = cfg.get("algebra")
    if spec is None:
        raise ConfigError("missing key 'algebra'")
    if isinstance(spec, str):
        try:
            return builtin_algebra(spec)
        except JetvarError as exc:
            raise ConfigError(str(exc)) from exc
    if isinstance(spec, dict):
        dim = config_int(spec.get("dim"), 1, "algebra.dim")
        rows = spec.get("constants", [])
        if not isinstance(rows, list):
            raise ConfigError("algebra.constants must be an array")
        quads = []
        for i, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == 4):
                raise ConfigError(f"algebra.constants[{i}] must be [r, p, q, value]")
            where = f"algebra.constants[{i}]"
            quads.append(config_indices(row[:3], dim, where)
                         + (parse_rational(row[3], where),))
        return load_lie_algebra(dim, quads)
    raise ConfigError("algebra must be a name or an object")


def config_invariant(cfg: dict, g: LieAlgebraData, k: int) -> tuple:
    """Returns (tensor, name or None)."""
    spec = cfg.get("invariant", "killing" if k == 2 else None)
    if spec is None:
        raise ConfigError("missing key 'invariant'")
    if isinstance(spec, str):
        try:
            return builtin_invariant(spec, g, k), spec.strip().lower()
        except JetvarError as exc:
            raise ConfigError(str(exc)) from exc
    if isinstance(spec, dict):
        degree = config_int(spec.get("degree", k), 1, "invariant.degree")
        rows = spec.get("entries", [])
        if not isinstance(rows, list):
            raise ConfigError("invariant.entries must be an array")
        entries = {}
        for i, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == 2
                    and isinstance(row[0], list)):
                raise ConfigError(f"invariant.entries[{i}] must be [[indices], value]")
            where = f"invariant.entries[{i}]"
            idx = config_indices(row[0], g.dim, where)
            entries[idx] = parse_rational(row[1], where)
        try:
            return InvariantTensor(degree, entries), None
        except JetvarError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError("invariant must be a name or an object")


def build_model(cfg: dict) -> tuple:
    """Returns (CSData, invariant tensor name or None)."""
    g = config_algebra(cfg)
    k = config_int(cfg.get("k"), 2, "k")
    inv, inv_name = config_invariant(cfg, g, k)
    background = cfg.get("background", "symbolic")
    if background not in ("zero", "symbolic"):
        raise ConfigError("background must be 'zero' or 'symbolic'")
    h = parse_rational(cfg.get("h", 1), "h")
    jet_order = config_int(cfg.get("jet_order", 3), 2, "jet_order")
    ctx = JetContext(2 * k - 1, g.dim, jet_order=jet_order)
    try:
        return CSData(g, inv, k, background=background, h=h, ctx=ctx), inv_name
    except JetvarError as exc:
        raise ConfigError(str(exc)) from exc


def config_gauge_params(cfg: dict, cs: CSData) -> tuple:
    """Returns (xi_C dict, explicit params list or None)."""
    mode = cfg.get("gauge_params", "symbolic")
    if mode == "symbolic":
        return gauge_generator(cs.algebra, cs.ctx), None
    if mode == "zero":
        params = [Poly.zero() for _ in range(cs.algebra.dim)]
        return gauge_generator(cs.algebra, cs.ctx, params=params), params
    raise ConfigError("gauge_params must be 'symbolic' or 'zero'")


# -- output helpers ----------------------------------------------------


class Dump:
    def __init__(self, path: str | None):
        self.path = path
        self._fh = None

    def write(self, label: str, text: str):
        if self.path is None:
            return
        if self._fh is None:
            self._fh = open(self.path, "w")
        self._fh.write(f"## {label}\n{text}\n")

    def close(self):
        if self._fh is not None:
            self._fh.close()


def emit(line: str = ""):
    print(line)


def note(line: str):
    print(line, file=sys.stderr)


def show_poly(label: str, p: Poly, dump: Dump):
    text = str(p)
    parts = text.split(" + ")
    if len(parts) > TRUNCATE_AT:
        shown = " + ".join(parts[:TRUNCATE_AT])
        emit(f"{label} = {shown} + ... ({len(parts) - TRUNCATE_AT} more terms"
             f"{'' if dump.path else '; pass --dump for the full expression'})")
    else:
        emit(f"{label} = {text}")
    dump.write(label, text)


def show_form(label: str, a: Form, dump: Dump):
    text = str(a)
    n = a.term_count()
    if n > TRUNCATE_AT:
        emit(f"{label}: {n} terms (truncated"
             f"{'' if dump.path else '; pass --dump for the full expression'})")
        emit("  " + text[:2000])
    else:
        emit(f"{label} = {text}")
    dump.write(label, text)


VACUOUS = " (vacuous: every term is zero)"


def report_line(name: str, passed: bool, vacuous: bool = False) -> bool:
    """One verdict line; a pass on all-zero terms says it proves nothing."""
    emit(f"[{'PASS' if passed else 'FAIL'}] {name}"
         f"{VACUOUS if passed and vacuous else ''}")
    return passed


def fails_invariance(cs: CSData) -> bool:
    """Reports a non-ad-invariant tensor by name, for the commands that
    cannot proceed without one."""
    if cs.invariance_residual:
        report_line("invariant tensor ad-invariance", False)
        return True
    return False


# -- subcommands -------------------------------------------------------


def cmd_check_algebra(args) -> int:
    cfg = load_config(args.config)
    k = config_int(cfg.get("k", 2), 2, "k")
    try:
        g = config_algebra(cfg)
    except (AntisymmetryViolation, JacobiViolation) as exc:
        emit(f"[FAIL] structure constants: {exc}")
        return 1
    inv, _ = config_invariant(cfg, g, k)
    residual = check_invariant_tensor(g, inv)
    emit(f"algebra: dim {g.dim}, {len(g.c)} nonzero structure constants")
    report_line("antisymmetry c^r_pq = -c^r_qp", True)
    report_line("Jacobi identity", True)
    ok = report_line(f"invariant tensor ad-invariance (degree {inv.degree})",
                     not residual)
    if residual:
        for key in sorted(residual)[:TRUNCATE_AT]:
            emit(f"  residual at {key}: {residual[key]}")
    return 0 if ok else 1


def cmd_transgression(args) -> int:
    cfg = load_config(args.config)
    cs, _ = build_model(cfg)
    t0 = time.perf_counter()
    P = characteristic_form(cs)
    PB = characteristic_at_B(cs)
    S = cs_form(cs)
    dS = exterior_d(S)
    residual = dS - (P - PB)
    elapsed = time.perf_counter() - t0
    dump = Dump(args.dump)
    emit(f"characteristic form: {P.term_count()} terms")
    emit(f"characteristic form at the background section: {PB.term_count()} terms")
    emit(f"transgression form: {S.term_count()} terms")
    ok = report_line("d(transgression form) = P(F) - P(F_B)", residual.is_zero(),
                     dS.is_zero() and P.is_zero() and PB.is_zero())
    if not residual.is_zero():
        show_form("residual", residual, dump)
    inv_ok = report_line("invariant tensor ad-invariance",
                         not cs.invariance_residual)
    note(f"transgression check: {elapsed:.2f}s")
    dump.close()
    return 0 if ok and inv_ok else 1


def _el_components(cs: CSData) -> dict:
    L = Lagrangian.from_horizontal_form(cs.ctx, cs_lagrangian(cs))
    return euler_lagrange(L, cs.ctx)


def cmd_euler_lagrange(args) -> int:
    cfg = load_config(args.config)
    cs, _ = build_model(cfg)
    if fails_invariance(cs):
        return 1
    dump = Dump(args.dump)
    t0 = time.perf_counter()
    el = _el_components(cs)
    for i in sorted(el):
        show_poly(f"delta L / delta {indet_str(i)}", el[i], dump)
    ok = True
    if args.compare_background:
        cfg0 = dict(cfg)
        cfg0["background"] = "zero"
        cs0, _ = build_model(cfg0)
        el0 = _el_components(cs0)
        diff_zero = True
        for i in sorted(el):
            d = el[i] - el0[i]
            if d:
                diff_zero = False
                show_poly(f"background difference at {indet_str(i)}", d, dump)
        ok = report_line("Euler-Lagrange operator is background-independent",
                         diff_zero, not any(el.values()))
    note(f"euler-lagrange: {time.perf_counter() - t0:.2f}s")
    dump.close()
    return 0 if ok else 1


def cmd_noether(args) -> int:
    cfg = load_config(args.config)
    cs, _ = build_model(cfg)
    if fails_invariance(cs):
        return 1
    dump = Dump(args.dump)
    t0 = time.perf_counter()
    L = Lagrangian.from_horizontal_form(cs.ctx, cs_lagrangian(cs))
    xi_C, _ = config_gauge_params(cfg, cs)
    J = noether_current(L, xi_C, cs.ctx)
    for lam, comp in enumerate(J.components):
        show_poly(f"J^{lam}", comp, dump)
    lie = lie_derivative_lagrangian(L, xi_C, cs.ctx)
    show_form("Lie derivative of the Lagrangian", lie, dump)
    note(f"noether: {time.perf_counter() - t0:.2f}s")
    dump.close()
    return 0


def _display_diff_3d(cs: CSData, modified: Form, dump: Dump) -> bool:
    """Term-by-term comparison of the k=2 Killing-tensor current against the
    hand-expanded display, reporting the convention difference in closed form."""
    from .reference3d import (current_discrepancy_primitive,
                              modified_current_components_3d)
    ctx = cs.ctx
    got = Current.from_form(ctx, modified)
    want = modified_current_components_3d(cs.algebra, cs.h)
    all_match = True
    for lam in range(3):
        d = got.components[lam] - want[lam]
        if d:
            all_match = False
            show_poly(f"difference from the displayed current at component {lam}",
                      d, dump)
    if all_match:
        report_line("modified current matches the displayed 3D formula "
                    "term-by-term", True, not any(want))
        return True
    diff = (got - Current(ctx, want)).form()
    prim = current_discrepancy_primitive(cs.algebra, cs.h, ctx)
    exact = (diff - horizontal_differential(prim, ctx)).is_zero()
    report_line("difference from the displayed current is d_H-exact", exact)
    if exact:
        emit("closed-form difference: d_H of")
        show_form("primitive", prim, dump)
        emit("(a homotopy-convention shift; both currents obey the "
             "conservation law)")
    return exact


def cmd_verify_conservation(args) -> int:
    cfg = load_config(args.config)
    cs, inv_name = build_model(cfg)
    if fails_invariance(cs):
        return 1
    dump = Dump(args.dump)
    t0 = time.perf_counter()
    S = cs_form(cs)
    L = Lagrangian.from_horizontal_form(cs.ctx, horizontal_projection(S, cs.ctx))
    xi_C, params = config_gauge_params(cfg, cs)
    sigma = sigma_boundary_term(cs, xi_C, params=params, S=S, L=L)
    report, modified = conservation_check(L, xi_C, sigma, cs.ctx)
    ok = report_line("d_H(J - sigma) + u.(delta L) = 0", report.passed,
                     report.vacuous)
    if not report.passed:
        emit(f"residual ({report.term_counts['residual']} terms):")
        emit("  " + report.residual[:2000])
        dump.write("residual", report.residual)
    comps = Current.from_form(cs.ctx, modified)
    for lam, comp in enumerate(comps.components):
        show_poly(f"modified current component {lam}", comp, dump)
    if cs.k == 2 and inv_name == "killing" and params is None:
        ok &= _display_diff_3d(cs, modified, dump)
    note(f"verify-conservation: {time.perf_counter() - t0:.2f}s")
    dump.close()
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    instances = config_int(cfg.get("selftest_instances", 100), 1,
                           "selftest_instances")
    dims = cfg.get("dimensions", [1, 2, 3])
    if not (isinstance(dims, list) and dims
            and all(type(d) is int and d >= 1 for d in dims)):
        raise ConfigError("dimensions must be a nonempty array of positive ints")
    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    failures = 0
    per_n = {n: 0 for n in dims}
    ctxs = {n: JetContext(n, 2, matter_dim=1, jet_order=2) for n in dims}
    for i in range(instances):
        n = dims[i % len(dims)]
        ctx = ctxs[n]
        L = Lagrangian(ctx, random_density(ctx, rng))
        u = random_vertical_field(ctx, rng)
        rep = first_variational_check(L, u, ctx)
        per_n[n] += 1
        if not rep.passed:
            failures += 1
            emit(f"[FAIL] instance {i} (n={n}): residual {rep.residual}")
    for n in dims:
        emit(f"n={n}: {per_n[n]} instances")
    report_line(f"first variational formula on {instances} random instances "
                f"(seed {args.seed})", failures == 0)
    note(f"selftest: {time.perf_counter() - t0:.2f}s")
    return 0 if failures == 0 else 1


# -- entry point -------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jetvar",
        description="Exact verification of Chern-Simons conservation laws")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, config_required=True):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=config_required,
                        help="path to a JSON run configuration")
        sp.add_argument("--dump", help="write untruncated expressions to this file")
        sp.add_argument("--seed", type=int, default=0,
                        help="RNG seed for randomized commands")
        sp.set_defaults(fn=fn)
        return sp

    add("check-algebra", cmd_check_algebra,
        "validate structure constants and the invariant tensor")
    add("transgression", cmd_transgression,
        "verify d(transgression form) = P(F) - P(F_B)")
    el = add("euler-lagrange", cmd_euler_lagrange,
             "print the Euler-Lagrange components of the CS Lagrangian")
    el.add_argument("--compare-background", action="store_true",
                    help="also check the symbolic-vs-zero background difference")
    add("noether", cmd_noether,
        "print the gauge Noether current of the CS Lagrangian")
    add("verify-conservation", cmd_verify_conservation,
        "verify the conservation law of the modified current")
    add("first-variational-selftest", cmd_selftest,
        "random-instance check of the first variational formula",
        config_required=False)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except TermLimitExceeded as exc:
        note(f"term limit exceeded: {exc}")
        return 3
    except ConfigError as exc:
        note(f"config error: {exc}")
        return 2
    except JetvarError as exc:
        emit(f"[FAIL] {type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
