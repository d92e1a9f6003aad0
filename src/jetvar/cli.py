"""Command-line front end: dispatch and deterministic output.

stdout carries only the verification text (byte-deterministic for a fixed
config and seed); timings and diagnostics go to stderr.  Every check runs on
integral multiples of its inputs: a model's forms are cs.scale times their
values (see chern_simons), and the self-test checks N_L L along M u for the
least common denominators N_L of the density and M of the field.  A
coefficient is divided by that scale only where it is printed or dumped.

Exit codes: 0 all checks pass, 1 a verification failed, 2 configuration or
usage error, 3 a resource cap was exceeded: the term cap (env
JETVAR_MAX_TERMS, read once per run before the subcommand; a malformed cap
exits 2) or memory, 141 (128 + SIGPIPE, as a shell reports a process that
SIGPIPE ended) stdout was closed before the output was written, as by
`| head`: no verdict.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import resource
import sys
import time
from collections import Counter

from .algebra import check_invariant_tensor, gauge_generator
from .chern_simons import (CSData, characteristic_at_B, characteristic_form,
                           cs_form)
from .config import (SELFTEST, algebra_and_tensor, build_model, load_config,
                     selftest_options)
from .errors import (AntisymmetryViolation, ConfigError, JacobiViolation,
                     JetvarError, TermLimitExceeded)
from .forms import Form, _wrap, add_into, exterior_d_into, is_empty
from .indets import indet_str
from .jets import JetContext, horizontal_differential_into
from .polynomial import Poly, integral_multiple, max_terms, set_max_terms
from .random_inputs import random_density, random_vertical_field
from .variational import (Lagrangian, _lagrangian, euler_lagrange,
                          first_variational_check, lie_derivative_lagrangian,
                          noether_current, verify_conservation)

TRUNCATE_AT = 40
# characters of a truncated form that are printed
PREVIEW_CHARS = 2000


# -- output helpers ----------------------------------------------------


def write_dump(dump, label: str, text: str):
    """Write an untruncated expression to dump, the open --dump file or
    None."""
    if dump:
        dump.write(f"## {label}\n{text}\n")


def emit(line: str = ""):
    print(line)


def note(line: str):
    print(line, file=sys.stderr)


def show_poly(label: str, p: Poly, dump, den: int = 1,
              n: int | None = None):
    """Print p / den, truncated, and dump it whole.  p may hold only the
    first TRUNCATE_AT terms (see Poly.leading) of a Poly of n terms, unless
    there is a dump; n defaults to p's own term count."""
    n = n or p.term_count()
    if n > TRUNCATE_AT:
        emit(f"{label} = {p.leading(TRUNCATE_AT).render(den=den)} + ... "
             f"({n - TRUNCATE_AT} more "
             f"terms{'' if dump else '; pass --dump for the full expression'})")
    else:
        emit(f"{label} = {p.render(den=den)}")
    if dump:
        write_dump(dump, label, p.render(den=den))


def show_form(label: str, a: Form, dump, den: int = 1):
    """Print a / den, truncated, and dump it whole."""
    n = a.term_count()
    # without --dump a truncated form is rendered only as far as it is printed
    text = a.render(PREVIEW_CHARS if n > TRUNCATE_AT and not dump else None,
                    den)
    if n > TRUNCATE_AT:
        emit(f"{label}: {n} terms (truncated"
             f"{'' if dump else '; pass --dump for the full expression'})")
        emit("  " + text[:PREVIEW_CHARS])
    else:
        emit(f"{label} = {text}")
    write_dump(dump, label, text)


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


def cmd_check_algebra(args, dump) -> int:
    try:
        g, inv = algebra_and_tensor(load_config(args.config, args.command))
    except (AntisymmetryViolation, JacobiViolation) as exc:
        emit(f"[FAIL] structure constants: {exc}")
        return 1
    residual = check_invariant_tensor(g, inv)
    emit(f"algebra: dim {g.dim}, {len(g.c)} nonzero structure constants")
    report_line("antisymmetry c^r_pq = -c^r_qp", True)
    report_line("Jacobi identity", True)
    ok = report_line(f"invariant tensor ad-invariance (degree {inv.degree})",
                     not residual, not inv.entries)
    for key in sorted(residual)[:TRUNCATE_AT]:
        emit(f"  residual at {key}: {residual[key]}")
    return 0 if ok else 1


def cmd_transgression(args, dump) -> int:
    cs, _ = build_model(load_config(args.config, args.command))
    t0 = time.perf_counter()
    P = characteristic_form(cs)
    PB = characteristic_at_B(cs)
    S = cs_form(cs)
    # dS - (P - PB), in one accumulator
    acc = add_into(add_into(exterior_d_into({}, S), P, -1), PB)
    residual = _wrap(cs.ctx, acc)
    elapsed = time.perf_counter() - t0
    emit(f"characteristic form: {P.term_count()} terms")
    emit(f"characteristic form at the background section: {PB.term_count()} terms")
    emit(f"transgression form: {S.term_count()} terms")
    ok = report_line("d(transgression form) = P(F) - P(F_B)", residual.is_zero(),
                     P.is_zero() and PB.is_zero())
    if not residual.is_zero():
        show_form("residual", residual, dump, cs.scale)
    inv_ok = report_line("invariant tensor ad-invariance",
                         not cs.invariance_residual, not cs.invariant.entries)
    note(f"transgression check: {elapsed:.2f}s")
    return 0 if ok and inv_ok else 1


def cmd_euler_lagrange(args, dump) -> int:
    cfg = load_config(args.config, args.command)
    cs, _ = build_model(cfg)
    if fails_invariance(cs):
        return 1
    t0 = time.perf_counter()
    el = euler_lagrange(_lagrangian(cs))
    scale = cs.scale
    del cs   # frees the model data that cs holds before cs0 builds its own
    for i in sorted(el):
        show_poly(f"delta L / delta {indet_str(i)}", el[i], dump, scale)
    ok = True
    if args.compare_background:
        cs0, _ = build_model({**cfg, "background": "zero"})
        # the scale depends on h * b and k alone, so both sides share it
        el0 = euler_lagrange(_lagrangian(cs0))
        diff_zero = True
        for i in sorted(el):
            d = el[i] - el0[i]
            if d:
                diff_zero = False
                show_poly(f"background difference at {indet_str(i)}", d, dump,
                          scale)
        ok = report_line("Euler-Lagrange operator is background-independent",
                         diff_zero, not any(el.values()))
    note(f"euler-lagrange: {time.perf_counter() - t0:.2f}s")
    return 0 if ok else 1


def cmd_noether(args, dump) -> int:
    cs, _ = build_model(load_config(args.config, args.command))
    if fails_invariance(cs):
        return 1
    t0 = time.perf_counter()
    L = _lagrangian(cs)
    xi_C = gauge_generator(cs.algebra, cs.ctx)
    J = noether_current(L, xi_C)
    for lam, comp in enumerate(cs.ctx.current_components(J)):
        show_poly(f"J^{lam}", comp, dump, cs.scale)
    lie = lie_derivative_lagrangian(L, xi_C)
    show_form("Lie derivative of the Lagrangian", lie, dump, cs.scale)
    note(f"noether: {time.perf_counter() - t0:.2f}s")
    return 0


def _display_diff_3d(cs: CSData, modified: Form, dump) -> bool:
    """Term-by-term comparison of the k=2 Killing-tensor current against the
    hand-expanded display, reporting the convention difference in closed form.
    modified is cs.scale times its value, and both displays are linear in h,
    so they are built at cs.scale h and each difference printed divided by
    cs.scale."""
    from .reference3d import (current_discrepancy_primitive,
                              modified_current_components_3d)
    ctx = cs.ctx
    scale = cs.scale
    got = ctx.current_components(modified)
    want = modified_current_components_3d(cs.algebra, cs.h * scale)
    all_match = True
    for lam in range(3):
        d = got[lam] - want[lam]
        if d:
            all_match = False
            show_poly(f"difference from the displayed current at component {lam}",
                      d, dump, scale)
    if all_match:
        report_line("modified current matches the displayed 3D formula "
                    "term-by-term", True, not any(want))
        return True
    prim = current_discrepancy_primitive(cs.algebra, cs.h * scale, ctx)
    # modified - want - d_H prim, in one accumulator
    acc = add_into(add_into({}, modified), ctx.current_form(want), -1)
    exact = is_empty(horizontal_differential_into(acc, prim, -1))
    report_line("difference from the displayed current is d_H-exact", exact)
    if exact:
        emit("closed-form difference: d_H of")
        show_form("primitive", prim, dump, scale)
        emit("(a homotopy-convention shift; both currents obey the "
             "conservation law)")
    return exact


def cmd_verify_conservation(args, dump) -> int:
    cs, inv_name = build_model(load_config(args.config, args.command))
    if fails_invariance(cs):
        return 1
    t0 = time.perf_counter()
    ctx = cs.ctx
    display = cs.k == 2 and inv_name == "killing"
    # The components' parts of J - sigma share no monomial, so the first
    # TRUNCATE_AT terms of their sum lie among the first TRUNCATE_AT of
    # each part, and the term counts add: of each part only those terms are
    # kept, unless the dump or the display check reads every term.
    whole = dump or display
    residual = {}
    current = {}
    counts = Counter()
    vacuous = True
    sizes = []
    for report, modified, sigma_terms in verify_conservation(cs):
        sizes.append(sigma_terms)
        vacuous &= report.vacuous
        add_into(residual, report.residual)
        counts.update({dcs: p.term_count()
                       for dcs, p in modified.terms.items()})
        if not whole:
            modified = modified.leading(TRUNCATE_AT)
        add_into(current, modified)
        del report, modified   # before the next component is built
    residual = _wrap(ctx, residual)
    ok = report_line("d_H(J - sigma) + u.(delta L) = 0", residual.is_zero(),
                     vacuous)
    if not ok:
        text = residual.render(None if dump else PREVIEW_CHARS, cs.scale)
        emit(f"residual ({residual.term_count()} terms):")
        emit("  " + text[:PREVIEW_CHARS])
        write_dump(dump, "residual", text)
    modified = _wrap(ctx, current)
    for lam, comp in enumerate(ctx.current_components(modified)):
        show_poly(f"modified current component {lam}", comp, dump, cs.scale,
                  counts[ctx.omega_key(lam)])
    if display:
        ok &= _display_diff_3d(cs, modified, dump)
    # the peak resident set size so far, which Linux reports in KiB
    note(f"verify-conservation: {time.perf_counter() - t0:.2f}s, "
         f"{len(sizes)} gauge component{'s' if len(sizes) > 1 else ''}, "
         f"largest sigma {max(sizes)} terms, peak RSS "
         f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    return 0 if ok else 1


def cmd_selftest(args, dump) -> int:
    instances, dims = selftest_options(args.config)
    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    failures = 0
    per_n = {n: 0 for n in dims}
    ctxs = {n: JetContext(n, 2, matter_dim=1) for n in dims}
    for i in range(instances):
        n = dims[i % len(dims)]
        ctx = ctxs[n]
        # the residual is bilinear in the density and the whole field, so
        # it is checked on N_L density and M u, and divided by N_L M to print
        N_L, (density,) = integral_multiple([random_density(ctx, rng)])
        u = random_vertical_field(ctx, rng)
        M, comps = integral_multiple(u.values())
        rep = first_variational_check(Lagrangian(ctx, density),
                                      dict(zip(u, comps)))
        per_n[n] += 1
        if not rep.passed:
            failures += 1
            emit(f"[FAIL] instance {i} (n={n}): residual "
                 f"{rep.residual.render(den=N_L * M)}")
    for n in dims:
        emit(f"n={n}: {per_n[n]} instances")
    report_line(f"first variational formula on {instances} random instances "
                f"(seed {args.seed})", failures == 0)
    note(f"selftest: {time.perf_counter() - t0:.2f}s")
    return 0 if failures == 0 else 1


# -- entry point -------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused: parsing
    fills a fresh namespace and leaves the parser unchanged."""
    p = argparse.ArgumentParser(
        prog="jetvar",
        description="Exact verification of Chern-Simons conservation laws")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, config_required=True, dump=True):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=config_required,
                        help="path to a JSON run configuration")
        if dump:
            sp.add_argument("--dump",
                            help="write untruncated expressions to this file")
        sp.set_defaults(fn=fn, dump=None)
        return sp

    add("check-algebra", cmd_check_algebra,
        "validate structure constants and the invariant tensor", dump=False)
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
    st = add(SELFTEST, cmd_selftest,
             "random-instance check of the first variational formula",
             config_required=False, dump=False)
    st.add_argument("--seed", type=int, default=0,
                    help="seed of the random instances")
    return p


def main(argv=None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # stdout was closed early: point it at devnull, so that the flush at
        # exit writes nowhere instead of raising again (the SIGPIPE note of
        # Python's signal module docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _main(argv) -> int:
    args = _parser().parse_args(argv)
    fh = None
    try:
        set_max_terms(max_terms())
        if args.dump is not None:
            # opening the dump truncates it before the config is read
            try:
                same = os.path.samefile(args.dump, args.config)
            except OSError:   # one of them does not exist
                same = os.path.abspath(args.dump) == os.path.abspath(args.config)
            if same:
                raise ConfigError(
                    f"--dump {args.dump} is the config file {args.config}")
            try:
                fh = open(args.dump, "w")
            except OSError as exc:
                raise ConfigError(f"cannot write dump {args.dump}: {exc}") from exc
        return args.fn(args, fh)
    except TermLimitExceeded as exc:
        note(f"term limit exceeded: {exc}")
        return 3
    except MemoryError:
        pass   # noted below, once the traceback has let its frames' data go
    except ConfigError as exc:
        note(f"config error: {exc}")
        return 2
    except JetvarError as exc:
        emit(f"[FAIL] {type(exc).__name__}: {exc}")
        return 1
    finally:
        if fh is not None:
            fh.close()
    note("out of memory: the run needs more than this process may allocate")
    return 3


if __name__ == "__main__":
    sys.exit(main())
