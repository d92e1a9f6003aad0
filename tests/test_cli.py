"""CLI behavior: byte-deterministic stdout (golden files), exit codes, config
errors, and the term cap."""

import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jetvar import cli
from jetvar.config import (CONFIG_KEYS, MAX_DIM, MAX_K, MAX_N, build_model,
                            load_config, parse_rational)
from jetvar.errors import ConfigError
from jetvar.variational import verify_conservation
import oracles

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = ROOT / "configs"
TEST_CONFIGS = Path(__file__).resolve().parent / "configs"
# h = 0 scales every CS object to zero, so each identity holds vacuously
SU2_H0 = TEST_CONFIGS / "su2_k2_h0.json"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "jetvar.cli", *args],
                          capture_output=True, text=True, env=env, cwd=ROOT)


GOLDEN_CASES = [
    ("check_algebra_su2.txt", ["check-algebra", "--config",
                               str(CONFIGS / "su2_k2.json")], 0),
    ("transgression_su2_k2.txt", ["transgression", "--config",
                                  str(CONFIGS / "su2_k2.json")], 0),
    ("euler_lagrange_u1_k2.txt", ["euler-lagrange", "--config",
                                  str(CONFIGS / "u1_k2.json"),
                                  "--compare-background"], 0),
    ("noether_u1_k2.txt", ["noether", "--config", str(CONFIGS / "u1_k2.json")],
     0),
    # Lie derivatives of more than TRUNCATE_AT terms: printed through the
    # width-truncated preview of show_form
    *((f"noether_{model}.txt",
       ["noether", "--config", str(CONFIGS / f"{model}.json")], 0)
      for model in ("u1_k3", "su2_k2")),
    ("verify_conservation_u1_k2.txt", ["verify-conservation", "--config",
                                       str(CONFIGS / "u1_k2.json")], 0),
    ("verify_conservation_su2_k2.txt", ["verify-conservation", "--config",
                                        str(CONFIGS / "su2_k2.json")], 0),
    ("transgression_su2_k2_h0.txt", ["transgression", "--config", str(SU2_H0)],
     0),
    ("verify_conservation_su2_k2_h0.txt", ["verify-conservation", "--config",
                                           str(SU2_H0)], 0),
    ("euler_lagrange_su2_k2_h0.txt", ["euler-lagrange", "--config", str(SU2_H0),
                                      "--compare-background"], 0),
    ("verify_conservation_u1su2_k3.txt", ["verify-conservation", "--config",
                                          str(CONFIGS / "u1su2_k3.json")], 0),
    # the 7D frontier case
    ("verify_conservation_u1_k4.txt", ["verify-conservation", "--config",
                                       str(TEST_CONFIGS / "u1_k4.json")], 0),
    # h = 1/3: every coefficient goes through the one division by the
    # common denominator of the t-integral and the tensor
    *((f"{cmd.replace('-', '_')}_{model}_h1_3.txt",
       [cmd, "--config", str(TEST_CONFIGS / f"{model}_h1_3.json")], 0)
      for model in ("su2_k2", "u1su2_k3")
      for cmd in ("transgression", "verify-conservation")),
    # non-abelian k = 4 at the zero background: three curvature slots, with
    # the integral tensor sym(delta delta) x 3 and its 1/3 twin
    *((f"{cmd.replace('-', '_')}_su2_k4_zero_{tensor}.txt",
       [cmd, "--config", str(TEST_CONFIGS / f"su2_k4_zero_{tensor}.json")], 0)
      for tensor in ("x3", "1_3")
      for cmd in ("transgression", "verify-conservation")),
    # the two algebra negatives: the first failing Jacobi index, and the
    # residual entries of a non-invariant tensor
    ("check_algebra_jacobi_violation.txt", [
        "check-algebra", "--config", str(TEST_CONFIGS / "jacobi_violation.json")],
     1),
    ("check_algebra_su2_unit.txt", ["check-algebra", "--config",
                                    str(TEST_CONFIGS / "su2_unit.json")], 1),
    # the self-test's random instances: a changed generator or operator
    # that checks other instances shows here
    ("first_variational_selftest_seed7.txt", [
        "first-variational-selftest", "--seed", "7", "--config",
        str(CONFIGS / "selftest.json")], 0),
]


def test_every_golden_file_is_a_golden_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == \
        sorted(g for g, _, _ in GOLDEN_CASES)


def test_every_frontier_file_is_named_in_the_workflow():
    # the frontier probes take a minute or more each, so CI runs them and
    # diffs their stdout; a file there that CI does not name goes stale
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    names = [p.name for p in (ROOT / "tests" / "frontier").iterdir()]
    assert names
    assert [n for n in names if f"tests/frontier/{n}" not in workflow] == []


@pytest.mark.parametrize("golden,args,code", GOLDEN_CASES,
                         ids=[g for g, _, _ in GOLDEN_CASES])
def test_stdout_matches_golden_file(golden, args, code):
    r = run_cli(*args)
    assert r.returncode == code, r.stderr
    assert r.stdout == (GOLDEN / golden).read_text()


# Interns the indeterminates listed in argv[1] in reverse sorted order before
# the run, so monomial ids sort opposite to the indeterminates they stand for.
REVERSED_INTERN = """\
import json, sys
from jetvar import cli, polynomial
indets = sorted(map(tuple, json.loads(sys.argv[1])), reverse=True)
for v in indets:
    polynomial.Poly.var(v)
assert [polynomial._IDS[v] for v in indets] == sorted(polynomial._IDS[v] for v in indets)
sys.exit(cli.main(sys.argv[2:]))
"""
LIST_INDETS = """\
import contextlib, io, json, sys
from jetvar import cli, polynomial
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print(json.dumps(polynomial._INDETS))
"""


# the 5D headline config is where lifted monomials sort their lift between
# other factors the most
@pytest.mark.parametrize("model", ["su2_k2", "u1su2_k3"])
def test_stdout_does_not_depend_on_intern_order(model):
    args = ["verify-conservation", "--config", str(CONFIGS / f"{model}.json")]
    listed = subprocess.run([sys.executable, "-c", LIST_INDETS, *args],
                            capture_output=True, text=True, cwd=ROOT, check=True)
    assert len(json.loads(listed.stdout)) > 100
    r = subprocess.run([sys.executable, "-c", REVERSED_INTERN, listed.stdout, *args],
                       capture_output=True, text=True, cwd=ROOT)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / f"verify_conservation_{model}.txt").read_text()


def test_selftest_is_deterministic_for_a_seed():
    args = ["first-variational-selftest", "--seed", "42", "--config",
            str(CONFIGS / "selftest.json")]
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert "[PASS]" in a.stdout


def test_selftest_prints_the_residual_of_the_drawn_instance(monkeypatch,
                                                            capsys):
    # a wrong Noether current (twice the right one) fails the instances
    # whose current is nonzero; each is checked as an integral multiple
    # N_L L, M u of the drawn one, and its printed residual is that of the
    # drawn instance
    from jetvar import variational
    from jetvar.jets import JetContext
    from jetvar.polynomial import integral_multiple
    from jetvar.random_inputs import random_density, random_vertical_field
    right = variational.noether_current
    monkeypatch.setattr(variational, "noether_current",
                        lambda L, u: right(L, u).scale(2))
    assert cli.main(["first-variational-selftest", "--seed", "3"]) == 1
    got = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith("[FAIL] instance")]
    rng = random.Random(3)
    want, scaled = [], 0
    for i in range(100):
        n = 1 + i % 3
        ctx = JetContext(n, 2, matter_dim=1)
        density = random_density(ctx, rng)
        L = variational.Lagrangian(ctx, density)
        u = random_vertical_field(ctx, rng)
        rep = variational.first_variational_check(L, u)
        if not rep.passed:
            want.append(f"[FAIL] instance {i} (n={n}): residual {rep.residual}")
            scaled += (integral_multiple([density])[0]
                       * integral_multiple(u.values())[0] > 1)
    assert got == want
    assert scaled > 0


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    r = run_cli("check-algebra", "--config", str(bad))
    assert r.returncode == 2
    assert "line 1" in r.stderr


@pytest.mark.parametrize("cap", ["abc", "0", "-5", "1.5"])
def test_malformed_term_cap_exits_2(cap):
    r = run_cli("transgression", "--config", str(CONFIGS / "su2_k2.json"),
                env_extra={"JETVAR_MAX_TERMS": cap})
    assert r.returncode == 2
    assert "JETVAR_MAX_TERMS must be a positive integer" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["check-algebra", "--config", str(CONFIGS / "su2_k2.json")],
    ["transgression", "--config", str(CONFIGS / "su2_k2.json")],
    ["euler-lagrange", "--config", str(CONFIGS / "u1_k2.json")],
    ["noether", "--config", str(CONFIGS / "u1_k2.json")],
    ["verify-conservation", "--config", str(CONFIGS / "u1_k2.json")],
    ["first-variational-selftest", "--config", str(CONFIGS / "selftest.json")],
], ids=lambda argv: argv[0])
def test_malformed_term_cap_exits_2_before_any_verdict(argv):
    # the cap is read once, before the subcommand, even by one that never
    # reaches the term kernel
    r = run_cli(*argv, env_extra={"JETVAR_MAX_TERMS": "abc"})
    assert r.returncode == 2
    assert r.stdout == ""
    assert "JETVAR_MAX_TERMS must be a positive integer" in r.stderr


def test_transgression_is_not_vacuous_when_nonzero_sides_cancel(capsys):
    # dS and P(F) - P(F_B) are both nonzero; their difference is zero
    assert cli.main(["transgression", "--config",
                     str(CONFIGS / "su2_k2.json")]) == 0
    out = capsys.readouterr().out
    assert "characteristic form: 0 terms" not in out
    assert "transgression form: 0 terms" not in out
    assert "[PASS] d(transgression form) = P(F) - P(F_B)\n" in out


def test_missing_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algebra": "su2"}))
    r = run_cli("transgression", "--config", str(cfg))
    assert r.returncode == 2
    assert "k must be" in r.stderr


def test_float_rational_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"algebra": "su2", "invariant": "killing", "k": 2, "h": 0.5}))
    r = run_cli("transgression", "--config", str(cfg))
    assert r.returncode == 2
    assert "rational" in r.stderr


def test_jacobi_violation_exits_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "algebra": {"dim": 3, "constants": [[0, 1, 2, "1"], [1, 0, 1, "1"]]},
        "invariant": "killing", "k": 2}))
    r = run_cli("check-algebra", "--config", str(cfg))
    assert r.returncode == 1
    assert r.stdout.startswith("[FAIL] structure constants: ")


def test_non_invariant_tensor_fails_transgression(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"algebra": "su2", "invariant": "unit", "k": 2}))
    r = run_cli("transgression", "--config", str(cfg))
    assert r.returncode == 1
    assert "[FAIL] invariant tensor ad-invariance" in r.stdout


def test_non_invariant_tensor_fails_conservation_by_name(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"algebra": "su2", "invariant": "unit", "k": 2}))
    r = run_cli("verify-conservation", "--config", str(cfg))
    assert r.returncode == 1
    assert r.stdout == "[FAIL] invariant tensor ad-invariance\n"


@pytest.mark.parametrize("command", ["euler-lagrange", "noether"])
def test_non_invariant_tensor_fails_lagrangian_commands_by_name(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"algebra": "su2", "invariant": "unit", "k": 2}))
    r = run_cli(command, "--config", str(cfg))
    assert r.returncode == 1
    assert r.stdout == "[FAIL] invariant tensor ad-invariance\n"


def test_term_cap_exits_3():
    r = run_cli("transgression", "--config", str(CONFIGS / "su2_k2.json"),
                env_extra={"JETVAR_MAX_TERMS": "50"})
    assert r.returncode == 3
    assert "term limit exceeded" in r.stderr


def test_running_out_of_memory_exits_3(tmp_path):
    # the address-space limit acts on the child alone; u1^1000000 runs out
    # of it building the per-component jet coordinates, within 2 s
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"algebra": "u1^1000000", "invariant": "unit",
                               "k": 2}))
    limit = 200 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    r = subprocess.run(
        [sys.executable, "-m", "jetvar.cli", "verify-conservation",
         "--config", str(cfg)], capture_output=True, text=True, cwd=ROOT,
        preexec_fn=cap_memory)
    assert r.returncode == 3, r.stderr
    assert r.stdout == ""
    assert r.stderr.startswith("out of memory: ") and r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr


def test_term_cap_in_the_chain_rule_exits_3():
    # With seed 0 no sum or product before it exceeds 10 terms: the first
    # expression to do so is d_H of a Noether current, cut off in the chain rule.
    r = run_cli("first-variational-selftest", "--seed", "0", "--config",
                str(CONFIGS / "selftest.json"),
                env_extra={"JETVAR_MAX_TERMS": "10"})
    assert r.returncode == 3
    assert "term limit exceeded" in r.stderr
    assert "Traceback" not in r.stderr
    assert "[PASS]" not in r.stdout


def test_dump_writes_full_expressions(tmp_path):
    dump = tmp_path / "dump.txt"
    r = run_cli("verify-conservation", "--config",
                str(CONFIGS / "su2_k2.json"), "--dump", str(dump))
    assert r.returncode == 0
    text = dump.read_text()
    assert "## modified current component 0" in text
    assert "## primitive" in text


@pytest.mark.parametrize("target", ["missing/out.txt", ""],
                         ids=["missing_directory", "directory"])
@pytest.mark.parametrize("command", ["verify-conservation", "noether"])
def test_unwritable_dump_exits_2_before_any_output(capsys, tmp_path, command,
                                                  target):
    code = cli.main([command, "--config", str(CONFIGS / "u1_k2.json"),
                     "--dump", str(tmp_path / target)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("config error: cannot write dump "), err


@pytest.mark.parametrize("spelling", ["same", "dotted", "link"])
def test_dump_onto_the_config_exits_2_and_keeps_it(capsys, tmp_path, spelling):
    # opening the dump truncated the config before it was read
    cfg = tmp_path / "mine.json"
    text = (CONFIGS / "su2_k2.json").read_bytes()
    cfg.write_bytes(text)
    dump = {"same": cfg, "dotted": tmp_path / "." / "mine.json",
            "link": tmp_path / "link.json"}[spelling]
    if spelling == "link":
        dump.symlink_to(cfg)
    code = cli.main(["transgression", "--config", str(cfg), "--dump", str(dump)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert f"--dump {dump} is the config file {cfg}" in err
    assert cfg.read_bytes() == text


def test_dump_is_created_when_nothing_is_dumped(capsys, tmp_path):
    dump = tmp_path / "dump.txt"
    code = cli.main(["transgression", "--config", str(CONFIGS / "su2_k2.json"),
                     "--dump", str(dump)])
    capsys.readouterr()
    assert code == 0 and dump.read_text() == ""


UNREAD_FLAGS = [(command, "--seed", "1") for command in
                ("check-algebra", "transgression", "euler-lagrange", "noether",
                 "verify-conservation")] + [
    (command, "--dump", "f")
    for command in ("check-algebra", "first-variational-selftest")]


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=" ".join)
def test_flags_a_command_never_reads_exit_2(capsys, tmp_path, monkeypatch, argv):
    # only the self-test draws random instances; check-algebra and the
    # self-test print no expression to dump
    monkeypatch.chdir(tmp_path)
    config = "selftest.json" if argv[0] == "first-variational-selftest" \
        else "u1_k2.json"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", str(CONFIGS / config)])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"unrecognized arguments: {argv[1]} {argv[2]}" in err
    assert list(tmp_path.iterdir()) == []


def _main_exit(capsys, tmp_path, command, cfg_obj):
    """Runs cli.main in-process on a config object: (exit code, stderr,
    stdout)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_obj))
    code = cli.main([command, "--config", str(cfg)])
    out, err = capsys.readouterr()
    return code, err, out


@pytest.mark.parametrize("algebra", ["u1^x", "u1^0", "u1^-1", "su2+u1^0"])
@pytest.mark.parametrize("command", ["check-algebra", "verify-conservation"])
def test_malformed_abelian_power_exits_2(capsys, tmp_path, command, algebra):
    code, err, _ = _main_exit(capsys, tmp_path, command,
                              {"algebra": algebra, "invariant": "unit", "k": 2})
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("degree", [1, 3])
@pytest.mark.parametrize("command", ["transgression", "euler-lagrange",
                                     "noether", "verify-conservation"])
def test_invariant_degree_other_than_k_exits_2(capsys, tmp_path, command,
                                               degree):
    # a config states k beside its tensor's degree, and a model is built
    # only when they agree; no verdict is printed
    code, err, out = _main_exit(capsys, tmp_path, command, {
        "algebra": "u1", "k": 2,
        "invariant": {"degree": degree, "entries": [[[0] * degree, "1"]]}})
    assert code == 2
    assert "config error: invariant tensor degree must equal k" in err
    assert out == ""


@pytest.mark.parametrize("index,message", [
    ([0, 7], "index out of range"), ([-1, 0], "index out of range"),
    ([3, 3], "index out of range"), ([True, True], "indices must be ints")])
@pytest.mark.parametrize("command", ["check-algebra", "verify-conservation"])
def test_bad_invariant_index_exits_2(capsys, tmp_path, command, index, message):
    # a boolean is a JSON true, not the index 1; no verdict is printed
    # before the config is read in full
    code, err, out = _main_exit(capsys, tmp_path, command, {
        "algebra": "su2", "k": 2,
        "invariant": {"degree": 2, "entries": [[[0, 0], "1"], [index, "1"]]}})
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("rows,message", [
    ([[[0, 0], "1"], [[0, 0], "2"]],
     "invariant.entries[1]: conflicting entries at [0, 0]"),
    ([[[0, 0], "1"], [[1, 1], "1"], [[2, 2], "1"], [[2, 2], "0"]],
     "invariant.entries[3]: conflicting entries at [2, 2]"),
    # a permuted repeat, also when its first value is zero
    ([[[0, 1], "1"], [[1, 0], "2"]], "conflicting symmetric entries at (0, 1)"),
    ([[[0, 1], "0"], [[1, 0], "2"]], "conflicting symmetric entries at (0, 1)")])
@pytest.mark.parametrize("command", ["check-algebra", "transgression"])
def test_repeated_invariant_entry_with_another_value_exits_2(
        capsys, tmp_path, command, rows, message):
    code, err, out = _main_exit(capsys, tmp_path, command, {
        "algebra": "su2", "k": 2, "invariant": {"entries": rows}})
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("command", ["check-algebra", "transgression"])
def test_repeated_invariant_entry_with_its_value_is_one_entry(
        capsys, tmp_path, command):
    unit = [[[s, s], "1"] for s in range(3)]
    once = _main_exit(capsys, tmp_path, command, {
        "algebra": "su2", "k": 2, "invariant": {"entries": unit}})
    twice = _main_exit(capsys, tmp_path, command, {
        "algebra": "su2", "k": 2,
        "invariant": {"entries": unit + [[[2, 2], "1"], [[0, 0], "1"]]}})
    assert once[0] == twice[0] == 0
    assert once[2] == twice[2]


@pytest.mark.parametrize("cfg_obj", [
    {"algebra": "u1", "k": 2},   # the Killing form of u1 is zero
    {"algebra": "su2", "k": 2, "invariant": {"entries": []}},
    {"algebra": "su2", "k": 2, "invariant": {"entries": [[[0, 0], "0"]]}}])
def test_all_zero_tensor_is_invariant_vacuously(capsys, tmp_path, cfg_obj):
    code, _, out = _main_exit(capsys, tmp_path, "check-algebra", cfg_obj)
    assert code == 0
    assert (f"[PASS] invariant tensor ad-invariance (degree 2)"
            f"{cli.VACUOUS}\n") in out
    code, _, out = _main_exit(capsys, tmp_path, "transgression", cfg_obj)
    assert code == 0
    assert f"[PASS] invariant tensor ad-invariance{cli.VACUOUS}\n" in out


@pytest.mark.parametrize("row,message", [
    ([0, 1, 2, "1"], "index out of range 0..1: [0, 1, 2]"),
    ([-1, 0, 1, "1"], "index out of range"),
    ([True, 0, 1, "1"], "indices must be ints")])
@pytest.mark.parametrize("command", ["check-algebra", "verify-conservation"])
def test_bad_structure_constant_index_exits_2(capsys, tmp_path, command, row,
                                              message):
    code, err, out = _main_exit(capsys, tmp_path, command, {
        "algebra": {"dim": 2, "constants": [row]}, "invariant": "unit", "k": 2})
    assert code == 2
    assert f"algebra.constants[0]: {message}" in err
    assert out == ""


@pytest.mark.parametrize("cfg_obj,message", [
    ({"invariant": {"degree": "2", "entries": []}}, "invariant.degree"),
    ({"invariant": {"degree": True, "entries": []}}, "invariant.degree"),
    ({"invariant": {"degree": 0, "entries": []}}, "invariant.degree"),
    ({"k": True}, "k must be"),
    ({"algebra": {"dim": True}}, "algebra.dim"),
])
@pytest.mark.parametrize("command", ["check-algebra", "verify-conservation"])
def test_non_integer_config_values_exit_2(capsys, tmp_path, command, cfg_obj,
                                         message):
    # a JSON true is not the integer 1; strings are not integers
    code, err, out = _main_exit(capsys, tmp_path, command,
                                {"algebra": "su2", "k": 2, **cfg_obj})
    assert code == 2
    assert message in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("command", ["check-algebra", "verify-conservation",
                                     "first-variational-selftest"])
def test_unknown_config_key_exits_2(capsys, tmp_path, command):
    code, err, out = _main_exit(capsys, tmp_path, command, {
        "algebra": "su2", "invariant": "killing", "k": 2, "backgroud": "zero"})
    assert code == 2
    assert "unknown key 'backgroud'" in err
    assert out == ""


SU2_CONSTANTS = [[0, 1, 2, "1"], [1, 2, 0, "1"], [2, 0, 1, "1"]]


@pytest.mark.parametrize("command", ["check-algebra", "verify-conservation"])
@pytest.mark.parametrize("cfg_obj,message", [
    # a misspelt constants key would leave the abelian algebra, and a
    # misspelt entries key the empty tensor: both would PASS the wrong model
    ({"algebra": {"dim": 3, "constant": SU2_CONSTANTS}, "invariant": "unit",
      "k": 2}, "algebra: unknown key 'constant'"),
    ({"algebra": "su2", "invariant": {"degree": 2, "entry": [[[0, 0], "1"]]},
      "k": 2}, "invariant: unknown key 'entry'")])
def test_unknown_key_inside_algebra_or_invariant_exits_2(
        capsys, tmp_path, command, cfg_obj, message):
    code, err, out = _main_exit(capsys, tmp_path, command, cfg_obj)
    assert code == 2
    assert message in err
    assert out == ""


def test_closed_stdout_exits_141_without_a_traceback(capsys, monkeypatch,
                                                     tmp_path):
    # a reader that stops early, as `| head -1` does: the run is cut, which
    # is no verdict, so the exit code is neither 0 nor 1; the devnull left
    # on the stdout descriptor is a temporary file's here
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe(io.StringIO):
        def write(self, s):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        code = cli.main(["verify-conservation", "--config",
                         str(CONFIGS / "u1_k2.json")])
    finally:
        os.close(fd)
    assert code == 141
    assert (tmp_path / "stdout").read_bytes() == b""
    assert capsys.readouterr().err == ""


def test_selftest_rejects_model_keys(capsys, tmp_path):
    # a known key the self-test would ignore is an error too
    code, err, out = _main_exit(capsys, tmp_path, "first-variational-selftest",
                                {"selftest_instances": 3, "k": "x",
                                 "algebra": "nope"})
    assert code == 2
    assert "takes no model key: 'algebra', 'k'" in err
    assert out == ""


MODEL_COMMANDS = ["check-algebra", "transgression", "euler-lagrange",
                  "noether", "verify-conservation"]


@pytest.mark.parametrize("key,value", [("selftest_instances", 5),
                                       ("dimensions", [1, 2])])
@pytest.mark.parametrize("command", MODEL_COMMANDS)
def test_model_commands_reject_selftest_keys(capsys, tmp_path, command, key,
                                             value):
    # a known key the model subcommand would ignore is an error too
    code, err, out = _main_exit(capsys, tmp_path, command, {
        "algebra": "u1", "invariant": "unit", "k": 2, key: value})
    assert code == 2
    assert f"{command} takes no self-test key: {key!r}" in err
    assert out == ""


@pytest.mark.parametrize("cfg_obj,message", [
    # the CLI's gauge parameters are always the symbolic xi family
    ({"gauge_params": "zero"}, "unknown key 'gauge_params'"),
    ({"background": "none"}, "background must be"),
    ({"h": 0.5}, "h: rationals must be"),
    ({"h": "1/0"}, "h: bad rational"),
    # Fraction would build 10**1000000000
    ({"h": "1e1000000000"}, "h: bad rational '1e1000000000': exponents are "
                            "not accepted")])
@pytest.mark.parametrize("algebra", [
    "su2", {"dim": 3, "constants": [[0, 1, 2, "1"], [1, 0, 1, "1"]]}],
    ids=["su2", "jacobi-violation"])
def test_check_algebra_validates_model_options(capsys, tmp_path, cfg_obj, message,
                                               algebra):
    # parsed as build_model parses them, before any verdict: even the
    # structure-constant FAIL of a Jacobi violation is not printed
    code, err, out = _main_exit(capsys, tmp_path, "check-algebra", {
        "algebra": algebra, "invariant": "killing", "k": 2, **cfg_obj})
    assert code == 2
    assert message in err
    assert out == ""


def test_jet_order_is_an_unknown_key(capsys, tmp_path):
    # the jet chart is J^inf; a large jet order once hung building a chart
    code, err, out = _main_exit(capsys, tmp_path, "verify-conservation", {
        "algebra": "u1+su2", "invariant": "u1su2-cubic", "k": 3,
        "jet_order": 40})
    assert code == 2
    assert "unknown key 'jet_order'" in err
    assert out == ""


@pytest.mark.parametrize("dims,message", [
    # the self-test's coordinate pools grow quadratically with n
    ([MAX_N + 1], f"integers in 1..{MAX_N}"),
    ([10**30], f"integers in 1..{MAX_N}"),
    # "n=1: 6 instances" printed twice read as 12 instances
    ([2, 1, 2, 1], "dimensions repeat 1, 2"),
    # one count per distinct dimension, not one per entry
    ([2, 1, 3] * 33_333 + [4], "dimensions repeat 1, 2, 3")],
    ids=[str(MAX_N + 1), str(10**30), "repeated", "repeated-1e5"])
def test_bad_dimensions_exit_2(capsys, tmp_path, dims, message):
    code, err, out = _main_exit(capsys, tmp_path, "first-variational-selftest",
                                {"selftest_instances": 6, "dimensions": dims})
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("text,value", [
    ("3", 3), (" -3/4 ", Fraction(-3, 4)), ("0.25", Fraction(1, 4)),
    ("-.5", Fraction(-1, 2)), ("1_000/3", Fraction(1000, 3)),
    ("+2.", 2)])
def test_rationals_without_an_exponent_are_accepted(text, value):
    assert parse_rational(text, "h") == value


@pytest.mark.parametrize("text", ["1e5", "1E5", " 2.5e-3 ", "-.5e+1", "1.e0",
                                  "1_0e1_0"])
def test_rationals_with_an_exponent_are_rejected(text):
    with pytest.raises(ConfigError, match="exponents are not accepted"):
        parse_rational(text, "h")


@pytest.mark.parametrize("text", ["zero", "e5", ".e5", "1e", "1/2e3", "inf"])
def test_other_bad_rationals_keep_fractions_message(text):
    with pytest.raises(ConfigError, match="Invalid literal for Fraction"):
        parse_rational(text, "h")


def test_cli_runs_the_config_entry_points():
    # jetbench's set-up child calls both through cli
    assert cli.load_config is load_config
    assert cli.build_model is build_model


@pytest.mark.parametrize("path", sorted(
    p.relative_to(ROOT).as_posix() for d in ("configs", "tests/configs",
                                             "jetbench/configs")
    for p in (ROOT / d).glob("*.json")))
def test_shipped_configs_use_known_keys(path):
    assert set(load_config(str(ROOT / path))) <= CONFIG_KEYS


@pytest.mark.parametrize("content,message", [
    (b'{"algebra": "su2\xff"}', "not UTF-8 text"),
    (b"[" * 200000, "JSON nested too deeply"),
    # json keeps the last value of a repeated key: h = 0 made
    # verify-conservation pass vacuously
    (b'{"algebra": "su2", "k": 2, "h": "1", "h": "0"}', "duplicate key 'h'"),
    (b'{"algebra": {"dim": 3, "dim": 1}, "invariant": "unit", "k": 2}',
     "duplicate key 'dim'")],
    ids=["not-utf8", "deep", "duplicate-key", "nested-duplicate-key"])
@pytest.mark.parametrize("command", ["check-algebra", "verify-conservation"])
def test_unreadable_config_contents_exit_2(capsys, tmp_path, command, content,
                                           message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    code = cli.main([command, "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("algebra", ["u1^1000000000000", {"dim": MAX_DIM + 1}],
                         ids=["name", "dim"])
def test_model_algebra_above_the_dimension_bound_exits_2(capsys, tmp_path,
                                                         algebra):
    # a model command looped over 10^12 gauge components; check-algebra
    # reads only the nonzero structure constants and tensor entries
    cfg = {"algebra": algebra, "invariant": "unit", "k": 2}
    for command in MODEL_COMMANDS[1:]:
        code, err, out = _main_exit(capsys, tmp_path, command, cfg)
        assert code == 2
        assert err == ("config error: algebra: a model's dimension is at "
                       f"most {MAX_DIM}\n")
        assert out == ""
    code, err, out = _main_exit(capsys, tmp_path, "check-algebra", cfg)
    assert code == 0, err
    assert out.startswith("algebra: dim 1000")
    assert out.endswith("[PASS] invariant tensor ad-invariance (degree 2)\n")


@pytest.mark.parametrize("k", [MAX_K + 1, 10**6, 10**30])
@pytest.mark.parametrize("command", ["check-algebra", "transgression",
                                     "verify-conservation"])
def test_k_above_the_bound_exits_2(capsys, tmp_path, command, k):
    # a huge k overflowed an index, and k = 10^6 hung
    code, err, out = _main_exit(capsys, tmp_path, command,
                                {"algebra": "u1", "invariant": "unit", "k": k})
    assert code == 2
    assert f"k must be an integer in 2..{MAX_K}" in err
    assert out == ""


def test_large_abelian_algebra_checks_quickly(capsys, tmp_path):
    # the dense Jacobi loop gave no verdict on u1^40 within 60 s
    code, err, out = _main_exit(capsys, tmp_path, "check-algebra",
                                {"algebra": "u1^40", "invariant": "unit", "k": 2})
    assert code == 0, err
    assert out == ("algebra: dim 40, 0 nonzero structure constants\n"
                   "[PASS] antisymmetry c^r_pq = -c^r_qp\n"
                   "[PASS] Jacobi identity\n"
                   "[PASS] invariant tensor ad-invariance (degree 2)\n")


@pytest.mark.parametrize("command", ["verify-conservation", "noether"])
def test_large_abelian_model_runs_quickly(capsys, command):
    # the dense gauge generator gave no verdict on u1^300 within 60 s
    code = cli.main([command, "--config",
                     str(TEST_CONFIGS / "u1pow300_unit_k2.json")])
    out, err = capsys.readouterr()
    assert code == 0, err
    if command == "verify-conservation":
        assert out.startswith("[PASS] d_H(J - sigma) + u.(delta L) = 0\n")


def test_algebra_of_dimension_3000_runs_quickly(capsys):
    # per-index forms are built at the indices of the tensor only, and each
    # of the 3000 gauge components costs its own support only
    code = cli.main(["verify-conservation", "--config",
                     str(TEST_CONFIGS / "dim3000_unit_k2.json")])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out.startswith("[PASS] d_H(J - sigma) + u.(delta L) = 0\n")
    assert ", 3000 gauge components, largest sigma 18 terms," in err


def test_verify_conservation_notes_components_and_memory(capsys):
    # the stderr note; stdout is the golden file, unchanged
    code = cli.main(["verify-conservation", "--config",
                     str(CONFIGS / "su2_k2.json")])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == (GOLDEN / "verify_conservation_su2_k2.txt").read_text()
    assert re.fullmatch(r"verify-conservation: \d+\.\d\ds, 3 gauge components, "
                        r"largest sigma 30 terms, peak RSS \d+\.\d MB\n", err), err
    code = cli.main(["verify-conservation", "--config",
                     str(CONFIGS / "u1_k2.json")])
    err = capsys.readouterr().err
    assert ", 1 gauge component, largest sigma 18 terms, " in err


@pytest.mark.parametrize("config", [
    *sorted(p.name for p in CONFIGS.glob("*.json") if p.name != "selftest.json"),
    "u1su2_k3_h1_3.json"])
def test_printed_current_matches_the_merged_current_oracle(config, capsys):
    # the CLI keeps the leading terms and the term count of each gauge
    # component's part of J - sigma; the oracle adds the whole parts into
    # one form, whose components print as they did before
    path = CONFIGS / config
    if not path.exists():
        path = TEST_CONFIGS / config
    assert cli.main(["verify-conservation", "--config", str(path)]) == 0
    got = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith("modified current component ")]
    cs, _ = build_model(load_config(str(path)))
    _, modified, _ = oracles.merged_conservation(verify_conservation(cs))
    for lam, comp in enumerate(cs.ctx.current_components(modified)):
        cli.show_poly(f"modified current component {lam}", comp,
                      None, cs.scale)
    assert got == capsys.readouterr().out.splitlines()
    assert len(got) == cs.n


# -- one parser per process: no flag or default leaks between calls ---------


def _cli_3d_requests() -> list:
    """Five model subcommands on u1_k2, su2_k2 and u1_k3, plus the known
    negatives on su2 with the unit tensor and on a Jacobi violation."""
    flags = {"check-algebra": [], "transgression": [],
             "euler-lagrange": ["--compare-background"], "noether": [],
             "verify-conservation": []}
    reqs = [[cmd, "--config", str(CONFIGS / f"{model}.json"), *extra]
            for model in ("u1_k2", "su2_k2", "u1_k3")
            for cmd, extra in flags.items()]
    reqs += [[cmd, "--config", str(TEST_CONFIGS / f"{name}.json")]
             for cmd, name in [("check-algebra", "su2_unit"),
                               ("transgression", "su2_unit"),
                               ("verify-conservation", "su2_unit"),
                               ("check-algebra", "jacobi_violation"),
                               ("transgression", "jacobi_violation")]]
    return reqs


def test_repeated_in_process_calls_match_fresh_interpreters(capsys, tmp_path):
    reqs = _cli_3d_requests()
    first, second = list(reqs), list(reqs)
    random.Random(1).shuffle(first)
    random.Random(2).shuffle(second)
    u1_k2 = ["--config", str(CONFIGS / "u1_k2.json")]
    u1_k3 = ["--config", str(CONFIGS / "u1_k3.json")]
    usage_error = ["verify-conservation", "--seed", "7"]  # no --config
    sequence = (first + [usage_error] + second
                + [["euler-lagrange", *u1_k2, "--compare-background"],
                   ["euler-lagrange", *u1_k2],
                   ["noether", *u1_k3, "--dump", str(tmp_path / "dump.txt")],
                   ["noether", *u1_k3]])
    fresh: dict = {}
    for argv in sequence:
        key = tuple(argv)
        if key not in fresh:
            r = run_cli(*argv)
            fresh[key] = (r.returncode, r.stdout)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == fresh[key], argv
    assert fresh[tuple(usage_error)][0] == 2
    assert cli._parser() is cli._parser()
    # the flags do change the output, so a leak would have shown
    assert len({fresh[tuple(argv)] for argv in sequence[-4:-2]}) == 2
    assert len({fresh[tuple(argv)] for argv in sequence[-2:]}) == 2


# -- config fuzz: mutated shipped configs never escape as a traceback ------

# the three large models (5D u1+su2, 7D u1, an abelian algebra of dimension
# 3000) take about a second or more per run, and dropping "background" from
# either su2 k=4 seed gives the symbolic 7D probe, a minute and 740 MB
FUZZ_SEEDS = [load_config(str(ROOT / path)) for path in sorted(
    p.relative_to(ROOT).as_posix() for d in ("configs", "tests/configs",
                                             "jetbench/configs")
    for p in (ROOT / d).glob("*.json")
    if p.name not in ("u1su2_k3.json", "u1_k4.json", "dim3000_unit_k2.json",
                      "su2_k4_zero_x3.json", "su2_k4_zero_1_3.json"))]
# no shipped config spells out its invariant tensor
FUZZ_SEEDS.append({"algebra": "u1^2", "k": 2, "invariant": {
    "degree": 2, "entries": [[[0, 0], "1"], [[0, 1], "1/2"]]}})
FUZZ_VALUES = [None, True, -1, 0, 1, 2, 3, 1.5, "", "x", "1/0", [], [0], {},
               "su2", "u1^2", "unit", "zero"]
# 10^30 only for k: with the k=4 seeds left out, no other key turns it
# into a long valid run
FUZZ_K_VALUES = FUZZ_VALUES + [10**30]
FUZZ_KEYS = sorted(CONFIG_KEYS) + ["backgroud", "order", "jet_order"]
FUZZ_COMMANDS = [["check-algebra"], ["transgression"], ["noether"],
                 ["euler-lagrange", "--compare-background"],
                 ["verify-conservation"], ["first-variational-selftest"]]


def _index_lists(cfg: dict) -> list:
    """algebra.constants rows [r, p, q, value] and invariant.entries index
    lists; a mutation only ever replaces these whole or edits one index."""
    out = []
    alg, inv = cfg.get("algebra"), cfg.get("invariant")
    if isinstance(alg, dict):
        out += alg.get("constants", [])
    if isinstance(inv, dict):
        out += [row[0] for row in inv.get("entries", [])]
    return out


@st.composite
def mutated_configs(draw):
    cfg = json.loads(json.dumps(draw(st.sampled_from(FUZZ_SEEDS))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "set", "index"]))
        if kind == "drop" and cfg:
            del cfg[draw(st.sampled_from(sorted(cfg)))]
        elif kind == "set":
            key = draw(st.sampled_from(FUZZ_KEYS))
            cfg[key] = draw(st.sampled_from(
                FUZZ_K_VALUES if key == "k" else FUZZ_VALUES))
        elif kind == "index" and _index_lists(cfg):
            idx = draw(st.sampled_from(_index_lists(cfg)))
            j = draw(st.integers(0, min(len(idx), 3) - 1))
            idx[j] = draw(st.sampled_from(FUZZ_VALUES))
    return cfg


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=mutated_configs(), command=st.sampled_from(FUZZ_COMMANDS))
def test_mutated_configs_exit_cleanly(capsys, tmp_path, cfg, command):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([*command, "--config", str(path)])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (command, cfg)
    assert "Traceback" not in out + err, (command, cfg)
    if code == 2:
        # every config rule is checked before the first verdict line
        assert out == "", (command, cfg)
        assert err.startswith("config error: ") and err.count("\n") == 1, \
            (command, cfg, err)


# -- small valid models: transgression and conservation pass non-vacuously --

COEFFS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/2"])
NONZERO = st.sampled_from(["1", "-1", "2/3", "-5/2", "3"])


@st.composite
def small_models(draw):
    """(config, u1 indices, su2 indices): a direct sum of u1^m and at most
    one su2 of dimension <= 5 at k = 2, or u1^m with m <= 2 at k = 3, a
    nonzero rational h, and a nonzero tensor from the invariant span: a
    symmetric tensor on the u1 indices plus a nonzero multiple of the
    identity on su2 (the Killing form is -2 times it)."""
    k = draw(st.sampled_from([2, 3]))
    has_su2 = k == 2 and draw(st.booleans())
    m = draw(st.integers(0 if has_su2 else 1, 2 if has_su2 or k == 3 else 5))
    parts = [f"u1^{m}"] * (m > 0) + ["su2"] * has_su2
    if draw(st.booleans()):
        parts.reverse()
    start = 3 if parts[0] == "su2" and m else 0
    u1 = list(range(start, start + m))
    su2 = [i for i in range(m + 3 * has_su2) if i not in u1]
    rows = [[list(idx), draw(NONZERO if i == 0 and not su2 else COEFFS)]
            for i, idx in enumerate(combinations_with_replacement(u1, k))]
    if su2:
        c = draw(NONZERO)
        rows += [[[s, s], c] for s in su2]
    cfg = {"algebra": "+".join(parts), "k": k, "h": draw(NONZERO),
           "invariant": {"degree": k, "entries": [r for r in rows if r[1] != "0"]}}
    return cfg, u1, su2


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=small_models())
def test_small_valid_models_pass_non_vacuously(capsys, tmp_path, model):
    cfg, _, _ = model
    code, err, out = _main_exit(capsys, tmp_path, "transgression", cfg)
    assert code == 0, (cfg, err, out)
    assert "[PASS] d(transgression form) = P(F) - P(F_B)\n" in out
    assert "[PASS] invariant tensor ad-invariance\n" in out
    code, err, out = _main_exit(capsys, tmp_path, "verify-conservation", cfg)
    assert code == 0, (cfg, err, out)
    assert out.startswith("[PASS] d_H(J - sigma) + u.(delta L) = 0\n")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=small_models().filter(lambda model: model[2]), data=st.data())
def test_perturbed_tensors_fail_by_name(capsys, tmp_path, model, data):
    # off the invariant span: one su2 diagonal entry moved, or an entry
    # coupling u1 to su2
    cfg, u1, su2 = model
    rows = cfg["invariant"]["entries"]
    s = data.draw(st.sampled_from(su2))
    delta = Fraction(data.draw(NONZERO))
    if u1 and data.draw(st.booleans()):
        rows.append([sorted([data.draw(st.sampled_from(u1)), s]), str(delta)])
    else:
        row = next(r for r in rows if r[0] == [s, s])
        row[1] = str(Fraction(row[1]) + delta)
    for command in ("transgression", "verify-conservation"):
        code, err, out = _main_exit(capsys, tmp_path, command, cfg)
        assert code == 1, (command, cfg, err, out)
        assert "[FAIL] invariant tensor ad-invariance\n" in out
