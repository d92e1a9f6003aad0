"""CLI behavior: byte-deterministic stdout (golden files), exit codes, config
errors, and the term cap."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jetvar import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = ROOT / "configs"
# h = 0 scales every CS object to zero, so each identity holds vacuously
SU2_H0 = Path(__file__).resolve().parent / "configs" / "su2_k2_h0.json"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "jetvar.cli", *args],
                          capture_output=True, text=True, env=env, cwd=ROOT)


GOLDEN_CASES = [
    ("check_algebra_su2.txt", ["check-algebra", "--config",
                               str(CONFIGS / "su2_k2.json")]),
    ("transgression_su2_k2.txt", ["transgression", "--config",
                                  str(CONFIGS / "su2_k2.json")]),
    ("euler_lagrange_u1_k2.txt", ["euler-lagrange", "--config",
                                  str(CONFIGS / "u1_k2.json"),
                                  "--compare-background"]),
    ("noether_u1_k2.txt", ["noether", "--config", str(CONFIGS / "u1_k2.json")]),
    ("verify_conservation_u1_k2.txt", ["verify-conservation", "--config",
                                       str(CONFIGS / "u1_k2.json")]),
    ("verify_conservation_su2_k2.txt", ["verify-conservation", "--config",
                                        str(CONFIGS / "su2_k2.json")]),
    ("transgression_su2_k2_h0.txt", ["transgression", "--config", str(SU2_H0)]),
    ("verify_conservation_su2_k2_h0.txt", ["verify-conservation", "--config",
                                           str(SU2_H0)]),
    ("euler_lagrange_su2_k2_h0.txt", ["euler-lagrange", "--config", str(SU2_H0),
                                      "--compare-background"]),
    ("verify_conservation_u1su2_k3.txt", ["verify-conservation", "--config",
                                          str(CONFIGS / "u1su2_k3.json")]),
    # the 7D frontier case
    ("verify_conservation_u1_k4.txt", ["verify-conservation", "--config",
                                       str(SU2_H0.parent / "u1_k4.json")]),
]


@pytest.mark.parametrize("golden,args", GOLDEN_CASES,
                         ids=[g for g, _ in GOLDEN_CASES])
def test_stdout_matches_golden_file(golden, args):
    r = run_cli(*args)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / golden).read_text()


def test_selftest_is_deterministic_for_a_seed():
    args = ["first-variational-selftest", "--seed", "42", "--config",
            str(CONFIGS / "selftest.json")]
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert "[PASS]" in a.stdout


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


def test_zero_gauge_parameters_give_zero_current(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"algebra": "su2", "invariant": "killing", "k": 2,
         "gauge_params": "zero"}))
    r = run_cli("verify-conservation", "--config", str(cfg))
    assert r.returncode == 0
    assert ("[PASS] d_H(J - sigma) + u.(delta L) = 0 "
            "(vacuous: every term is zero)\n") in r.stdout
    for lam in range(3):
        assert f"modified current component {lam} = 0" in r.stdout


def test_dump_writes_full_expressions(tmp_path):
    dump = tmp_path / "dump.txt"
    r = run_cli("verify-conservation", "--config",
                str(CONFIGS / "su2_k2.json"), "--dump", str(dump))
    assert r.returncode == 0
    text = dump.read_text()
    assert "## modified current component 0" in text
    assert "## primitive" in text


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


@pytest.mark.parametrize("path", sorted(
    p.relative_to(ROOT).as_posix() for d in ("configs", "tests/configs",
                                             "jetbench/configs")
    for p in (ROOT / d).glob("*.json")))
def test_shipped_configs_use_known_keys(path):
    assert set(cli.load_config(str(ROOT / path))) <= cli.CONFIG_KEYS


@pytest.mark.parametrize("content,message", [
    (b'{"algebra": "su2\xff"}', "not UTF-8 text"),
    (b"[" * 200000, "JSON nested too deeply")], ids=["not-utf8", "deep"])
@pytest.mark.parametrize("command", ["check-algebra", "verify-conservation"])
def test_unreadable_config_contents_exit_2(capsys, tmp_path, command, content,
                                           message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    code = cli.main([command, "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 2
    assert message in err and "Traceback" not in err
    assert out == ""
