"""Every public function and method is reached by some subcommand, or is
named below.

The subcommands run in-process under sys.setprofile, which records the code
object of every Python function entered; a function in a module's __all__,
or a public method or property of a class that jetvar defines there, whose
code is never entered is unused API unless an entry here says why it stays.
The package root binds no function or class: callers import the submodule
that defines it."""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
from pathlib import Path

import jetvar
from jetvar import cli

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    *([command, "--config", "configs/su2_k2.json"] for command in (
        "transgression", "euler-lagrange", "noether", "verify-conservation")),
    ["check-algebra", "--config", "configs/u1su2_k3.json"],
    ["check-algebra", "--config", "tests/configs/jacobi_violation.json"],
    ["first-variational-selftest", "--config", "configs/selftest.json"],
    # prints truncated currents, so it reaches Poly.leading and Form.leading
    ["verify-conservation", "--config", "configs/u1_k3.json"],
]

# (module, function or Class.method) -> why it stays although no subcommand
# enters it; a name that only the tests read lives in tests/oracles.py
UNREACHED: dict = {}


def _public_functions():
    for info in pkgutil.iter_modules(jetvar.__path__):
        module = importlib.import_module(f"jetvar.{info.name}")
        for name in getattr(module, "__all__", ()):
            f = getattr(module, name)
            if inspect.isfunction(f):
                yield (info.name, name), f.__code__
            elif inspect.isclass(f) and f.__module__ == module.__name__:
                # a class that jetvar defines, so not Fraction (polynomial.Q)
                for attr, v in vars(f).items():
                    v = getattr(v, "fget", getattr(v, "__func__", v))
                    if not attr.startswith("_") and inspect.isfunction(v):
                        yield (info.name, f"{name}.{attr}"), v.__code__


def test_every_public_function_is_reached_or_named(monkeypatch):
    monkeypatch.chdir(ROOT)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in RUNS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv))
    finally:
        sys.setprofile(previous)
    # the Jacobi violation is the one FAIL
    assert codes == [0, 0, 0, 0, 0, 1, 0, 0]
    unreached = {key for key, code in _public_functions()
                 if code not in entered}
    assert unreached == set(UNREACHED)


def test_the_package_root_binds_no_function_or_class():
    bound = sorted(name for name, v in vars(jetvar).items()
                   if inspect.isfunction(v) or inspect.isclass(v))
    assert bound == []
