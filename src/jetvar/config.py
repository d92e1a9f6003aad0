"""Run configuration: the JSON object that fixes a model (a Lie algebra, a
degree-k invariant tensor, a background and a multiple h) or a self-test.

Every value is checked before the first verdict line is printed, and a value
that breaks a rule here raises a ConfigError (exit 2), its key named in the
message.  Only a structure-constant violation is not one: it passes through
as AntisymmetryViolation or JacobiViolation, which check-algebra reports as
a FAIL.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction

from .algebra import (InvariantTensor, LieAlgebraData, builtin_algebra,
                      builtin_invariant, load_lie_algebra)
from .chern_simons import CSData
from .errors import (AntisymmetryViolation, ConfigError, JacobiViolation,
                     JetvarError)

__all__ = ["MAX_K", "MAX_N", "MAX_DIM", "CONFIG_KEYS", "SELFTEST",
           "load_config", "algebra_and_tensor", "build_model",
           "selftest_options"]

# Largest CS degree k: a (2k-1) = 15-dimensional base, well past the k = 4
# frontier.  The transgression form grows fast with k (u1: 9,520 terms at
# k = 4, 263,340 at k = 5), so a larger k only hangs, and a huge one
# overflows building the degree-k invariant tensor.
MAX_K = 8
# Largest base dimension, that of k = MAX_K; the self-test's coordinate pools
# grow quadratically with it.
MAX_N = 2 * MAX_K - 1
# Largest algebra dimension of a model: a model command runs one gauge
# component per index, and u1^1000000 already runs out of a 200 MB address
# space within 2 s, so a larger one only hangs.
MAX_DIM = 10**6
SELFTEST = "first-variational-selftest"
SELFTEST_KEYS = frozenset({"selftest_instances", "dimensions"})
CONFIG_KEYS = SELFTEST_KEYS | {"algebra", "invariant", "k", "background", "h"}
# a decimal with an exponent, for which Fraction would build 10**exponent
EXPONENT = re.compile(r"[-+]?(?=\.?\d)[\d_]*(\.[\d_]*)?[eE][-+]?\d[\d_]*")


def parse_rational(v, where: str) -> Fraction:
    if isinstance(v, bool):
        raise ConfigError(f"{where}: expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            if EXPONENT.fullmatch(v.strip()):
                raise ValueError("exponents are not accepted")
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{where}: bad rational {v!r}: {exc}") from exc
    # exactness forbids floats in configs
    raise ConfigError(f"{where}: rationals must be ints or 'p/q' strings, "
                      f"got {type(v).__name__}")


def config_int(v, least: int, what: str, most: int | None = None) -> int:
    """v when it is an int >= least (and <= most when given); a JSON true is
    not the int 1."""
    if type(v) is not int or v < least or (most is not None and v > most):
        bound = f">= {least}" if most is None else f"in {least}..{most}"
        raise ConfigError(f"{what} must be an integer {bound}")
    return v


def config_indices(idx: list, dim: int, where: str) -> tuple:
    """idx as a tuple of algebra indices in 0..dim-1."""
    if not all(type(j) is int for j in idx):
        raise ConfigError(f"{where}: indices must be ints")
    if not all(0 <= j < dim for j in idx):
        raise ConfigError(f"{where}: index out of range 0..{dim - 1}: {idx}")
    return tuple(idx)


def load_config(path: str, command: str | None = None) -> dict:
    """The config object in the file at path.  Given the command that runs
    it, the keys that command would ignore are rejected too: a model command
    takes no self-test key, and the self-test no model key."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        cfg = json.loads(raw, object_pairs_hook=lambda p: unique_keys(p, path))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    check_keys(cfg, CONFIG_KEYS, path)
    model = command != SELFTEST
    other = set(cfg) & SELFTEST_KEYS if model else set(cfg) - SELFTEST_KEYS
    if command is not None and other:
        kind = "self-test" if model else "model"
        raise ConfigError(f"{command} takes no {kind} key: "
                          + ", ".join(map(repr, sorted(other))))
    return cfg


def unique_keys(pairs: list, where: str) -> dict:
    """A JSON object's (key, value) pairs as a dict.  A repeated key is
    rejected, at any level: json would silently keep its last value."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def check_keys(obj: dict, known: set, where: str):
    """Reject a key of obj outside known, so that a misspelt key is not
    silently ignored."""
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ConfigError(f"{where}: unknown key {', '.join(map(repr, unknown))}")


def library_call(make, *args):
    """make(*args) on config values, its JetvarError a ConfigError; a
    structure-constant violation passes through."""
    try:
        return make(*args)
    except (AntisymmetryViolation, JacobiViolation):
        raise
    except JetvarError as exc:
        raise ConfigError(str(exc)) from exc


def config_algebra(cfg: dict) -> LieAlgebraData:
    spec = cfg.get("algebra")
    if spec is None:
        raise ConfigError("missing key 'algebra'")
    if isinstance(spec, str):
        return library_call(builtin_algebra, spec)
    if isinstance(spec, dict):
        check_keys(spec, {"dim", "constants"}, "algebra")
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
        return library_call(load_lie_algebra, dim, quads)
    raise ConfigError("algebra must be a name or an object")


def config_invariant(cfg: dict, g: LieAlgebraData, k: int) -> tuple:
    """Returns (tensor, name or None)."""
    spec = cfg.get("invariant", "killing" if k == 2 else None)
    if spec is None:
        raise ConfigError("missing key 'invariant'")
    if isinstance(spec, str):
        return (library_call(builtin_invariant, spec, g, k),
                spec.strip().lower())
    if isinstance(spec, dict):
        check_keys(spec, {"degree", "entries"}, "invariant")
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
            value = parse_rational(row[1], where)
            # a repeated index list may only repeat its value, as a
            # permuted one may (see InvariantTensor)
            if entries.setdefault(idx, value) != value:
                raise ConfigError(f"{where}: conflicting entries at {list(idx)}")
        return library_call(InvariantTensor, degree, entries), None
    raise ConfigError("invariant must be a name or an object")


def config_options(cfg: dict) -> tuple:
    """(background, h) of a model config, each validated."""
    background = cfg.get("background", "symbolic")
    if background not in ("zero", "symbolic"):
        raise ConfigError("background must be 'zero' or 'symbolic'")
    return background, parse_rational(cfg.get("h", 1), "h")


def algebra_and_tensor(cfg: dict) -> tuple:
    """(algebra, invariant tensor) of check-algebra, which checks the tensor
    at its own degree; the model's other values are checked first."""
    k = config_int(cfg.get("k", 2), 2, "k", MAX_K)
    config_options(cfg)
    g = config_algebra(cfg)
    return g, config_invariant(cfg, g, k)[0]


def build_model(cfg: dict) -> tuple:
    """Returns (CSData, invariant tensor name or None).  Every check that
    CSData makes on its inputs is made here first, as a ConfigError."""
    g = config_algebra(cfg)
    if g.dim > MAX_DIM:
        raise ConfigError(f"algebra: a model's dimension is at most {MAX_DIM}")
    k = config_int(cfg.get("k"), 2, "k", MAX_K)
    inv, inv_name = config_invariant(cfg, g, k)
    background, h = config_options(cfg)
    if inv.degree != k:
        raise ConfigError("invariant tensor degree must equal k")
    return CSData(g, inv, background=background, h=h), inv_name


def selftest_options(path: str | None) -> tuple:
    """(instances, dimensions) of the self-test config at path, if any."""
    cfg = load_config(path, SELFTEST) if path else {}
    instances = config_int(cfg.get("selftest_instances", 100), 1,
                           "selftest_instances")
    dims = cfg.get("dimensions", [1, 2, 3])
    if not (isinstance(dims, list) and dims
            and all(type(d) is int and 1 <= d <= MAX_N for d in dims)):
        raise ConfigError(
            f"dimensions must be a nonempty array of integers in 1..{MAX_N}")
    repeated = sorted(d for d, n in Counter(dims).items() if n > 1)
    if repeated:
        raise ConfigError(f"dimensions repeat {', '.join(map(str, repeated))}")
    return instances, dims
