"""Workload request lists and their known answers.

A request is one CLI invocation.  Its known answer is the exit code, the
marker lines that prove the exact check ran and gave that verdict, and, where
tests/golden holds a file for it, the exact stdout bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

CONSERVATION = "[PASS] d_H(J - sigma) + u.(delta L) = 0"
TRANSGRESSION = "[PASS] d(transgression form) = P(F) - P(F_B)"
BACKGROUND = "[PASS] Euler-Lagrange operator is background-independent"
NOT_INVARIANT = "[FAIL] invariant tensor ad-invariance"

# Instances per first-variational-selftest request (about 0.3 s on one core).
SELFTEST_INSTANCES = json.loads(
    (BENCH_DIR / "configs" / "selftest.json").read_text())["selftest_instances"]


@dataclass(frozen=True)
class Request:
    id: str
    argv: tuple
    exit_code: int
    markers: tuple = ()
    golden: str | None = None   # file name under tests/golden
    instances: int = 1          # checked instances, for instances_per_s
    kind: str = ""              # requests timed as one; the id when empty


def _cli_requests() -> list:
    """Five model subcommands on u1_k2, su2_k2 (3D) and u1_k3 (abelian 5D),
    plus known negatives that must exit 1."""
    golden = {
        ("check-algebra", "su2_k2"): "check_algebra_su2.txt",
        ("transgression", "su2_k2"): "transgression_su2_k2.txt",
        ("euler-lagrange", "u1_k2"): "euler_lagrange_u1_k2.txt",
        ("noether", "u1_k2"): "noether_u1_k2.txt",
        ("verify-conservation", "u1_k2"): "verify_conservation_u1_k2.txt",
        ("verify-conservation", "su2_k2"): "verify_conservation_su2_k2.txt",
    }
    commands = {
        "check-algebra": ((), ("[PASS] Jacobi identity",
                               "[PASS] invariant tensor ad-invariance")),
        "transgression": ((), (TRANSGRESSION,
                               "[PASS] invariant tensor ad-invariance")),
        "euler-lagrange": (("--compare-background",), (BACKGROUND,)),
        "noether": ((), ("J^0 = ", "Lie derivative of the Lagrangian")),
        "verify-conservation": ((), (CONSERVATION,)),
    }
    out = []
    for model in ("u1_k2", "su2_k2", "u1_k3"):
        for cmd, (flags, markers) in commands.items():
            out.append(Request(
                id=f"{cmd}:{model}",
                argv=(cmd, "--config", f"configs/{model}.json") + flags,
                exit_code=0, markers=markers, golden=golden.get((cmd, model))))
    su2_unit = _own_config("su2_unit.json")
    jacobi = _own_config("jacobi_violation.json")
    out += [
        Request("check-algebra:su2_unit", ("check-algebra", "--config", su2_unit),
                1, (NOT_INVARIANT,)),
        Request("transgression:su2_unit", ("transgression", "--config", su2_unit),
                1, (NOT_INVARIANT,)),
        Request("verify-conservation:su2_unit",
                ("verify-conservation", "--config", su2_unit), 1, ("[FAIL]",)),
        Request("check-algebra:jacobi", ("check-algebra", "--config", jacobi),
                1, ("[FAIL] structure constants",)),
        Request("transgression:jacobi", ("transgression", "--config", jacobi),
                1, ("[FAIL]",)),
    ]
    return out


def _own_config(name: str) -> str:
    """Path of a config shipped with the benchmark, relative to the checkout."""
    return f"{BENCH_DIR.name}/configs/{name}"


def passes(workload: str, seed: int):
    """Yields the request list of pass 0, 1, 2, ... for a workload and seed."""
    rng = random.Random(seed)
    if workload == "conservation-5d":
        req = Request("verify-conservation:u1su2_k3",
                      ("verify-conservation", "--config", "configs/u1su2_k3.json"),
                      0, (CONSERVATION,))
        while True:
            yield [req]
    elif workload == "selftest":
        # a fresh instance seed per pass, so that a run's median covers many
        # instance sets rather than the cost of one
        while True:
            sub = rng.randrange(2**31)
            yield [Request(
                f"selftest:{sub}",
                ("first-variational-selftest", "--seed", str(sub),
                 "--config", _own_config("selftest.json")),
                0, (f"[PASS] first variational formula on {SELFTEST_INSTANCES} "
                    f"random instances (seed {sub})",),
                instances=SELFTEST_INSTANCES, kind="selftest")]
    elif workload == "cli-3d":
        reqs = _cli_requests()
        while True:
            rng.shuffle(reqs)
            yield list(reqs)
    else:
        raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("conservation-5d", "selftest", "cli-3d")

# Configs each workload's set-up builds (load_config, then build_model when
# the config names an algebra).
SETUP_CONFIGS = {
    "conservation-5d": ("configs/u1su2_k3.json",),
    "selftest": (_own_config("selftest.json"),),
    "cli-3d": ("configs/u1_k2.json", "configs/su2_k2.json", "configs/u1_k3.json"),
}


def check(req: Request, exit_code, stdout: bytes, root: Path) -> str | None:
    """Returns why the verdict differs from the known answer, or None.

    Exit code, markers and golden bytes are all checked, so a request that
    ended early (a term-cap exit 3, a traceback) never counts as passed.
    """
    if exit_code != req.exit_code:
        return f"exit code {exit_code}, expected {req.exit_code}"
    text = stdout.decode("utf-8", "replace")
    for marker in req.markers:
        if marker not in text:
            return f"missing {marker!r}"
    if req.exit_code == 0 and "[FAIL]" in text:
        return "stdout reports [FAIL] on a passing request"
    golden = root / "tests" / "golden" / req.golden if req.golden else None
    if golden is not None and golden.is_file():
        if stdout != golden.read_bytes():
            return f"stdout differs from tests/golden/{req.golden}"
    return None
