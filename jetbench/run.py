"""jetvar benchmark: one command, three workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 jetbench/run.py --workload conservation-5d|selftest|cli-3d \
        --seed N --seconds T --trace 0|1

The workload runs in a child interpreter (worker.py) that imports the
checkout's src/jetvar with JETVAR_KERNEL and JETVAR_MAX_TERMS unset and
PYTHONHASHSEED taken from --seed.  Every verdict is checked against its known
answer (workloads.py).  stdout digests must repeat within a run, between its
traced and untraced passes, and across runs of the same source tree; traced
term counts must repeat likewise.  The record of earlier runs is kept in
.jetbench/ at the checkout root, as are the results and trace of each run.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics -- the end-to-end ones untraced (--trace 0), the per-layer ones from
a traced run (--trace 1).  Exit code 0 means the benchmark ran; correctness
is reported in the JSON.  A checkout without src/jetvar exits 2.

Times are reference seconds (speed.py): wall seconds scaled by a fixed
pure-Python probe timed right before and after each request and each set-up,
and every 0.1 s inside each untraced request, so that the drift of a shared
host's core speed cancels out.  The wall-clock verdict median is printed above
the JSON line for comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".jetbench"
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 170
LAYERS = ("cli", "algebra", "chern_simons", "variational", "jets", "forms",
          "polynomial", "kernel")

# Per-layer metrics read straight from the trace totals: (span, stat, unit).
SPAN_METRICS = [
    ("polynomial.partial", "calls", "count"),
    ("polynomial.partial", "self_s", "s"),
    ("polynomial.derive_symbols", "self_s", "s"),
    ("jets.total_derivative", "calls", "count"),
    ("jets.total_derivative", "self_s", "s"),
    ("jets.horizontal_differential", "wall_s", "s"),
    ("jets.horizontal_differential", "terms_in", "count"),
    ("kernel.mul_dicts", "self_s", "s"),
    ("kernel.add_dicts", "self_s", "s"),
    ("kernel.add_dicts", "terms_in", "count"),
    ("polynomial.mul", "calls", "count"),
    ("polynomial.add", "calls", "count"),
    ("polynomial.max_terms", "calls", "count"),
    ("jets.field_coords", "calls", "count"),
    ("polynomial.substitute", "self_s", "s"),
    ("polynomial.integrate_t", "self_s", "s"),
    ("variational.fiber_homotopy", "wall_s", "s"),
    ("variational.fiber_homotopy", "terms_out", "count"),
    ("forms.wedge", "calls", "count"),
    ("forms.wedge", "self_s", "s"),
    ("forms.exterior_d", "self_s", "s"),
    ("forms.contract", "self_s", "s"),
    ("forms.pullback", "self_s", "s"),
    ("chern_simons.cs_form", "wall_s", "s"),
    ("chern_simons.cs_form", "terms_out", "count"),
    ("chern_simons.characteristic_at_B", "wall_s", "s"),
    ("variational.sigma_boundary_term", "wall_s", "s"),
    ("variational.conservation_check", "wall_s", "s"),
    ("variational.conservation_check", "terms_out", "count"),
    ("variational.lie_derivative_lagrangian", "wall_s", "s"),
    ("variational.euler_lagrange", "wall_s", "s"),
    ("variational.first_variational_check", "calls", "count"),
    ("variational.first_variational_check", "wall_s", "s"),
    ("jets.prolong", "wall_s", "s"),
    ("algebra.load", "wall_s", "s"),
    ("algebra.check_invariant_tensor", "wall_s", "s"),
    ("cli.build_model", "wall_s", "s"),
    ("cli.render", "self_s", "s"),
    ("polynomial.str", "self_s", "s"),
]


# -- statistics ------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    sample at or below it (q in (0, 1])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))  # ceil(n * q), at least 1
    return ordered[int(rank) - 1]


# -- environment -------------------------------------------------------------


def layout_problem(root: Path) -> str | None:
    for rel in ("src/jetvar/__init__.py", "src/jetvar/cli.py", "configs",
                "tests/golden"):
        if not (root / rel).exists():
            return f"{rel} not found under {root}; run from a jetvar checkout"
    return None


def source_digest(root: Path) -> str:
    """Digest of everything a verdict depends on: sources and configs."""
    h = hashlib.sha256()
    for base in (root / "src", root / "configs", BENCH_DIR / "configs"):
        for path in sorted(base.rglob("*")):
            if path.suffix in (".py", ".pyx", ".json") and path.is_file():
                h.update(str(path.relative_to(root)).encode() + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def child_env(root: Path, seed: int) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("JETVAR_KERNEL", "JETVAR_MAX_TERMS", "PYTHONPATH",
                        "PYTHONHOME", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "n/a (not a git checkout)"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=30,
                           capture_output=True, text=True)
    except OSError:
        return "n/a"
    return r.stdout.strip() or "n/a"


# -- the two kinds of child --------------------------------------------------

SETUP_CODE = """\
import sys
import jetvar
import jetvar.cli as cli
for path in sys.argv[1:]:
    cfg = cli.load_config(path)
    if "algebra" in cfg:
        cli.build_model(cfg)
print("ready", flush=True)
"""


def time_setup(root: Path, env: dict, workload: str,
               bracket: speed.Bracket) -> float:
    """Reference seconds from starting a fresh interpreter to its built
    models."""
    cmd = [sys.executable, "-c", SETUP_CODE, *workloads.SETUP_CONFIGS[workload]]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {err[-2000:]}")
    return bracket.close(seconds)


def run_worker(root: Path, env: dict, args, out: Path) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    r = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"worker failed ({r.returncode}): {r.stderr[-2000:]}")
    return json.loads(out.read_text())


# -- checks --------------------------------------------------------------------


def count_signature(edges: list) -> dict:
    """request -> span -> [calls, terms_in, terms_out, extra]: what must
    repeat exactly between traced runs of the same request."""
    sig: dict = {}
    for e in edges:
        row = sig.setdefault(e["request"], {}).setdefault(e["name"], [0, 0, 0, 0])
        for i, key in enumerate(("calls", "terms_in", "terms_out", "extra")):
            row[i] += e[key]
    return sig


def determinism_errors(records: list, trace: dict | None, store: dict) -> dict:
    """Compares stdout digests (and traced counts) with the first occurrence
    in this run and in earlier runs recorded in `store`, which it updates.
    Returns record index -> reason."""
    seen = store.setdefault("stdout", {})
    errors = {}
    for i, rec in enumerate(records):
        first = seen.setdefault(rec["id"], rec["sha256"])
        if rec["sha256"] != first:
            errors[i] = "stdout differs from an earlier run of the same request"
    if trace is not None:
        counts = store.setdefault("counts", {})
        for req, sig in count_signature(trace["edges"]).items():
            first = counts.setdefault(req, sig)
            if first != sig:
                for i, rec in enumerate(records):
                    if rec["id"] == req and rec["pass"] == "traced":
                        errors[i] = "traced term counts differ from an earlier run"
    return errors


def load_store(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def save_store(path: Path, store: dict):
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, path)


# -- metrics -------------------------------------------------------------------


def request_medians(records: list, key: str = "ref_seconds") -> list:
    """Median seconds of each kind of request over its repeats in the run.

    Percentiles are taken over these, not over raw samples: cli-3d mixes
    requests whose times differ 500-fold, and a percentile of the raw samples
    lands on the boundary between two request types and jumps between them
    from run to run.  The selftest's requests, one per instance seed, are one
    kind: their p90 would measure which seeds the run drew."""
    by_kind: dict = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r[key])
    return [statistics.median(v) for v in by_kind.values()]


def end_to_end(records: list, setups: list, peak_rss_mb: float) -> dict:
    per_request = request_medians(records)
    # one pass of the workload with every request at its median time
    instances = {r["kind"]: r["instances"] for r in records}
    return {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s": (statistics.median(per_request), "s"),
        "verdict_p90_s": (percentile(per_request, 0.9), "s"),
        "instances_per_s": (sum(instances.values()) / sum(per_request), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(records: list, trace: dict, failed: int) -> dict:
    totals = trace["totals"]

    def stat(span, key):
        return totals.get(span, {}).get(key, 0)

    m = {f"{span}.{key}": (stat(span, key), unit) for span, key, unit in SPAN_METRICS}
    scanned = stat("polynomial.partial", "terms_in")
    m["polynomial.partial.yield_ratio"] = (
        stat("polynomial.partial", "terms_out") / scanned if scanned else 0.0, "ratio")
    m["kernel.mul_dicts.products"] = (stat("kernel.mul_dicts", "extra"), "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(t["self_s"] for name, t in totals.items()
                                    if name.split(".")[0] == layer), "s")
    traced = [r for r in records if r["pass"] == "traced"]
    untraced = [r for r in records if r["pass"] == "untraced"]
    traced_s = sum(r["seconds"] for r in traced)
    m["cli.stdout_bytes"] = (sum(r["stdout_bytes"] for r in traced), "bytes")
    m["trace.overhead_ratio"] = (statistics.median(request_medians(traced))
                                 / statistics.median(request_medians(untraced)),
                                 "ratio")
    m["trace.self_coverage"] = (sum(e["self_s"] for e in trace["edges"])
                                / traced_s, "ratio")
    m["failed_ratio"] = (failed / len(records), "ratio")
    return m


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    problem = layout_problem(root)
    if problem:
        print(f"jetbench: {problem}", file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    env = child_env(root, args.seed)
    digest = source_digest(root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    bracket = speed.Bracket()
    setups = [] if args.trace else [time_setup(root, env, args.workload, bracket)
                                    for _ in range(SETUP_RUNS)]
    result = run_worker(root, env, args, out_dir / f"result-{tag}.json")
    records, trace = result["records"], result["trace"]
    environment = {"python": result["python"], "nproc": os.cpu_count(),
                   "backend": result["backend"], "commit": git_commit(root),
                   "source": digest[:16], "machine": platform.machine(),
                   "jetvar": result["jetvar_file"]}

    store_path = out_dir / f"answers-{digest[:16]}.json"
    store = load_store(store_path)
    errors = {i: r["error"] for i, r in enumerate(records) if r["error"]}
    for i, why in determinism_errors(records, trace, store).items():
        errors.setdefault(i, why)
    save_store(store_path, store)
    failed = len(errors)

    if args.trace:
        metrics = per_layer(records, trace, failed)
        (out_dir / f"trace-{tag}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "environment": environment, **trace}, indent=1))
        # a traced span cannot outlast the requests that contain it
        sane = metrics["trace.self_coverage"][0] <= 1.0 + 1e-9
    else:
        metrics = end_to_end(records, setups, result["peak_rss_mb"])
        sane = True

    print("  ".join(f"{k} {v}" for k, v in environment.items()))
    print(f"requests {len(records)}  set-up samples {len(setups)}  "
          f"wall-clock verdict median "
          f"{statistics.median(request_medians(records, 'seconds')):.6g} s")
    for i in sorted(errors):
        print(f"FAILED {records[i]['id']} ({records[i]['pass']}): {errors[i]}")
    if trace is not None and trace["absent"]:
        print("absent trace targets: " + ", ".join(trace["absent"]))
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and sane,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
