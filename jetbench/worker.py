"""Runs one workload in this process and writes its raw results as JSON.

run.py starts it with PYTHONPATH set to the checkout's src/, so the jetvar
under test is the checkout's own:

    python3 jetbench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --out results.json

Every request goes through jetvar.cli.main with stdout and stderr captured,
and timed with the speed probe (speed.py), which gives its reference seconds
next to its wall seconds.  Untraced, whole passes of the workload
repeat until --seconds have passed (at least one pass).  Traced, one untraced
pass runs first, then one pass with every target in spans.py wrapped.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

import spans
import speed
import workloads


def run_request(cli, req: workloads.Request, bracket: speed.Bracket,
                sample: bool):
    """(exit code or error text, stdout bytes, timing) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with bracket.timed(sample) as timing:
            try:
                code = cli.main(list(req.argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # a traceback is a wrong verdict, not a crash
                code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue().encode("utf-8"), timing


def run_pass(cli, reqs: list, root: Path, label: str, records: list,
             bracket: speed.Bracket, recorder=None):
    """Runs one pass; the probe samples inside requests only when no recorder
    is installed, so that it never runs inside a traced span."""
    for req in reqs:
        if recorder is not None:
            recorder.request = req.id
        code, stdout, timing = run_request(cli, req, bracket, recorder is None)
        records.append({
            "id": req.id, "kind": req.kind or req.id, "pass": label, "exit": code,
            "seconds": timing["wall_s"], "ref_seconds": timing["ref_s"],
            "instances": req.instances, "stdout_bytes": len(stdout),
            "sha256": hashlib.sha256(stdout).hexdigest(),
            "error": workloads.check(req, code, stdout, root)})


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    root = Path.cwd()
    import jetvar
    import jetvar.cli as cli
    src = (root / "src").resolve()
    if src not in Path(jetvar.__file__).resolve().parents:
        print(f"jetvar imported from {jetvar.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    records: list = []
    gen = workloads.passes(args.workload, args.seed)
    trace = None
    bracket = speed.Bracket()
    if args.trace:
        run_pass(cli, next(gen), root, "untraced", records, bracket)
        recorder = spans.Recorder()
        recorder.install(spans.layer_targets())
        run_pass(cli, next(gen), root, "traced", records, bracket, recorder)
        trace = {"totals": recorder.totals(), "edges": recorder.edge_list(),
                 "present": recorder.present, "absent": recorder.absent}
    else:
        t0 = time.perf_counter()
        n = 0
        while n == 0 or time.perf_counter() - t0 < args.seconds:
            run_pass(cli, next(gen), root, f"pass{n}", records, bracket)
            n += 1

    result = {
        "python": platform.python_version(),
        "backend": getattr(jetvar, "BACKEND", "unknown"),
        "jetvar_file": str(Path(jetvar.__file__).resolve().relative_to(root)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
        "trace": trace,
    }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
