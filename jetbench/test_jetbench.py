"""Tests of the benchmark's own arithmetic and checks (no jetvar run needed).

    python3 -m pytest -q jetbench
"""

import signal
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)
    rec.request = "r"
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds a recursive c [6, 7]
    a = rec.open("a")
    clock.now = 1
    b = rec.open("b")
    clock.now = 4
    rec.close(b, clock(), terms_in=2, terms_out=1)
    clock.now = 5
    c = rec.open("c")
    clock.now = 6
    c2 = rec.open("c")
    clock.now = 7
    rec.close(c2, clock())
    clock.now = 9
    rec.close(c, clock())
    clock.now = 10
    rec.close(a, clock())

    t = rec.totals()
    assert t["a"]["self_s"] == 3 and t["a"]["wall_s"] == 10
    assert t["b"]["self_s"] == 3 and t["b"]["terms_in"] == 2
    assert t["c"]["calls"] == 2
    assert t["c"]["self_s"] == 4          # 3 outer + 1 inner
    assert t["c"]["wall_s"] == 4          # the recursive call is not counted twice
    assert sum(v["self_s"] for v in t.values()) == t["a"]["wall_s"]
    parents = {(e["parent"], e["name"]) for e in rec.edge_list()}
    assert parents == {(None, "a"), ("a", "b"), ("a", "c"), ("c", "c")}


def test_wrapping_resolves_every_binding_and_reports_absent(monkeypatch):
    def mul_dicts(a, b, cap):
        return {(): Fraction(len(a) * len(b))}

    class Poly:
        def __init__(self, terms):
            self.terms = terms

        def term_count(self):
            return len(self.terms)

        def __add__(self, other):
            return Poly({**self.terms, **other.terms})

        __radd__ = __add__

    kernel = types.ModuleType("jetvar._fake_kernel")
    kernel.mul_dicts = mul_dicts
    poly = types.ModuleType("jetvar._fake_poly")
    poly.mul_dicts = mul_dicts
    poly.Poly = Poly
    monkeypatch.setitem(sys.modules, kernel.__name__, kernel)
    monkeypatch.setitem(sys.modules, poly.__name__, poly)

    rec = spans.Recorder()
    rec.install({"kernel.mul_dicts": ("mul_dicts",),
                 "polynomial.add": ("Poly.__add__",),
                 "gone.folded_away": ("no_such_function",)})
    assert kernel.mul_dicts is poly.mul_dicts is not mul_dicts
    assert Poly.__radd__ is Poly.__add__
    assert rec.absent == ["gone.folded_away"]

    rec.request = "r"
    poly.mul_dicts({1: Fraction(1), 2: Fraction(1)}, {3: Fraction(1)}, 10)
    Poly({1: 1}) + Poly({2: 1, 3: 1})
    t = rec.totals()
    assert t["kernel.mul_dicts"]["extra"] == 2   # |a| * |b| products
    assert t["kernel.mul_dicts"]["terms_in"] == 3
    assert t["polynomial.add"]["terms_in"] == 3
    assert t["polynomial.add"]["terms_out"] == 3


def test_term_count_shapes():
    raw = {((1, 2),): Fraction(1, 2), (): Fraction(3)}
    assert spans.term_count(raw) == 2
    assert spans.term_count((0, 1, 2)) == 0          # an indeterminate
    assert spans.term_count({"algebra": "su2"}) == 0  # a config
    assert spans.term_count(None) == 0


def test_percentile_is_nearest_rank():
    values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
    assert run.percentile(values, 0.9) == 9
    assert run.percentile(values, 0.5) == 5
    assert run.percentile(values, 1.0) == 10
    assert run.percentile([0.25], 0.9) == 0.25
    assert run.percentile(list(range(1, 21)), 0.9) == 18
    with pytest.raises(ValueError):
        run.percentile([], 0.9)


@pytest.fixture
def golden_root(tmp_path):
    (tmp_path / "tests" / "golden").mkdir(parents=True)
    text = b"[PASS] d_H(J - sigma) + u.(delta L) = 0\nmodified current = 0\n"
    (tmp_path / "tests" / "golden" / "case.txt").write_bytes(text)
    req = workloads.Request("case", ("verify-conservation",), 0,
                            (workloads.CONSERVATION,), golden="case.txt")
    return tmp_path, req, text


def test_golden_bytes_pass(golden_root):
    root, req, text = golden_root
    assert workloads.check(req, 0, text, root) is None


def test_one_flipped_byte_against_golden_is_a_failure(golden_root):
    root, req, text = golden_root
    flipped = bytearray(text)
    flipped[-2] ^= 1
    why = workloads.check(req, 0, bytes(flipped), root)
    assert why is not None and "golden" in why


def test_unchecked_verdicts_never_pass(golden_root):
    root, req, text = golden_root
    assert "exit code 3" in workloads.check(req, 3, b"", root)   # term cap
    assert "exit code" in workloads.check(req, "KeyError: 'x'", text, root)
    neg = workloads.Request("neg", ("check-algebra",), 1, ("[FAIL]",))
    assert workloads.check(neg, 1, b"nothing checked\n", root) is not None
    assert workloads.check(neg, 1, b"[FAIL] structure constants\n", root) is None


def test_determinism_gate_counts_a_changed_digest():
    store = {}
    first = [{"id": "a", "pass": "pass0", "sha256": "x"},
             {"id": "a", "pass": "pass1", "sha256": "x"}]
    assert run.determinism_errors(first, None, store) == {}
    later = [{"id": "a", "pass": "traced", "sha256": "y"}]
    assert run.determinism_errors(later, None, store) == {
        0: "stdout differs from an earlier run of the same request"}


def test_determinism_gate_counts_changed_term_counts():
    edge = {"request": "a", "parent": None, "name": "f", "calls": 1,
            "terms_in": 5, "terms_out": 2, "extra": 0}
    recs = [{"id": "a", "pass": "traced", "sha256": "x"}]
    store = {}
    assert run.determinism_errors(recs, {"edges": [edge]}, store) == {}
    changed = dict(edge, terms_out=3)
    assert run.determinism_errors(recs, {"edges": [changed]}, store) == {
        0: "traced term counts differ from an earlier run"}


def test_reference_seconds_scale_by_the_probe_around_each_interval(monkeypatch):
    samples = iter([0.01, 0.01, 0.05, 0.05, 0.025, 0.025])
    monkeypatch.setattr(speed, "probe", lambda: next(samples))
    bracket = speed.Bracket(warmup_s=0)
    # mean probe 0.03 s: a core at 1/6 of the reference speed
    assert bracket.close(2.0) == pytest.approx(2.0 * speed.REFERENCE_S / 0.03)
    # the burst after one interval is also the burst before the next
    assert bracket.close(1.0) == pytest.approx(1.0 * speed.REFERENCE_S / 0.0375)
    assert next(samples, None) is None


def test_sampled_interval_leaves_out_the_probe_it_ran(monkeypatch):
    monkeypatch.setattr(speed, "PERIOD_S", 0.01)
    handler = signal.getsignal(signal.SIGALRM)
    one_probe_s = min(speed.burst())
    bracket = speed.Bracket(warmup_s=0)
    # the body runs for 0.2 s of wall time, so the probe runs inside it
    with bracket.timed(sample=True) as timing:
        t0 = time.perf_counter()
        total = 0
        while time.perf_counter() - t0 < 0.2:
            total += sum(range(1000))
        body_s = time.perf_counter() - t0
    assert 0 < timing["wall_s"] < body_s - one_probe_s
    assert timing["ref_s"] > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_end_to_end_uses_per_request_medians():
    records = [{"id": i, "kind": k, "ref_seconds": s, "instances": n}
               for i, k, s, n in [("a1", "a", 1.0, 10), ("a2", "a", 3.0, 10),
                                  ("a3", "a", 2.0, 10), ("b", "b", 0.5, 1),
                                  ("b", "b", 0.7, 1)]]
    m = run.end_to_end(records, [0.2, 0.1, 0.3], 20.0)
    assert m["setup_s"] == (0.2, "s")
    assert m["verdict_s"] == (pytest.approx(1.3), "s")   # median of 2.0 and 0.6
    assert m["verdict_p90_s"] == (2.0, "s")
    assert m["instances_per_s"] == (pytest.approx(11 / 2.6), "1/s")
