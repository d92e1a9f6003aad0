"""In-memory span recorder that wraps jetvar functions from outside the package.

A span is one call of a wrapped function.  Spans are aggregated as they close,
keyed by (request, parent span name, span name), so memory stays bounded even
when a hot function runs a million times.  For each key the recorder keeps:

    calls      number of spans
    total_s    summed duration (inclusive of child spans)
    self_s     summed duration minus the part covered by direct child spans
    terms_in   summed term count of the arguments (Poly, Form, raw term dicts)
    terms_out  summed term count of the return value
    extra      a per-target count (coefficient products for mul_dicts)

Per span name it also keeps wall_s: the duration of the outermost spans of
that name only, so a recursive function is not counted twice.

Targets are resolved by name in every loaded ``jetvar.*`` module that binds
them, so a function that moves between modules is still found; a target that
no module binds is reported as absent rather than raising.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from fractions import Fraction

# Span name -> the attributes it wraps.  "Class.attr" names a method of a
# class defined in some jetvar module; a bare name is a module-level function.
# Every public function in a layer module's __all__ is added by layer_targets().
NAMED_TARGETS = {
    "cli.main": ("main",),
    "cli.load_config": ("load_config",),
    "cli.build_model": ("build_model",),
    "cli.render": ("show_poly", "show_form"),
    "algebra.load": ("builtin_algebra", "load_lie_algebra"),
    "jets.field_coords": ("JetContext.field_coords",),
    "variational.from_horizontal_form": ("Lagrangian.from_horizontal_form",),
    "polynomial.add": ("Poly.__add__",),
    "polynomial.mul": ("Poly.__mul__",),
    "polynomial.pow": ("Poly.__pow__",),
    "polynomial.partial": ("Poly.partial",),
    "polynomial.derive_symbols": ("Poly.derive_symbols",),
    "polynomial.substitute": ("Poly.substitute",),
    "polynomial.integrate_t": ("Poly.integrate_t",),
    "polynomial.str": ("Poly.__str__",),
    "kernel.mul_dicts": ("mul_dicts",),
    "kernel.add_dicts": ("add_dicts",),
}

# Layer name -> module whose __all__ lists its public functions.  The kernel
# has no __all__; its two entry points are named above.
LAYER_MODULES = {
    "cli": "jetvar.cli",
    "algebra": "jetvar.algebra",
    "chern_simons": "jetvar.chern_simons",
    "variational": "jetvar.variational",
    "jets": "jetvar.jets",
    "forms": "jetvar.forms",
    "polynomial": "jetvar.polynomial",
    "kernel": None,
}

# Per-target counts beyond term sizes: mul_dicts(a, b, cap) multiplies every
# coefficient of a by every coefficient of b.
EXTRA = {"kernel.mul_dicts": lambda a, b, *rest: len(a) * len(b)}


def term_count(obj) -> int:
    """Terms held by a Poly, Form, Lagrangian, Current, raw term dict or a
    list/tuple/dict of those; 0 for anything else."""
    count = _COUNTERS.get(type(obj))
    if count is None:
        count = _COUNTERS[type(obj)] = _counter_for(type(obj))
    return count(obj)


def _zero(obj) -> int:
    return 0


def _sequence(obj) -> int:
    if not obj or isinstance(obj[0], int):  # an indeterminate is a tuple of ints
        return 0
    return sum(map(term_count, obj))


def _mapping(obj) -> int:
    if not obj:
        return 0
    first = next(iter(obj.values()))
    if isinstance(first, (int, Fraction)):
        return len(obj)  # raw monomial -> coefficient dict
    return sum(map(term_count, obj.values()))


def _holder(obj) -> int:
    density = getattr(obj, "density", None)  # Lagrangian
    if density is not None:
        return term_count(density)
    comps = getattr(obj, "components", None)  # Current
    if isinstance(comps, list):
        return term_count(comps)
    return 0


def _counter_for(cls):
    if callable(getattr(cls, "term_count", None)):
        return cls.term_count
    if issubclass(cls, (list, tuple)):
        return _sequence
    if issubclass(cls, dict):
        return _mapping
    if issubclass(cls, (int, float, str, bytes, Fraction, type(None))):
        return _zero
    return _holder


_COUNTERS: dict = {}


class Recorder:
    """Collects spans; `clock` is injectable so tests can drive it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.request = None
        self.stack: list = []        # open spans: [name, start, child_s]
        self.edges: dict = {}        # (request, parent, name) -> stats list
        self.wall: dict = {}         # name -> outermost inclusive seconds
        self.depth: dict = {}        # name -> number of open spans
        self.present: dict = {}      # span name -> "module.attr" bindings
        self.absent: list = []       # span names no module binds

    # -- span bookkeeping ------------------------------------------------

    def open(self, name: str) -> list:
        frame = [name, self.clock(), 0.0]
        self.stack.append(frame)
        self.depth[name] = self.depth.get(name, 0) + 1
        return frame

    def close(self, frame: list, end: float, terms_in: int = 0,
              terms_out: int = 0, extra: int = 0):
        name, start, child_s = frame
        self.stack.pop()
        dur = end - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][2] += dur
        key = (self.request, parent, name)
        st = self.edges.get(key)
        if st is None:
            st = self.edges[key] = [0, 0.0, 0.0, 0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child_s
        st[3] += terms_in
        st[4] += terms_out
        st[5] += extra
        d = self.depth[name] - 1
        self.depth[name] = d
        if d == 0:
            self.wall[name] = self.wall.get(name, 0.0) + dur

    def totals(self) -> dict:
        """Per span name: calls, wall_s, self_s, terms_in, terms_out, extra."""
        out: dict = {}
        for (_, _, name), st in self.edges.items():
            t = out.setdefault(name, {"calls": 0, "wall_s": self.wall.get(name, 0.0),
                                      "self_s": 0.0, "terms_in": 0,
                                      "terms_out": 0, "extra": 0})
            t["calls"] += st[0]
            t["self_s"] += st[2]
            t["terms_in"] += st[3]
            t["terms_out"] += st[4]
            t["extra"] += st[5]
        return out

    def edge_list(self) -> list:
        return [{"request": req, "parent": parent, "name": name, "calls": st[0],
                 "total_s": st[1], "self_s": st[2], "terms_in": st[3],
                 "terms_out": st[4], "extra": st[5]}
                for (req, parent, name), st in self.edges.items()]

    # -- wrapping ----------------------------------------------------------

    def wrapper(self, name: str, fn, extra=None):
        open_, close, clock = self.open, self.close, self.clock

        def traced(*args, **kwargs):
            frame = open_(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                # counted after the span ends, so a callee's bookkeeping is
                # charged to its caller's self time, not its own
                end = clock()
                n_in = sum(map(term_count, args))
                if kwargs:
                    n_in += sum(map(term_count, kwargs.values()))
                close(frame, end, n_in, term_count(out),
                      extra(*args) if extra is not None else 0)

        functools.update_wrapper(traced, fn)
        traced.jetbench_span = name
        return traced

    def install(self, targets: dict):
        """Wraps every target in every loaded jetvar module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "jetvar" or n.startswith("jetvar.")) and m is not None]
        for span, attrs in targets.items():
            bound = []
            for attr in attrs:
                if "." in attr:
                    bound += _wrap_method(self, span, attr, modules)
                else:
                    bound += _wrap_function(self, span, attr, modules)
            if bound:
                self.present[span] = sorted(bound)
            else:
                self.absent.append(span)


def layer_targets() -> dict:
    """NAMED_TARGETS plus every function listed in a layer module's __all__."""
    targets = dict(NAMED_TARGETS)
    named_attrs = {a for attrs in NAMED_TARGETS.values() for a in attrs}
    for layer, modname in LAYER_MODULES.items():
        mod = sys.modules.get(modname) if modname else None
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if isinstance(obj, types.FunctionType) and attr not in named_attrs:
                targets.setdefault(f"{layer}.{attr}", (attr,))
    return targets


def _wrap_function(rec: Recorder, span: str, attr: str, modules: list) -> list:
    originals = []
    for mod in modules:
        obj = vars(mod).get(attr)
        if callable(obj) and not isinstance(obj, type) and not _is_traced(obj) \
                and all(obj is not o for o in originals):
            originals.append(obj)
    bound = []
    for fn in originals:
        traced = rec.wrapper(span, fn, EXTRA.get(span))
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, name, traced)
                    bound.append(f"{mod.__name__}.{name}")
    return bound


def _wrap_method(rec: Recorder, span: str, attr: str, modules: list) -> list:
    cls_name, meth = attr.split(".", 1)
    classes = []
    for mod in modules:
        cls = vars(mod).get(cls_name)
        if isinstance(cls, type) and all(cls is not c for c in classes):
            classes.append(cls)
    bound = []
    for cls in classes:
        raw = cls.__dict__.get(meth)
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if not callable(fn) or _is_traced(fn):
            continue
        traced = rec.wrapper(span, fn, EXTRA.get(span))
        if isinstance(raw, classmethod):
            traced = classmethod(traced)
        elif isinstance(raw, staticmethod):
            traced = staticmethod(traced)
        # also rebinds aliases such as __radd__ = __add__
        for name, val in list(cls.__dict__.items()):
            if val is raw:
                setattr(cls, name, traced)
                bound.append(f"{cls.__module__}.{cls.__qualname__}.{name}")
    return bound


def _is_traced(fn) -> bool:
    return getattr(fn, "jetbench_span", None) is not None
