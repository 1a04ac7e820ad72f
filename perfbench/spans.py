"""Span recorder for the traced run.

``Recorder.install`` wraps the public functions and methods of the cliffkit
layers from outside: module attributes, class attributes, and every name
another cliffkit module imported (``from .groups import zeta`` in ``cech``
binds its own copy, so it is rebound too).  Each call becomes a span with a
parent link and the current op id; spans stay in memory until ``write``.
``uninstall`` puts every original object back, and ``wrapped_names`` lets a
run prove that nothing is left wrapped.

Self time of a span is its duration minus the durations of its child spans.
Scalar arithmetic (``Fraction`` and the cliffkit scalar classes) gets no
span, so its cost lands in the self time of the calling layer.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("algebra", "linalg", "reprs", "groups", "spinors", "cech")
MARK = "__perfbench_span__"
_ARITH = {"__mul__", "__rmul__", "__add__", "__sub__", "__neg__", "__truediv__"}
# constructors that carry a per-layer count; other __init__s stay unwrapped
_INITS = {"groups.PseudoOrthogonalMatrix", "groups.Versor"}


def _inside(stack, name):
    return any(frame[1] == name for frame in stack)


def _mul(rec, args, result, frame):
    a, b = args[0], args[1]
    if type(b) is type(a):
        rec.counts["algebra.products"] += 1
        rec.counts["algebra.term_pairs"] += len(a.terms) * len(b.terms)


def _invert(rec, args, result, frame):
    rec.counts["algebra.invert.calls"] += 1
    rec.counts["algebra.invert.useful"] += result is not None
    if _inside(rec.stack, "spinors.find_conjugator"):
        rec.counts["spinors.conjugator.inverts"] += 1


def _rref(rec, args, result, frame):
    rows = args[0]
    rec.counts["linalg.rref.calls"] += 1
    rec.counts["linalg.rref.cells"] += len(rows) * len(rows[0]) if len(rows) else 0


def _matmul(rec, args, result, frame):
    a, b = args
    rec.counts["linalg.matmul.calls"] += 1
    rec.counts["linalg.matmul.mults"] += len(a) * len(b) * len(b[0])


def _compile(rec, args, result, frame):
    rec.counts["reprs.compile.calls"] += 1
    rec.counts["reprs.compile.hits"] += frame[4] == 0


def _cd(rec, args, result, frame):
    rec.counts["groups.cd.calls"] += 1
    rec.counts["groups.cd.reflections"] += result.r
    rec.counts["groups.cd.fallbacks"] += result.fallback_count


def _left_ideal(rec, args, result, frame):
    rec.counts["spinors.left_ideal.calls"] += 1
    if _inside(rec.stack, "spinors.primitive_idempotent"):
        rec.counts["spinors.primitive.tried"] += 1


def _cech_lift(rec, args, result, frame):
    rec.counts["cech.lift.calls"] += 1
    rec.counts["cech.lift.edges"] += len(args[0].complex.edges)


def _count(key, amount=None):
    def hook(rec, args, result, frame):
        rec.counts[key] += 1 if amount is None else amount(args, result)
    return hook


HOOKS = {
    "algebra.Multivector.__mul__": _mul,
    "algebra.invert": _invert,
    "linalg.rref": _rref,
    "linalg.solve": _count("linalg.solve.calls"),
    "linalg.nullspace": _count("linalg.nullspace.calls"),
    "linalg.matmul": _matmul,
    "linalg.SparseRankAccumulator.add": _count("linalg.rank.adds"),
    "reprs.compile_rep": _compile,
    "reprs.compile_complex_rep": _compile,
    "reprs.double_rep": _count("reprs.double_rep.calls"),
    "reprs.Representation.verify": _count("reprs.verify.calls"),
    "reprs.solve_intertwiner": _count("reprs.intertwiner.calls"),
    "groups.zeta": _count("groups.zeta.calls"),
    "groups.cartan_dieudonne": _cd,
    "groups.PseudoOrthogonalMatrix.__init__": _count("groups.pom.constructed"),
    "groups.Versor.__init__": _count("groups.versor.factors", lambda a, r: len(a[0].factors)),
    "spinors.left_ideal": _left_ideal,
    "spinors.primitive_idempotent": _count("spinors.primitive.found"),
    "spinors.find_conjugator": _count("spinors.conjugator.found", lambda a, r: r is not None),
    "cech.pin_lift_cocycle": _cech_lift,
}


class Recorder:
    def __init__(self):
        self.spans = []  # (span id, parent id, op id, name, start, end)
        self.stack = []  # open spans: [id, name, layer, child seconds, child count]
        self.layer_self = defaultdict(float)
        self.counts = Counter()
        self.op_id = 0
        self._next_id = 0
        self._patches = []

    # -- recording --------------------------------------------------------

    def _wrap(self, layer, name, fn):
        hook = HOOKS.get(name)
        rec = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = rec.stack
            parent = stack[-1][0] if stack else -1
            sid = rec._next_id
            rec._next_id += 1
            frame = [sid, name, layer, 0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                rec.layer_self[layer] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                    stack[-1][4] += 1
                rec.spans.append((sid, parent, rec.op_id, name, t0, t1))
            if hook is not None:
                hook(rec, args, result, frame)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, name)
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- installation -----------------------------------------------------

    def install(self, extra=()):
        """Wrap every layer; ``extra`` lists (layer, module, function name)."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        replaced = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = sys.modules["cliffkit." + layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, f"{layer}.{name}", obj)
                    replaced[id(obj)] = (obj, wrapper)
                    self._patch(mod, name, wrapper)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for layer, mod, name in extra:
            obj = getattr(mod, name)
            wrapper = self._wrap(layer, f"{layer}.{name}", obj)
            replaced[id(obj)] = (obj, wrapper)
            self._patch(mod, name, wrapper)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cliffkit" or modname.startswith("cliffkit.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def _install_class(self, layer, cls):
        qual = f"{layer}.{cls.__name__}"
        for name, obj in list(vars(cls).items()):
            wanted = (not name.startswith("_") or name in _ARITH
                      or (name == "__init__" and qual in _INITS))
            if not wanted:
                continue
            if isinstance(obj, classmethod):
                self._patch(cls, name, classmethod(self._wrap(layer, f"{qual}.{name}", obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, name, self._wrap(layer, f"{qual}.{name}", obj))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self):
        return {"layer_self": dict(self.layer_self), "counts": dict(self.counts)}


def wrapped_names():
    """Names of cliffkit objects that still carry a span wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "cliffkit" or modname.startswith("cliffkit.")):
            continue
        for name, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{modname}.{name}")
            elif inspect.isclass(obj) and obj.__module__ == modname:
                for attr, member in vars(obj).items():
                    func = member.__func__ if isinstance(member, classmethod) else member
                    if hasattr(func, MARK):
                        found.append(f"{modname}.{name}.{attr}")
    return found


PER_LAYER_COUNTS = (
    "algebra.products", "algebra.term_pairs", "algebra.invert.calls",
    "linalg.rref.calls", "linalg.rref.cells", "linalg.solve.calls",
    "linalg.nullspace.calls", "linalg.matmul.calls", "linalg.matmul.mults",
    "linalg.rank.adds",
    "reprs.compile.calls", "reprs.compile.hits", "reprs.double_rep.calls",
    "reprs.verify.calls", "reprs.intertwiner.calls",
    "groups.zeta.calls", "groups.cd.calls", "groups.cd.reflections",
    "groups.cd.fallbacks", "groups.pom.constructed", "groups.versor.factors",
    "spinors.left_ideal.calls",
    "cech.lift.calls", "cech.lift.edges",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(layer_self, counts):
    """Per-layer metric values (name -> (value, unit)) from merged results."""
    out = {name: (counts.get(name, 0), "count") for name in PER_LAYER_COUNTS}
    out["algebra.invert.useful_ratio"] = (
        _ratio(counts.get("algebra.invert.useful", 0), counts.get("algebra.invert.calls", 0)), "ratio")
    out["spinors.primitive.useful_ratio"] = (
        _ratio(counts.get("spinors.primitive.found", 0), counts.get("spinors.primitive.tried", 0)), "ratio")
    out["spinors.conjugator.useful_ratio"] = (
        _ratio(counts.get("spinors.conjugator.found", 0), counts.get("spinors.conjugator.inverts", 0)), "ratio")
    for layer in LAYERS + ("cli",):
        out[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    return out
