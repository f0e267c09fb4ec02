"""Per-layer spans and counters, recorded from outside the program.

``install`` replaces each layer's public function with a timing wrapper
in every ``mlsysmap`` module that binds it, so calls made inside the
package (``cli.main`` -> ``trace`` -> ``fit_mechanisms`` -> ...) are timed
without editing ``src/``. ``uninstall`` puts the originals back. A
layer's self time is its span minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# layer name -> (defining module, public functions that make up the layer)
LAYERS = {
    "cli.main": ("mlsysmap.cli", ("main",)),
    "msmformat.parse_map": ("mlsysmap.msmformat", ("parse_map",)),
    "dataset.load_csv": ("mlsysmap.dataset", ("load_csv",)),
    "dataset.view_matrix": ("mlsysmap.dataset", ("view_matrix",)),
    "mechanisms.fit_mechanisms": ("mlsysmap.mechanisms", ("fit_mechanisms",)),
    "mechanisms.fit_discretization": ("mlsysmap.mechanisms", ("fit_discretization",)),
    "mechanisms.shift_test": ("mlsysmap.mechanisms", ("shift_test",)),
    "mechanisms.target_marginal": ("mlsysmap.mechanisms", ("target_marginal",)),
    "mechanisms.sample_marginal": ("mlsysmap.mechanisms", ("sample_marginal",)),
    "attribution.attribute": ("mlsysmap.attribution", ("attribute",)),
    "traversal.trace": ("mlsysmap.traversal", ("trace",)),
    "traversal.detect_alerts": ("mlsysmap.traversal", ("detect_alerts",)),
    "report.render": ("mlsysmap.report", ("detect_document", "trace_document",
                                          "render_json", "render_text")),
    "simulator.simulate": ("mlsysmap.simulator", ("generate",)),
}

# sample_marginal is the VE fallback, counted by its calls; these workloads
# never reach it, so its self time would be a constant zero
TIMED = tuple(name for name in LAYERS if name != "mechanisms.sample_marginal")
COUNTED = ("dataset.load_csv", "mechanisms.fit_mechanisms", "mechanisms.shift_test",
           "attribution.attribute", "mechanisms.target_marginal",
           "mechanisms.sample_marginal")


class Recorder:
    """Self time and call count per layer, plus layer-specific counters."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.hook_errors: set[str] = set()
        self.missing: set[str] = set()   # "module.function" not found
        self._stack: list[list] = []   # open spans: [name, child seconds]
        self._data_key: dict[int, tuple] = {}
        self._fitted: set = set()

    def begin_op(self):
        """Forget which (data, view) pairs were fitted: a refit is per op."""
        self._data_key.clear()
        self._fitted.clear()

    def call(self, name, fn, args, kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span = time.perf_counter() - start
            self._stack.pop()
            self.self_s[name] += span - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += span


def _data_key(source):
    """Identity of a CSV input: its path or text, or the stream's file name."""
    if isinstance(source, str):
        return hash(source)
    return getattr(source, "name", id(source))


def _ancestors(parents: dict, node: str) -> set:
    seen, stack = set(), list(parents[node])
    while stack:
        p = stack.pop()
        if p not in seen:
            seen.add(p)
            stack.extend(parents[p])
    return seen


def _hooks(rec: Recorder, name: str, sig: inspect.Signature):
    """Counter updates for one layer, run on (bound arguments, result)."""

    def load_csv(bound, ds):
        rec._data_key[id(ds)] = (_data_key(bound["source"]), ds)

    def fit_mechanisms(bound, _mech):
        ds = bound["ds"]
        data = rec._data_key.get(id(ds), (id(ds), ds))[0]
        key = (data, bound["view"].name)
        rec.counts["mechanisms.fit_mechanisms.refits"] += key in rec._fitted
        rec._fitted.add(key)

    def shift_test(bound, _result):
        rec.counts["mechanisms.shift_test.resplits"] += bound["B"]

    def attribute(bound, result):
        mech, target = bound["mech"], bound["target"]
        relevant = _ancestors(mech.parents, target) | {target}
        rec.counts["attribution.players"] += len(result.players)
        rec.counts["attribution.dummies"] += sum(p not in relevant for p in result.players)
        rec.counts["attribution.exact"] += result.mode == "exact"

    def trace(_bound, report):
        steps = [report.root]
        while steps:
            step = steps.pop()
            rec.counts["traversal.steps"] += 1
            steps.extend(step.children)

    def detect_alerts(_bound, alerts):
        rec.counts["traversal.alerts"] += len(alerts)

    table = {
        "dataset.load_csv": load_csv,
        "mechanisms.fit_mechanisms": fit_mechanisms,
        "mechanisms.shift_test": shift_test,
        "attribution.attribute": attribute,
        "traversal.trace": trace,
        "traversal.detect_alerts": detect_alerts,
    }
    hook = table.get(name)
    if hook is None:
        return None

    def run(args, kwargs, result):
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(bound.arguments, result)
        except (AttributeError, KeyError, TypeError) as exc:
            # a renamed argument or field: report the lost counter, keep timing
            rec.hook_errors.add(f"{name}: {exc!r}")

    return run


def _wrap(rec: Recorder, name: str, fn):
    hook = _hooks(rec, name, inspect.signature(fn))

    def wrapper(*args, **kwargs):
        result = rec.call(name, fn, args, kwargs)
        if hook is not None:
            hook(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Installation:
    """Wrappers in place for one recorder; ``uninstall`` restores them."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._patched: list[tuple] = []

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "mlsysmap" or n.startswith("mlsysmap."))]
        for name, (modname, funcs) in LAYERS.items():
            try:
                defmod = importlib.import_module(modname)
            except ImportError:
                self.rec.missing.update(f"{modname}.{f}" for f in funcs)
                continue
            for fname in funcs:
                fn = getattr(defmod, fname, None)
                if not callable(fn):
                    self.rec.missing.add(f"{modname}.{fname}")
                    continue
                wrapper = _wrap(self.rec, name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))
        return self

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer values for one traced pass: self seconds and counts."""
    c, n = rec.counts, rec.calls
    out = {f"{name}.s": (rec.self_s.get(name, 0.0), "s") for name in TIMED}
    out.update({f"{name}.calls": (n.get(name, 0), "count") for name in COUNTED})
    out["mechanisms.shift_test.resplits"] = (c["mechanisms.shift_test.resplits"], "count")
    fits = n.get("mechanisms.fit_mechanisms", 0)
    out["mechanisms.fit_mechanisms.refit_share"] = (
        c["mechanisms.fit_mechanisms.refits"] / fits if fits else 0.0, "share")
    calls = n.get("attribution.attribute", 0)
    players = c["attribution.players"]
    out["attribution.attribute.exact_share"] = (
        c["attribution.exact"] / calls if calls else 0.0, "share")
    out["attribution.players"] = (players, "count")
    out["attribution.dummy_share"] = (
        c["attribution.dummies"] / players if players else 0.0, "share")
    out["attribution.evals_per_call"] = (
        n.get("mechanisms.target_marginal", 0) / calls if calls else 0.0, "evals/call")
    out["traversal.steps"] = (c["traversal.steps"], "count")
    out["traversal.alerts"] = (c["traversal.alerts"], "count")
    return out
