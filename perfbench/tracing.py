"""In-memory spans and counters around the library's public entry points.

The traced run wraps public names as callers see them (module functions,
methods, the kernels in `orliczdyn._accel`) from the benchmark's own
files; nothing in the package changes.  A span is (id, layer, start,
end, parent id, scenario id); hot per-element calls only bump counters.
A hooked name that no longer exists is reported as absent and its layer
reads 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

_MISSING = object()


def _orbit_log_counts(args, kwargs, counters):
    units, pow_units = args[0], args[1]
    cells = units.shape[0] * pow_units.shape[0]
    counters["accel.orbit_log_cells"] += cells
    # float64 output plus both int64 inputs; computed from shapes, not measured
    counters["accel.orbit_log_bytes_computed"] += cells * 8 + units.nbytes + pow_units.nbytes


def _apply_steps(args, kwargs, counters):
    vec = args[1]
    n = args[2] if len(args) > 2 else kwargs.get("n", 1)
    counters["translation.apply_point_steps"] += len(vec) * n


@dataclass(frozen=True)
class Hook:
    layer: str
    target: str  # dotted public name
    kind: str = "span"  # "span" or "count"
    extra: object = None  # (args, kwargs, counters) -> None, for arg-derived counts


HOOKS = (
    Hook("group.aperiodicity", "orliczdyn.group.aperiodicity_bound"),
    Hook("group.box", "orliczdyn.group.CompactSet.box"),
    Hook("group.mul_calls", "orliczdyn.group.GroupElement.__mul__", "count"),
    Hook("translation.weight_evals", "orliczdyn.translation.ConstantWeight.__call__", "count"),
    Hook("translation.weight_evals", "orliczdyn.translation.ClampExpWeight.__call__", "count"),
    Hook("translation.weight_evals", "orliczdyn.translation.TableWeight.__call__", "count"),
    Hook("translation.apply", "orliczdyn.translation.WeightedTranslation.apply",
         extra=_apply_steps),
    Hook("translation.apply_inv", "orliczdyn.translation.WeightedTranslation.apply_inv",
         extra=_apply_steps),
    Hook("accel.orbit_logs", "orliczdyn._accel.clampexp_orbit_logs", extra=_orbit_log_counts),
    Hook("accel.modular_sum", "orliczdyn._accel.modular_sum"),
    Hook("orlicz.norm", "orliczdyn.orlicz.OrliczVector.luxemburg_norm"),
    Hook("orlicz.add", "orliczdyn.orlicz.OrliczVector.__add__"),
    *(
        Hook("dynamics.check", f"orliczdyn.dynamics.{name}")
        for name in (
            "check_disjoint_transitive",
            "check_same_weight",
            "check_disjoint_mixing",
            "check_chaotic",
            "check_disjoint_chaotic",
            "build_witness",
            "verify_witness",
            "build_periodic_point",
        )
    ),
    Hook("cli.parse", "orliczdyn.cli.parse_config"),
    Hook("cli.run", "orliczdyn.cli.run_scenario"),
    Hook("cli.main", "orliczdyn.cli.main"),
)


def _resolve(target: str):
    """(owner, attribute name, current value) for a dotted name, or None."""
    parts = target.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for name in parts[i:-1]:
                obj = getattr(obj, name)
            return obj, parts[-1], getattr(obj, parts[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    """Collects spans and per-thread counters for one traced run."""

    def __init__(self):
        self.spans = []  # (id, layer, start, end, parent, scenario)
        self.absent = []  # hooked names that could not be resolved
        self.scenario = None  # id of the scenario being run
        self._main_stack = []  # span stack of the thread running the scenario
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._all_counters = []
        self._lock = threading.Lock()
        self._patches = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counters(self) -> Counter:
        """This thread's counters; merged by `totals`, so no lock per bump."""
        counters = getattr(self._local, "counters", None)
        if counters is None:
            counters = self._local.counters = Counter()
            with self._lock:
                self._all_counters.append(counters)
        return counters

    def totals(self) -> Counter:
        out = Counter()
        with self._lock:
            for c in self._all_counters:
                out.update(c)
        return out

    def open(self, layer: str):
        stack = self._stack()
        sid = next(self._ids)
        # a pool thread's first span hangs under the scenario thread's innermost open span
        main = self._main_stack
        parent = stack[-1] if stack else (main[-1] if main else None)
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, layer: str, token):
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        self.spans.append((sid, layer, start, end, parent, self.scenario))

    def run_scenario(self, scenario_id, fn, *args):
        """Run fn(*args) under a root span "scenario" carrying scenario_id."""
        self.scenario = scenario_id
        self._main_stack = self._stack()
        token = self.open("scenario")
        try:
            return fn(*args)
        finally:
            self.close("scenario", token)

    # -- hooks ------------------------------------------------------------
    def _wrap(self, hook: Hook, fn):
        layer, extra = hook.layer, hook.extra
        if hook.kind == "count":

            def counted(*args, **kwargs):
                self.counters()[layer] += 1
                return fn(*args, **kwargs)

            return functools.update_wrapper(counted, fn)

        def spanned(*args, **kwargs):
            if extra is not None:
                extra(args, kwargs, self.counters())
            token = self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(layer, token)

        return functools.update_wrapper(spanned, fn)

    def install(self, hooks=HOOKS):
        """Wrap every resolvable hook target; names that are gone go to `absent`."""
        for hook in hooks:
            found = _resolve(hook.target)
            if found is None:
                self.absent.append(hook.target)
                continue
            owner, attr, current = found
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr, _MISSING)
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(hook, raw.__func__))
                else:
                    new = self._wrap(hook, current)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            # A module function: rebind it wherever the package imported it.
            new = self._wrap(hook, current)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "orliczdyn" and getattr(module, attr, None) is current:
                    self._patches.append((module, attr, current))
                    setattr(module, attr, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patches.clear()


# ---------------------------------------------------------------------------
# turning spans into per-layer metrics


def self_times(spans) -> dict:
    """span id -> duration minus the part of it covered by its child spans."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, cursor = 0.0, start
        for _, _, cs, ce, _, _ in sorted(children.get(sid, ()), key=lambda c: c[2]):
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out[sid] = (end - start) - covered
    return out


def outermost(spans) -> list:
    """Spans with no ancestor of the same layer (nested checks counted once)."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        parent = by_id.get(s[4])
        while parent is not None and parent[1] != s[1]:
            parent = by_id.get(parent[4])
        if parent is None:
            out.append(s)
    return out


# metric name -> unit and better direction, in BENCHMARK.json order
LAYER_METRICS = {
    "group.aperiodicity_s": ("s", "lower"),
    "group.aperiodicity_calls": ("count", "lower"),
    "group.mul_calls": ("count", "lower"),
    "group.box_s": ("s", "lower"),
    "translation.weight_evals": ("count", "lower"),
    "translation.apply_s": ("s", "lower"),
    "translation.apply_inv_s": ("s", "lower"),
    "translation.apply_point_steps": ("count", "lower"),
    "accel.orbit_logs_s": ("s", "lower"),
    "accel.orbit_logs_calls": ("count", "lower"),
    "accel.orbit_log_cells": ("count", "lower"),
    "accel.orbit_log_bytes_computed": ("bytes", "lower"),
    "accel.modular_sum_s": ("s", "lower"),
    "dynamics.check_s": ("s", "lower"),
    "dynamics.self_s": ("s", "lower"),
    "orlicz.norm_s": ("s", "lower"),
    "orlicz.norm_calls": ("count", "lower"),
    "orlicz.modular_evals_per_norm": ("count", "lower"),
    "orlicz.add_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.run_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.pool_overlap": ("ratio", "higher"),
    "trace.scenario_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.absent_hooks": ("count", "lower"),
}

_TIMED_LAYERS = {
    "group.aperiodicity_s": "group.aperiodicity",
    "group.box_s": "group.box",
    "translation.apply_s": "translation.apply",
    "translation.apply_inv_s": "translation.apply_inv",
    "accel.orbit_logs_s": "accel.orbit_logs",
    "accel.modular_sum_s": "accel.modular_sum",
    "dynamics.check_s": "dynamics.check",
    "orlicz.norm_s": "orlicz.norm",
    "orlicz.add_s": "orlicz.add",
    "cli.parse_s": "cli.parse",
    "cli.run_s": "cli.run",
}


def layer_metrics(tracer: Tracer, scenarios: int) -> dict:
    """Per-scenario layer figures from one traced run of `scenarios` scenarios.

    Times and counts are means per scenario; `trace.overhead_frac` is
    filled in by the caller, which also ran untraced.
    """
    spans = tracer.spans
    counters = tracer.totals()
    per = 1.0 / max(scenarios, 1)
    top = outermost(spans)
    selfs = self_times(spans)
    time_in, calls = Counter(), Counter()
    for s in top:
        time_in[s[1]] += s[3] - s[2]
    for s in spans:
        calls[s[1]] += 1
    self_in = Counter()
    for s in spans:
        self_in[s[1]] += selfs[s[0]]
    layer_of = {s[0]: s[1] for s in spans}
    evals_in_norms = sum(
        1 for s in spans if s[1] == "accel.modular_sum" and layer_of.get(s[4]) == "orlicz.norm"
    )
    m = {name: time_in[layer] * per for name, layer in _TIMED_LAYERS.items()}
    m.update({
        "group.aperiodicity_calls": calls["group.aperiodicity"] * per,
        "group.mul_calls": counters["group.mul_calls"] * per,
        "translation.weight_evals": counters["translation.weight_evals"] * per,
        "translation.apply_point_steps": counters["translation.apply_point_steps"] * per,
        "accel.orbit_logs_calls": calls["accel.orbit_logs"] * per,
        "accel.orbit_log_cells": counters["accel.orbit_log_cells"] * per,
        "accel.orbit_log_bytes_computed": counters["accel.orbit_log_bytes_computed"] * per,
        "dynamics.self_s": self_in["dynamics.check"] * per,
        "orlicz.norm_calls": calls["orlicz.norm"] * per,
        "orlicz.modular_evals_per_norm": evals_in_norms / max(calls["orlicz.norm"], 1),
        "cli.self_s": self_in["cli.main"] * per,
        "cli.pool_overlap": time_in["cli.run"] / time_in["cli.main"] if time_in["cli.main"] else 0.0,
        "trace.scenario_s": time_in["scenario"] * per,
        "trace.overhead_frac": 0.0,
        "trace.absent_hooks": float(len(tracer.absent)),
    })
    return {name: m[name] for name in LAYER_METRICS}
