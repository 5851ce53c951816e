"""Per-layer timing of netguard by wrapping each module's public functions.

The wrappers are installed from the benchmark's own code; netguard is not
edited.  Names other modules bind with ``from .x import y`` are replaced
as well.

A call opens a span unless the innermost open span belongs to the same
module, so each span is the outermost call within its module.  A module's
self time is the duration of its spans minus the spans they directly
contain, so the self times of all modules add up to the time spent inside
spans.

A named function's time (``TIMED``) is the duration of its calls minus the
time they spent in other modules, counting only the outermost call of the
named group: ``vertex_connectivity`` is timed even when
``resilience_bounds`` calls it, and ``image`` called from ``subspace_sum``
is not counted twice.  Call counts (``COUNTED``) count every call, nested
ones too (the V*/S* fixpoints are only ever called from inside ``fdi``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("numerics", "graph", "consensus", "sysan", "fdi", "detect", "cli")
# cli.main is the operation the benchmark times; its handlers are the layer.
NOT_WRAPPED = {("cli", "main")}

NUMERICS_PRIMITIVES = ("image", "kernel", "rank", "preimage", "apply_map")


def _numerics_primitive(module, name):
    return module == "numerics" and (name in NUMERICS_PRIMITIVES
                                     or name.startswith("subspace_"))


def _named(module, *names):
    return lambda m, f: m == module and f in names


TIMED = {
    "numerics.s": _numerics_primitive,
    "fdi.synthesize_s": _named("fdi", "synthesize_residual_generator"),
    "fdi.fdi_solvable_s": _named("fdi", "fdi_solvable"),
    "fdi.run_residual_s": _named("fdi", "run_residual"),
    "graph.vertex_connectivity_s": _named("graph", "vertex_connectivity"),
    "sysan.invariant_zeros_s": _named("sysan", "invariant_zeros"),
    "detect.complete_identification_self_s": _named("detect", "complete_identification"),
    "detect.build_local_bank_s": _named("detect", "build_local_bank"),
    "detect.calibrate_threshold_s": _named("detect", "calibrate_threshold"),
    "detect.filter_run_s": _named("detect", "DetectionFilter.run"),
    "consensus.simulate_s": _named("consensus", "simulate"),
    "cli.self_s": lambda m, f: m == "cli" and f.startswith("cmd_"),
}

COUNTED = {
    "numerics.calls": _numerics_primitive,
    "fdi.synthesize_calls": _named("fdi", "synthesize_residual_generator"),
    "fdi.fdi_solvable_calls": _named("fdi", "fdi_solvable"),
    "fdi.fixpoint_calls": _named("fdi", "max_controlled_invariant",
                                 "min_conditioned_invariant"),
    "graph.vertex_connectivity_calls": _named("graph", "vertex_connectivity"),
    "sysan.invariant_zeros_calls": _named("sysan", "invariant_zeros"),
    "detect.certified_bounds_calls": _named("detect", "certified_bounds"),
}


class LayerTracer:
    """Module self times, named-function times and call counts, in memory."""

    def __init__(self):
        self.module_self = defaultdict(float)
        self.timed = defaultdict(float)
        self.calls = Counter()
        self.steps = 0
        self.lp_calls = 0
        self._stack = []
        self._depth = Counter()
        self._restore = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, module: str, name: str, fn):
        key = (module, name)
        stack, depth = self._stack, self._depth
        groups = tuple(g for g, member in TIMED.items() if member(module, name))
        count_steps = key == ("consensus", "simulate")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            nested = bool(stack) and stack[-1][0] == module
            if nested and not groups:
                return fn(*args, **kwargs)
            outermost = [g for g in groups if depth[g] == 0]
            for g in groups:
                depth[g] += 1
            frame = stack[-1] if nested else [module, 0.0]
            before = frame[1]
            if not nested:
                stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                other = frame[1] - before
                if not nested:
                    stack.pop()
                    self.module_self[module] += dt - other
                    if stack:
                        stack[-1][1] += dt
                for g in groups:
                    depth[g] -= 1
                for g in outermost:
                    self.timed[g] += dt - other
            if count_steps:
                self.steps += result.horizon
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of the netguard modules."""
        import netguard

        mods = {name: importlib.import_module(f"netguard.{name}")
                for name in MODULES}
        replaced = {}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or (name, attr) in NOT_WRAPPED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[obj] = self._wrap(name, attr, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(name, obj)
        for owner in (netguard, *mods.values()):
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(owner, attr, replaced[obj])
        self._wrap_linprog()
        return self

    def _wrap_methods(self, module: str, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            label = f"{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(module, label, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(module, label, obj))

    def _wrap_linprog(self):
        """Count LPs solved from inside ``detect`` (their time stays there)."""
        import scipy.optimize

        original = scipy.optimize.linprog
        stack = self._stack

        @functools.wraps(original)
        def linprog(*args, **kwargs):
            if stack and stack[-1][0] == "detect":
                self.lp_calls += 1
            return original(*args, **kwargs)

        self._set(scipy.optimize, "linprog", linprog)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, passes: int, traced_op_s: float) -> dict:
        """Per-layer figures per pass over the workload's scenario list."""
        values = {g: (self.timed[g] / passes, "s/pass") for g in TIMED}
        for name, member in COUNTED.items():
            n = sum(c for (m, f), c in self.calls.items() if member(m, f))
            values[name] = (n / passes, "calls/pass")
        values["detect.lp_calls"] = (self.lp_calls / passes, "calls/pass")
        values["consensus.simulate_steps"] = (self.steps / passes, "steps/pass")
        for module in MODULES[:-1]:
            values[f"{module}.self_s"] = (self.module_self[module] / passes, "s/pass")
        values["trace.op_s"] = (traced_op_s / passes, "s/pass")
        return values
