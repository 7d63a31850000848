"""Outside-in tracer for pintlab.

Wraps the public functions and methods of every ``pintlab`` module, plus
three leaf calls from numpy/scipy, without touching the package's source.
Each timed wrapper records a span: calls, total time, self time, and the
calling span (aggregated per parent/child edge, so memory stays flat).
Three very hot leaves (``BandedMatrix.matvec``, ``numpy.linalg.norm``,
``scipy.linalg.lu_solve``) are only counted; their time stays in the
caller's self time, which keeps the tracing overhead inside the noise.

``Tracer.install`` replaces every binding of an original function: module
attributes (``from .kernels import solve_shifted_banded`` makes one in each
importing module), items of module-level dicts, lists and tuples (such as
the runner table), default argument values, and class attributes for
methods.  ``Tracer.unwrapped_bindings`` re-scans after install, closure
cells included; anything it returns would silently drop counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
import types
from collections import defaultdict

# Counted without a span: millions of calls, each a few microseconds.
COUNT_ONLY = {"kernels.BandedMatrix.matvec", "numpy.norm", "scipy.lu_solve"}

# Leaf calls outside pintlab, by the module attribute pintlab looks up.
LEAVES = {
    "numpy.norm": ("numpy.linalg", "norm"),
    "scipy.lu_solve": ("scipy.linalg", "lu_solve"),
    "scipy.lu_factor": ("scipy.linalg", "lu_factor"),
}

# Parareal solvers whose children split into fine map, oracle and coarse work.
PARAREAL_SOLVERS = (
    "parareal.parareal_solve",
    "parareal.mgrit_fcf_solve",
    "parareal.parareal_diag_cgc_solve",
    "parareal.parareal_diag_coarse_solve",
)

# Layer whose returned IterationTrace counts as iterations, and the name.
ITERATION_COUNTERS = {
    "parareal": "parareal.iterations",
    "paradiag": "paradiag.iterations",
    "paraexp": "paraexp.iterations",
    "idc": "idc.iterations",
    "stmg": "stmg.iterations",
    "swr": "swr.sweeps",
}


def _columns(arr):
    shape = getattr(arr, "shape", ())
    return shape[1] if len(shape) == 2 else 1


# Extra work counters taken from a call's arguments or result.
def _extra_solve_shifted(args, kwargs, result):
    return {"cols": _columns(args[2] if len(args) > 2 else kwargs["rhs"])}


def _extra_propagate_block(args, kwargs, result):
    return {"cols": _columns(result)}


def _extra_gmres(args, kwargs, result):
    return {"iters": len(result[1]) - 1}


EXTRAS = {
    "kernels.solve_shifted_banded": _extra_solve_shifted,
    "integrators.propagate_block": _extra_propagate_block,
    "kernels.gmres": _extra_gmres,
}


class Stat:
    __slots__ = ("calls", "s", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0  # recursion depth: total time counts the outermost call only


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, child) -> [calls, s]
        self.counters = defaultdict(int)
        self.stack = []  # frames: [name, child_seconds]
        self.wrapped = {}  # id(original) -> wrapper
        self.originals = {}  # id(original) -> original (keeps ids alive)
        self._seen_traces = {}
        self._iteration_trace_type = None

    # -- spans ------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (used by the benchmark
        itself for per-experiment spans)."""
        return self._timed(name, fn, None)(*args, **kwargs)

    def _timed(self, name, fn, extra):
        stats = self.stats[name]
        stack = self.stack
        edges = self.edges
        counters = self.counters
        clock = time.perf_counter
        record_result = self._record_result
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            stats.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats.active -= 1
                stats.calls += 1
                stats.self_s += dt - frame[1]
                if stats.active == 0:
                    stats.s += dt
                parent = stack[-1][0] if stack else "<root>"
                if stack:
                    stack[-1][1] += dt
                edge = edges[(parent, name)]
                edge[0] += 1
                edge[1] += dt
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += value
            record_result(layer, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        stats = self.stats[name]

        def wrapper(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record_result(self, layer, result):
        counter = ITERATION_COUNTERS.get(layer)
        if counter is None:
            return
        items = result if isinstance(result, tuple) else (result,)
        for item in items:
            if isinstance(item, self._iteration_trace_type) and id(item) not in self._seen_traces:
                self._seen_traces[id(item)] = item
                self.counters[counter] += item.iterations

    # -- installation -----------------------------------------------------

    def _wrap(self, name, fn):
        if id(fn) in self.wrapped:
            return self.wrapped[id(fn)]
        if name in COUNT_ONLY:
            wrapper = self._counted(name, fn)
        else:
            wrapper = self._timed(name, fn, EXTRAS.get(name))
        functools.update_wrapper(wrapper, fn)
        self.wrapped[id(fn)] = wrapper
        self.originals[id(fn)] = fn
        return wrapper

    def install(self):
        """Wrap every public function and method of the loaded pintlab
        modules and rebind each binding site to the wrapper."""
        from pintlab.trace import IterationTrace

        self._iteration_trace_type = IterationTrace
        modules = _import_pintlab_modules()
        for mod in modules:
            layer = mod.__name__.split(".", 1)[1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    self._wrap(f"{layer}.{attr}", value)
                elif (inspect.isclass(value) and value.__module__ == mod.__name__
                      and not issubclass(value, BaseException)):
                    self._wrap_methods(f"{layer}.{attr}", value)
        for name, (mod_name, attr) in LEAVES.items():
            mod = importlib.import_module(mod_name)
            setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
        for mod in modules:
            self._rebind_module(mod)
        for fn in list(self.originals.values()):
            if inspect.isfunction(fn) and fn.__defaults__:
                fn.__defaults__ = tuple(self._swap(v) for v in fn.__defaults__)

    def _wrap_methods(self, prefix, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, (staticmethod, classmethod)):
                wrapper = self._wrap(f"{prefix}.{attr}", value.__func__)
                setattr(cls, attr, type(value)(wrapper))
            elif inspect.isfunction(value):
                setattr(cls, attr, self._wrap(f"{prefix}.{attr}", value))

    def _swap(self, value):
        return self.wrapped.get(id(value), value)

    def _rebind_module(self, mod):
        """Point module attributes, and the items of module-level dicts,
        lists and tuples, at the wrappers."""
        for attr, value in list(vars(mod).items()):
            if id(value) in self.wrapped:
                setattr(mod, attr, self.wrapped[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in self.wrapped:
                        value[key] = self.wrapped[id(item)]
            elif isinstance(value, list) and any(id(item) in self.wrapped for item in value):
                value[:] = [self._swap(item) for item in value]
            elif type(value) is tuple and any(id(item) in self.wrapped for item in value):
                setattr(mod, attr, tuple(self._swap(item) for item in value))

    def unwrapped_bindings(self):
        """Places that still hold an original function after install:
        module attributes and container items, class members, and the
        defaults and closure cells of module-level functions."""
        found = []

        def scan(where, value):
            if id(value) in self.originals:
                found.append(where)

        functions = list(self.originals.values())
        wrappers = {id(w) for w in self.wrapped.values()}
        for mod in _pintlab_modules():
            for attr, value in vars(mod).items():
                where = f"{mod.__name__}.{attr}"
                scan(where, value)
                if inspect.isfunction(value) and id(value) not in wrappers:
                    functions.append(value)
                if isinstance(value, dict):
                    for key, item in value.items():
                        scan(f"{where}[{key!r}]", item)
                elif isinstance(value, (list, tuple)):
                    for i, item in enumerate(value):
                        scan(f"{where}[{i}]", item)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for name, member in vars(value).items():
                        scan(f"{where}.{name}", getattr(member, "__func__", member))
        for mod_name, attr in LEAVES.values():
            scan(f"{mod_name}.{attr}", getattr(sys.modules[mod_name], attr))
        for fn in functions:
            if not inspect.isfunction(fn):
                continue
            where = f"{fn.__module__}.{fn.__qualname__}"
            for i, value in enumerate(fn.__defaults__ or ()):
                scan(f"{where} default {i}", value)
            for cell in fn.__closure__ or ():
                try:
                    scan(f"{where} closure", cell.cell_contents)
                except ValueError:  # empty cell
                    pass
        return found

    # -- results ----------------------------------------------------------

    def table(self):
        """Per wrapped function and benchmark span: calls, total and self seconds."""
        return {name: {"calls": st.calls, "s": st.s, "self_s": st.self_s}
                for name, st in self.stats.items()}

    def phase(self, parents, include=None, exclude=()):
        """Calls and seconds of spans whose parent is in ``parents``."""
        calls, seconds = 0, 0.0
        for (parent, child), (n, s) in self.edges.items():
            if parent in parents and child not in exclude and (include is None or child in include):
                calls += n
                seconds += s
        return calls, seconds

    def layer_self_s(self, layer):
        return sum(st.self_s for name, st in self.stats.items()
                   if name.split(".", 1)[0] == layer)


def _import_pintlab_modules():
    """Import every pintlab module except the CLI, so that modules the
    harness imports lazily (``pool``) are wrapped too."""
    import pintlab

    for info in pkgutil.iter_modules(pintlab.__path__):
        if info.name != "cli":
            importlib.import_module(f"pintlab.{info.name}")
    return _pintlab_modules()


def _pintlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("pintlab.") and name != "pintlab.cli"
            and isinstance(m, types.ModuleType)]
