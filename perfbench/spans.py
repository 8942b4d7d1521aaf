"""Spans around every public function of the repower package.

``Tracer()`` builds a wrapper for each public function of each
``repower`` module.  ``install()`` puts the wrappers wherever the
package binds the function: in the defining module, in modules that
imported it with ``from .x import y``, in the package namespace and in
module-level dispatch tables; ``uninstall()`` puts the originals back.
A wrapper records a span (function, start, end, parent span,
operation) in memory; a function's layer is the module that defines
it.  Self time is a span's duration minus the time its child spans
cover.
"""
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

LAYERS = ("normal", "design", "interim", "solver", "mc", "ssrp", "cli")
QUANTILE = "normal.std_normal_quantile"
CDF = "normal.std_normal_cdf"
SOLVE = "solver.solve_c"
CURVES = ("design.design_power", "interim.interim_power")
DESIGN_RESULTS = tuple(f"design.{n}" for n in (
    "conditional_power", "predictive_power", "fully_bayesian_power",
    "conditional_bayesian_power"))
INTERIM_RESULTS = tuple(f"interim.{n}" for n in (
    "conditional_power_interim", "informed_predictive_power_interim",
    "predictive_power_interim"))
LOAD = "ssrp.load_csv"
REPLAY = "ssrp.futility_replay"
SIMULATE = "mc.simulate_power"
CLI_MAIN = "cli.main"
EXPECTED = (QUANTILE, CDF, SOLVE, *CURVES, *DESIGN_RESULTS, *INTERIM_RESULTS,
            LOAD, REPLAY, SIMULATE, CLI_MAIN)


def _points(args, kwargs, position, name):
    """Number of elements in the argument at position / name."""
    value = args[position] if len(args) > position else kwargs.get(name)
    return int(np.size(value))


# work counted per call, for the functions whose metrics need it
POINTS = {
    CDF: lambda a, k: _points(a, k, 0, "x"),
    "design.design_power": lambda a, k: _points(a, k, 2, "c"),
    "interim.interim_power": lambda a, k: _points(a, k, 3, "c"),
    SIMULATE: lambda a, k: (a[0] if a else k["spec"]).n_sims,
}


def _modules():
    import repower
    mods = {"repower": repower}
    for info in pkgutil.iter_modules(repower.__path__):
        mods[info.name] = importlib.import_module(f"repower.{info.name}")
    return mods


class Tracer:
    """Wraps the package's public functions and records spans."""

    def __init__(self):
        self.names = []         # function id -> "layer.function"
        self.fid = array("i")   # per span
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.points = array("q")
        self.in_solve = array("b")
        self.stack = []         # [span index, child time, inside a solve]
        self.self_s = {}        # function id -> total self seconds
        self.current_op = -1
        self._patches = []      # (namespace, key, original, wrapper)
        self._build()

    def next_op(self):
        self.current_op += 1

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        self.self_s[fid] = 0.0
        count = POINTS.get(name)
        is_solve = name == SOLVE
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            index = len(self.fid)
            outer = stack[-1] if stack else None
            inside = is_solve or (outer is not None and outer[2])
            self.fid.append(fid)
            self.parent.append(outer[0] if outer else -1)
            self.op.append(self.current_op)
            self.points.append(count(args, kwargs) if count else 0)
            self.in_solve.append(inside and not is_solve)
            self.end.append(0.0)
            frame = [index, 0.0, inside]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[index] = t1
                duration = t1 - t0
                self.self_s[fid] += duration - frame[1]
                if outer is not None:
                    outer[1] += duration

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _build(self):
        mods = _modules()
        wrappers = {}   # id(original) -> wrapper
        for name, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and id(obj) not in wrappers):
                    layer = obj.__module__.split(".")[-1]
                    wrappers[id(obj)] = self._wrap(
                        obj, f"{layer}.{obj.__name__}")
        for mod in mods.values():
            space = vars(mod)
            for attr, obj in list(space.items()):
                if id(obj) in wrappers:
                    self._patches.append((space, attr, obj,
                                          wrappers[id(obj)]))
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._patches.append((obj, key, value,
                                                  wrappers[id(value)]))
        self.missing = [n for n in EXPECTED if n not in self.names]

    def install(self):
        for space, key, _, wrapper in self._patches:
            space[key] = wrapper

    def uninstall(self):
        for space, key, original, _ in self._patches:
            space[key] = original

    def metrics(self, n_ops, import_s, overhead):
        """Per-layer metrics over the spans of operations 0..n_ops-1."""
        fid = np.frombuffer(self.fid, dtype=np.int32)
        keep = np.frombuffer(self.op, dtype=np.int32) >= 0
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start))
        points = np.frombuffer(self.points, dtype=np.int64)
        in_solve = np.frombuffer(self.in_solve, dtype=np.int8) > 0
        ids = {n: i for i, n in enumerate(self.names)}

        def sel(*names):
            wanted = [ids[n] for n in names if n in ids]
            return keep & np.isin(fid, wanted)

        def mean(values, scale):
            return float(values.mean()) * scale if values.size else 0.0

        out = {}
        for layer in LAYERS:
            members = [i for i, n in enumerate(self.names)
                       if n.split(".")[0] == layer]
            calls = int(np.count_nonzero(keep & np.isin(fid, members)))
            busy = sum(self.self_s[i] for i in members)
            out[f"{layer}.calls_per_op"] = (calls / n_ops, "count")
            out[f"{layer}.self_ms_per_op"] = (busy * 1e3 / n_ops, "ms")
        solves = int(np.count_nonzero(sel(SOLVE)))
        curve = sel(*CURVES) & in_solve
        sims = sel(SIMULATE)
        sim_s = float(dur[sims].sum())
        out.update({
            "normal.quantile_calls_per_op":
                (int(np.count_nonzero(sel(QUANTILE))) / n_ops, "count"),
            "normal.cdf_points_per_op":
                (int(points[sel(CDF)].sum()) / n_ops, "count"),
            "solver.curve_calls_per_solve":
                (int(np.count_nonzero(curve)) / solves if solves else 0.0,
                 "count"),
            "solver.curve_points_per_solve":
                (int(points[curve].sum()) / solves if solves else 0.0,
                 "count"),
            "solver.solve_ms": (mean(dur[sel(SOLVE)], 1e3), "ms"),
            "design.result_us": (mean(dur[sel(*DESIGN_RESULTS)], 1e6), "us"),
            "interim.result_us":
                (mean(dur[sel(*INTERIM_RESULTS)], 1e6), "us"),
            "ssrp.load_ms": (mean(dur[sel(LOAD)], 1e3), "ms"),
            "ssrp.replay_ms": (mean(dur[sel(REPLAY)], 1e3), "ms"),
            "mc.draws_per_s":
                (int(points[sims].sum()) / sim_s if sim_s else 0.0, "1/s"),
            "cli.import_ms": (import_s * 1e3, "ms"),
            "cli.main_ms": (mean(dur[sel(CLI_MAIN)], 1e3), "ms"),
            "trace.overhead_pct": (100.0 * (overhead - 1.0), "%"),
        })
        return out

    def write(self, path):
        """Save every span with the function names; returns the count."""
        np.savez(path, names=np.array(self.names),
                 function=np.frombuffer(self.fid, dtype=np.int32),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32))
        return len(self.fid)

