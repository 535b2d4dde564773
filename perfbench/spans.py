"""In-memory span tracer and the hooks that wrap dhkrylov's public functions.

A traced run replaces selected functions of the ``dhkrylov`` modules with
wrappers that record one span per call: name, start, end, the index of the
enclosing span and the id of the solve the call belongs to.  Spans stay in a
list until the run ends; :func:`layer_metrics` then derives self times,
counts and ratios from them, and :meth:`Tracer.write_jsonl` writes them out.

Hooks name their target as ``"module:qualified.name"``.  A target that does
not exist (a later version of the package may drop ``lanczos_advance`` or
``HsSplitSystem.h_eigenvalues``) is reported as absent and its layer reads 0;
the run goes on.  Module-level functions are replaced in every loaded
``dhkrylov`` module that binds them, so ``from .hs_core import
definiteness_class`` call sites are traced as well.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

import numpy as np

#: Spans that start a new solve id when no enclosing span carries one.
SOLVE_LEVEL = frozenset({
    "krylov.widlund", "krylov.rapoport", "krylov.gmres", "krylov.lgmres",
    "krylov.schur", "timestep.integrate",
})
#: Solvers with per-layer metrics; plain GMRES is traced but no workload runs it.
SOLVERS = ("widlund", "rapoport", "lgmres")
SOLVER_SPANS = frozenset({"krylov.widlund", "krylov.rapoport", "krylov.lgmres", "krylov.gmres"})

ROOT = "workload"
CHECK = "bench.check"
HOOK = "trace.hook"


class Tracer:
    """Records nested spans ``[name, start, end, parent, solve_id, attrs]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._solves = 0

    def begin(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        solve_id = self.spans[parent][4] if parent >= 0 else None
        if solve_id is None and name in SOLVE_LEVEL:
            self._solves += 1
            solve_id = self._solves
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, solve_id, attrs])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name, attrs=None):
        return _Span(self, name, attrs)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, solve_id, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "solve": solve_id, "attrs": attrs,
                }) + "\n")


class _Span:
    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.idx = self.tracer.begin(self.name, self.attrs)
        return self.tracer.spans[self.idx]

    def __exit__(self, *exc):
        self.tracer.end(self.idx)
        return False


# ---------------------------------------------------------------------------
# Hook targets
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _solver_attrs(span, args, kwargs, result):
    b = _arg(args, kwargs, 1, "b")
    span[5] = {"n": int(np.shape(b)[0]) if b is not None else 0,
               "iterations": int(getattr(result, "iterations", 0))}


def _gmres_name(args, kwargs):
    return "krylov.lgmres" if _arg(args, kwargs, 4, "precond") is not None else "krylov.gmres"


def _schur_attrs(span, args, kwargs, result):
    b_block = np.atleast_2d(_arg(args, kwargs, 1, "b_block"))
    span[5] = {"n_v": int(b_block.shape[0]), "n_p": int(b_block.shape[1]),
               "inner_iterations": int(getattr(result, "inner_iterations", 0)),
               "outer_iterations": int(getattr(result, "outer_iterations", 0))}


def _lambda_attrs(span, args, kwargs, result):
    span[5] = {"lam": float(getattr(result, "lam", 0.0))}


def _split_attrs(span, args, kwargs, result):
    a = getattr(result, "a", None)
    span[5] = {"n": int(np.shape(a)[0]) if a is not None else 0,
               "nnz": _nnz(a),
               "bytes": sum(_nbytes(getattr(result, f, None))
                            for f in ("a", "h", "s", "h_factor"))}


def _nnz(a):
    if a is None:
        return 0
    if hasattr(a, "nnz"):
        return int(a.nnz)
    return int(np.count_nonzero(a))


def _nbytes(obj, depth=0):
    """Bytes held in arrays reachable from ``obj`` (arrays, sparse, tuples, objects)."""
    if obj is None or depth > 3:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if hasattr(obj, "data") and hasattr(obj, "nnz"):  # scipy sparse
        return sum(int(getattr(obj, f).nbytes) for f in ("data", "indices", "indptr")
                   if isinstance(getattr(obj, f, None), np.ndarray))
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o, depth + 1) for o in obj)
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(o, depth + 1) for o in vars(obj).values())
    return 0


#: (target, span name or callable(args, kwargs) -> name, attrs callback)
HOOKS = (
    ("dhkrylov.dhdae:from_descriptor", "dhdae.assemble", None),
    ("dhkrylov.hs_core:HsSplitSystem.from_matrix", "hs_core.split", _split_attrs),
    ("dhkrylov.hs_core:definiteness_class", "hs_core.definiteness", None),
    ("dhkrylov.hs_core:hermitian_factor", "hs_core.factor", None),
    ("dhkrylov.hs_core:HermitianFactor.solve", "hs_core.hsolve", None),
    ("dhkrylov.timestep:midpoint_system", "timestep.midpoint_system", None),
    ("dhkrylov.timestep:midpoint_rhs", "timestep.rhs", None),
    ("dhkrylov.timestep:integrate", "timestep.integrate", None),
    ("dhkrylov.timestep:midpoint_saddle_blocks", "timestep.saddle_blocks", None),
    ("dhkrylov.bounds:spectral_interval", "bounds.lambda", _lambda_attrs),
    ("dhkrylov.krylov:solve_widlund", "krylov.widlund", _solver_attrs),
    ("dhkrylov.krylov:solve_rapoport", "krylov.rapoport", _solver_attrs),
    ("dhkrylov.krylov:solve_gmres", _gmres_name, _solver_attrs),
    ("dhkrylov.krylov:lanczos_advance", "krylov.lanczos_advance", None),
    ("dhkrylov.krylov:solve_via_schur", "krylov.schur", _schur_attrs),
    ("dhkrylov.krylov:residual_history_csv", "cli.artifact", None),
    ("dhkrylov.cli:run_scenario", "cli.run_scenario", None),
    ("pathlib:Path.write_text", "cli.artifact", None),
)


def _wrap(func, tracer, name, on_return):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name(args, kwargs) if callable(name) else name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(idx)
        if on_return is not None:
            with tracer.span(HOOK):
                on_return(tracer.spans[idx], args, kwargs, result)
        return result
    return wrapper


class Hooks:
    """Installs the wrappers of :data:`HOOKS` and restores the originals."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.status = {}
        self._patches = []

    def install(self):
        for target, name, on_return in HOOKS:
            modname, qualname = target.split(":")
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.status[target] = "absent"
                continue
            *path, attr = qualname.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.status[target] = "absent"
                continue
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(raw.__func__, self.tracer, name, on_return))
            else:
                wrapped = _wrap(raw, self.tracer, name, on_return)
            owners = [(owner, attr)] if path else _bindings(raw, module, attr)
            for obj, key in owners:
                self._patches.append((obj, key, inspect.getattr_static(obj, key)))
                setattr(obj, key, wrapped)
            self.status[target] = "hooked"
        return self

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _bindings(func, module, attr):
    """Every (module, name) of the package that binds ``func``."""
    found = [(module, attr)]
    for modname, mod in list(sys.modules.items()):
        if mod is module or not modname.startswith("dhkrylov"):
            continue
        for key, value in list(vars(mod).items()):
            if value is func:
                found.append((mod, key))
    return found


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Per-layer metric names with units, in the order they are reported.
LAYER_UNITS = {
    "dhdae.assemble_s": "s",
    "hs_core.split_s": "s",
    "hs_core.definiteness_s": "s",
    "hs_core.factor_s": "s",
    "hs_core.hsolve_calls": "count",
    "hs_core.hsolve_s": "s",
    "hs_core.hsolve_us": "us",
    "hs_core.operator_mb": "MB",
    "hs_core.n": "count",
    "hs_core.nnz": "count",
    "timestep.midpoint_system_s": "s",
    "timestep.rhs_calls": "count",
    "timestep.rhs_s": "s",
    "timestep.integrate_self_s": "s",
    "bounds.lambda_s": "s",
    "bounds.lambda": "1",
    **{f"krylov.{s}.{m}": u for s in SOLVERS for m, u in (
        ("iterations", "count"), ("ms_per_iteration", "ms"),
        ("hsolves_per_iteration", "count"), ("over_floor", "ratio"))},
    "krylov.floor_ms": "ms",
    "krylov.lanczos_advance_s": "s",
    "krylov.solver_self_s": "s",
    "krylov.schur.inner_solves": "count",
    "krylov.schur.inner_iterations": "count",
    "krylov.schur.outer_iterations": "count",
    "krylov.schur.inner_s": "s",
    "cli.artifact_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.total_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def self_times(spans):
    """Durations and self times (duration minus direct children) per span."""
    dur = [end - start for _, start, end, _, _, _ in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def self_time_table(spans, passes):
    """Per span name: calls, total seconds and self seconds, per pass."""
    dur, own = self_times(spans)
    table = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += own[i]
    return {k: {"calls": v[0] / passes, "total_s": v[1] / passes, "self_s": v[2] / passes}
            for k, v in sorted(table.items())}


def _attr(span, key):
    """An attribute of a span; 0 when the call raised before its attributes were read."""
    return (span[5] or {}).get(key, 0)


def _owner(spans, i, names):
    """Index of the nearest ancestor of span ``i`` whose name is in ``names``."""
    p = spans[i][3]
    while p >= 0 and spans[p][0] not in names:
        p = spans[p][3]
    return p


def layer_metrics(spans, passes, floor_ms, artifact_bytes, untraced_total_s):
    """Derive the per-layer metrics, per traced pass, from the recorded spans."""
    dur, own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(name):
        return sum(dur[i] for i in by_name.get(name, ())) / passes

    def self_total(name):
        return sum(own[i] for i in by_name.get(name, ())) / passes

    def count(name):
        return len(by_name.get(name, ())) / passes

    out = {
        "dhdae.assemble_s": total("dhdae.assemble"),
        "hs_core.split_s": self_total("hs_core.split"),
        "hs_core.definiteness_s": total("hs_core.definiteness"),
        "hs_core.factor_s": total("hs_core.factor"),
        "hs_core.hsolve_calls": count("hs_core.hsolve"),
        "hs_core.hsolve_s": total("hs_core.hsolve"),
        "hs_core.hsolve_us": 1e6 * statistics.median(
            [dur[i] for i in by_name["hs_core.hsolve"]]) if "hs_core.hsolve" in by_name else 0.0,
        "timestep.midpoint_system_s": total("timestep.midpoint_system"),
        "timestep.rhs_calls": count("timestep.rhs"),
        "timestep.rhs_s": total("timestep.rhs"),
        "timestep.integrate_self_s": self_total("timestep.integrate"),
        "bounds.lambda_s": total("bounds.lambda"),
        "bounds.lambda": _attr(spans[by_name["bounds.lambda"][0]], "lam")
        if "bounds.lambda" in by_name else 0.0,
        "krylov.floor_ms": floor_ms,
        "krylov.lanczos_advance_s": self_total("krylov.lanczos_advance"),
        "krylov.solver_self_s": sum(self_total(n) for n in SOLVER_SPANS),
        "cli.artifact_s": total("cli.artifact"),
        "cli.artifact_bytes": artifact_bytes / passes,
    }

    splits = [spans[i] for i in by_name.get("hs_core.split", ())]
    largest = max(splits, key=lambda sp: _attr(sp, "n")) if splits else None
    out["hs_core.operator_mb"] = _attr(largest, "bytes") / 2**20 if largest else 0.0
    out["hs_core.n"] = _attr(largest, "n") if largest else 0
    out["hs_core.nnz"] = _attr(largest, "nnz") if largest else 0

    # Each solver span is charged its duration minus the solver spans nested
    # in it, and owns the H-solves whose nearest solver ancestor it is.
    nested = [0.0] * len(spans)
    hsolves = [0] * len(spans)
    for i in range(len(spans)):
        if spans[i][0] in SOLVER_SPANS:
            p = _owner(spans, i, SOLVER_SPANS)
            if p >= 0:
                nested[p] += dur[i]
    for i in by_name.get("hs_core.hsolve", ()):
        p = _owner(spans, i, SOLVER_SPANS)
        if p >= 0:
            hsolves[p] += 1
    for solver in SOLVERS:
        idx = by_name.get(f"krylov.{solver}", [])
        iters = [_attr(spans[i], "iterations") for i in idx]
        n_it = sum(iters)
        ms_it = 1e3 * sum(dur[i] - nested[i] for i in idx) / n_it if n_it else 0.0
        out[f"krylov.{solver}.iterations"] = float(statistics.median(iters)) if iters else 0.0
        out[f"krylov.{solver}.ms_per_iteration"] = ms_it
        out[f"krylov.{solver}.hsolves_per_iteration"] = (
            sum(hsolves[i] for i in idx) / n_it if n_it else 0.0)
        out[f"krylov.{solver}.over_floor"] = ms_it / floor_ms if floor_ms > 0 else 0.0

    inner = [i for name in SOLVER_SPANS for i in by_name.get(name, ())
             if (p := _owner(spans, i, {"krylov.schur"})) >= 0
             and _attr(spans[i], "n") == _attr(spans[p], "n_v")]
    schur = [spans[i] for i in by_name.get("krylov.schur", ())]
    out["krylov.schur.inner_solves"] = len(inner) / passes
    out["krylov.schur.inner_s"] = sum(dur[i] for i in inner) / passes
    for key in ("inner_iterations", "outer_iterations"):
        out[f"krylov.schur.{key}"] = sum(_attr(sp, key) for sp in schur) / passes

    # The benchmark's own output checks run inside the root span; they are
    # not program time, so they are taken out of the traced total.
    traced_total = total(ROOT) - total(CHECK)
    out["trace.total_s"] = traced_total
    out["trace.untraced_s"] = self_total(ROOT)
    out["trace.overhead_s"] = traced_total - untraced_total_s
    out["trace.spans"] = len(spans) / passes
    return {k: float(out[k]) for k in LAYER_UNITS}
