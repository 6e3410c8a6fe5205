"""Spans around the calls into each laneemden module, kept in memory.

The benchmark wraps the public functions of the program at the bindings its
callers actually look up (several modules import a function by name, so the
defining module's attribute alone would miss those calls).  A binding that a
later version of the program removes is reported as missing and counts zero
calls; it never raises.

Records are plain dicts so a run can write them as JSON lines and the
harness can compute every per-layer metric back from the written file:

    {"kind": "span", "run": 0, "id": 3, "parent": 1, "name": "sparse.cg_solve",
     "start": 0.12, "end": 0.19, "attrs": {"iters": 211}}
    {"kind": "level", "run": 0, "level": 5, "n_interior": 961, "iters": 112,
     "stop": "stagnated", "residual": 9e-09, "c_h": 3.51, "converged": true,
     "seconds": 0.41}
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time

# (module, attribute, layer).  One layer may be reachable through several
# bindings; a call goes through exactly one of them, so none is counted twice.
BINDINGS = [
    ("laneemden.minimizer", "cg_solve", "sparse.cg_solve"),
    ("laneemden.sparse", "cg_solve", "sparse.cg_solve"),
    ("laneemden.study", "cg_solve", "sparse.cg_solve"),
    ("laneemden.diagnostics", "smallest_eig_constrained", "sparse.smallest_eig_constrained"),
    ("laneemden.sparse", "smallest_eig_constrained", "sparse.smallest_eig_constrained"),
    ("laneemden.study", "solve_extremal", "minimizer.solve_extremal"),
    ("laneemden.minimizer", "solve_extremal", "minimizer.solve_extremal"),
    ("laneemden.cli", "solve_extremal", "minimizer.solve_extremal"),
    ("laneemden.assembly", "nonlinear_load", "assembly.nonlinear_load"),
    ("laneemden.assembly", "lp_norm", "assembly.lp_norm"),
    ("laneemden.assembly", "assemble_stiffness", "assembly.assemble_stiffness"),
    ("laneemden.assembly", "assemble_mass", "assembly.assemble_mass"),
    ("laneemden.assembly", "assemble_weighted_mass", "assembly.assemble_weighted_mass"),
    ("laneemden.diagnostics", "nondegeneracy_gap", "diagnostics.nondegeneracy_gap"),
    ("laneemden.cli", "nondegeneracy_gap", "diagnostics.nondegeneracy_gap"),
    ("laneemden.mesh", "refine_uniform", "mesh.refine_uniform"),
    ("laneemden.study", "refine_uniform", "mesh.refine_uniform"),
    ("laneemden.cli", "refine_uniform", "mesh.refine_uniform"),
    ("laneemden.mesh", "validate_mesh", "mesh.validate_mesh"),
    ("laneemden.mesh", "read_mesh", "mesh.read_mesh"),
    ("laneemden.cli", "read_mesh", "mesh.read_mesh"),
    ("laneemden.mesh", "prolongate", "mesh.prolongate"),
    ("laneemden.study", "prolongate", "mesh.prolongate"),
    ("laneemden.cli", "export_solution", "cli.export_solution"),
    ("laneemden.cli", "import_solution", "cli.import_solution"),
    ("laneemden.study", "run_study", "study.run_study"),
    ("laneemden.cli", "run_study", "study.run_study"),
    ("laneemden.study", "inter_level_error", "study.inter_level_error"),
]

LEVEL_LAYER = "minimizer.solve_extremal"
ROOT_SPAN = "bench.workload"


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _cg_attrs(args, kwargs, result):
    report = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    iters = getattr(report, "iterations", None)
    return {} if iters is None else {"iters": int(iters)}


def _export_attrs(args, kwargs, result):
    path = _arg(args, kwargs, 2, "path")
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {}


ATTRS = {"sparse.cg_solve": _cg_attrs, "cli.export_solution": _export_attrs}


def level_record(args, kwargs, result, seconds):
    """Per-level record from solve_extremal's arguments and its result."""
    mesh = _arg(args, kwargs, 0, "mesh")
    config = _arg(args, kwargs, 1, "config")
    converged = bool(getattr(result, "converged", False))
    if getattr(config, "iters_fixed", None) is not None:
        stop = "iters_fixed"
    else:
        stop = "stagnated" if converged else "max_iters"
    return {
        "kind": "level",
        "level": int(getattr(mesh, "level", -1)),
        "n_interior": int(getattr(getattr(mesh, "interior", ()), "size", 0)),
        "iters": int(getattr(result, "iterations", -1)),
        "stop": stop,
        "residual": float(getattr(result, "fixed_point_residual", float("nan"))),
        "c_h": float(getattr(result, "c_h", float("nan"))),
        "converged": converged,
        "seconds": seconds,
    }


class Tracer:
    """In-memory span and per-level record store for one run.

    With ``spans=False`` only the per-level records are kept (the correctness
    gate needs them on untimed and timed runs alike); no span is opened.
    """

    def __init__(self, run_id: int = 0, spans: bool = True, clock=time.perf_counter):
        self.run_id = run_id
        self.spans_on = spans
        self.clock = clock
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self.live: list[str] = []
        self.missing: list[str] = []

    def open(self, name: str) -> dict:
        span = {"kind": "span", "run": self.run_id, "id": self._next_id,
                "parent": self._stack[-1] if self._stack else None,
                "name": name, "start": self.clock(), "end": None, "attrs": {}}
        self._next_id += 1
        self._stack.append(span["id"])
        self.records.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = self.clock()
        self._stack.pop()

    def _wrap(self, fn, layer: str):
        attrs = ATTRS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(layer) if tracer.spans_on else None
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                if span is not None:
                    tracer.close(span)
            if span is not None and attrs is not None:
                span["attrs"].update(attrs(args, kwargs, result))
            if layer == LEVEL_LAYER:
                rec = level_record(args, kwargs, result, tracer.clock() - t0)
                rec["run"] = tracer.run_id
                tracer.records.append(rec)
            return result

        return wrapper

    def install(self, bindings=BINDINGS) -> None:
        """Wrap every binding that exists; list the live and the missing ones."""
        for module_name, attr, layer in bindings:
            label = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(label)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(label)
                continue
            self.live.append(label)
            if self.spans_on or layer == LEVEL_LAYER:
                self._restore.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, layer))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def split(records: list[dict]) -> dict[str, dict]:
    """Per layer name: calls, inclusive seconds, self seconds, summed attrs."""
    spans = [r for r in records if r["kind"] == "span"]
    self_s = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s["end"] - s["start"]
        row["self_s"] += self_s[s["id"]]
        for k, v in s["attrs"].items():
            row[k] = row.get(k, 0) + v
    return out


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Every per-layer metric of one traced run (trace.overhead_s excepted)."""
    by = split(records)
    levels = [r for r in records if r["kind"] == "level"]

    def get(layer, key):
        return by.get(layer, {}).get(key, 0)

    outer = sum(r["iters"] for r in levels)
    cg_calls = get("sparse.cg_solve", "calls")
    cg_iters = get("sparse.cg_solve", "iters")
    m = {
        "sparse.cg_solve.calls": cg_calls,
        "sparse.cg_solve.s": get("sparse.cg_solve", "s"),
        "sparse.cg_solve.iters": cg_iters,
        "sparse.cg_solve.iters_per_call": cg_iters / cg_calls if cg_calls else 0.0,
        "minimizer.solve_extremal.calls": get("minimizer.solve_extremal", "calls"),
        "minimizer.solve_extremal.s": get("minimizer.solve_extremal", "s"),
        "minimizer.solve_extremal.self_s": get("minimizer.solve_extremal", "self_s"),
        "minimizer.outer_iters": outer,
        "minimizer.unconverged": sum(1 for r in levels if not r["converged"]),
        "minimizer.finest_level_s": (max(levels, key=lambda r: r["level"])["seconds"]
                                     if levels else 0.0),
        "assembly.nonlinear_load.calls": get("assembly.nonlinear_load", "calls"),
        "assembly.nonlinear_load.s": get("assembly.nonlinear_load", "s"),
        "assembly.nonlinear_load.per_step": (get("assembly.nonlinear_load", "calls") / outer
                                             if outer else 0.0),
        "assembly.lp_norm.calls": get("assembly.lp_norm", "calls"),
        "assembly.lp_norm.s": get("assembly.lp_norm", "s"),
    }
    for name in ("assemble_stiffness", "assemble_mass", "assemble_weighted_mass"):
        m[f"assembly.{name}.calls"] = get(f"assembly.{name}", "calls")
        m[f"assembly.{name}.s"] = get(f"assembly.{name}", "s")
    for layer in ("diagnostics.nondegeneracy_gap", "sparse.smallest_eig_constrained",
                  "mesh.refine_uniform", "study.inter_level_error"):
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.s"] = get(layer, "s")
    for layer in ("mesh.validate_mesh", "mesh.read_mesh", "mesh.prolongate",
                  "cli.export_solution", "cli.import_solution"):
        m[f"{layer}.s"] = get(layer, "s")
    m["cli.export_solution.bytes"] = get("cli.export_solution", "bytes")
    m["study.run_study.self_s"] = get("study.run_study", "self_s")
    return m


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over runs (all runs report the same keys)."""
    return {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
