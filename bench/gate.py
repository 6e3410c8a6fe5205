"""Correctness gate: compare a run's outputs with the stored reference tables.

One operation is one level solve for the studies and one round trip for
hexagon-io.  A study row's checks count against the level the row is
named after (row j compares levels j and j+1); the finest level is checked
through its per-level record.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RATE_TOL = 5e-5        # "match to 4 decimals"
C_H_RTOL = 1e-9
GAP_RTOL = 1e-6
P4_RESIDUAL_MAX = 1e-6
P11_ITERS = 60
INTERP_RTOL = 1e-12    # prolongation vs. independent barycentric interpolation


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref) if ref else abs(got)


def check_study(workload: str, rows: list[dict], levels: list[dict], ref: dict) -> dict:
    """Level -> list of failed checks (empty list when the level passed)."""
    n_levels = len(ref["rows"]) + 1
    failures: dict[int, list[str]] = {lvl: [] for lvl in range(1, n_levels + 1)}
    if len(rows) != len(ref["rows"]):
        for lvl in failures:
            failures[lvl].append(f"{len(rows)} rows, reference has {len(ref['rows'])}")
        return failures

    for row, want in zip(rows, ref["rows"]):
        bad = failures[want["j"]]
        for key in ("rate_l2", "rate_h1"):
            got, exp = row[key], want[key]
            if (got is None) != (exp is None) or (
                    exp is not None and not abs(got - exp) <= RATE_TOL):
                bad.append(f"{key} {got} != {exp}")
        if not _rel(row["c_h"], want["c_h"]) <= C_H_RTOL:
            bad.append(f"c_h {row['c_h']!r} != {want['c_h']!r}")
        if want["gap"] is not None:
            gap = row["gap"]
            if gap is None or not gap > 0 or not _rel(gap, want["gap"]) <= GAP_RTOL:
                bad.append(f"gap {gap} != {want['gap']}")

    # Per-level records exist while the solve_extremal binding does; without
    # it the rows carry the same residual and iteration checks.
    per_level = levels if levels else [
        {"level": r["j"], "residual": r["residual"], "iters": r["iters"], "converged": True}
        for r in rows]
    if levels and len(levels) != n_levels:
        for lvl in failures:
            failures[lvl].append(f"{len(levels)} level solves, expected {n_levels}")
    for rec in per_level:
        bad = failures.setdefault(rec["level"], [f"unexpected level {rec['level']}"])
        if not rec["converged"]:
            bad.append("unconverged")
        if workload == "study-p4" and not rec["residual"] <= P4_RESIDUAL_MAX:
            bad.append(f"residual {rec['residual']:.3e} > {P4_RESIDUAL_MAX}")
        if workload == "paper-p11" and rec["iters"] != P11_ITERS:
            bad.append(f"iters {rec['iters']} != {P11_ITERS}")
    return failures


def hexagon_counts(refinements: int) -> tuple[int, int, int]:
    """(vertices, triangles, boundary vertices) of the refined 6-triangle hexagon."""
    nv, ne, nt = 7, 12, 6
    for _ in range(refinements):
        nv, ne, nt = nv + ne, 2 * ne + 3 * nt, 4 * nt
    return nv, nt, 6 * 2 ** refinements


def roundtrip_mismatches(written: dict, read: dict) -> list[str]:
    """Names of the arrays that did not come back bit for bit."""
    import numpy as np

    bad = []
    for key, a in written.items():
        a, b = np.ascontiguousarray(a), np.ascontiguousarray(read[key])
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            bad.append(key)
    return bad


def check_hexagon(result: dict, refinements: int) -> list[str]:
    """Failed checks of one hexagon-io round trip."""
    nv, nt, nb = hexagon_counts(refinements)
    bad = [f"{key} {result[key]} != {want}"
           for key, want in (("n_vertices", nv), ("n_triangles", nt), ("n_boundary", nb))
           if result[key] != want]
    bad += [f"round trip changed {key}" for key in result["mismatches"]]
    if not (math.isfinite(result["interp_err"]) and result["interp_err"] <= INTERP_RTOL):
        bad.append(f"prolongation off by {result['interp_err']:.3e} (relative)")
    return bad
