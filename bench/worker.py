"""One repetition of one workload, in a fresh process.

    python3 bench/worker.py --workload study-p4 --seed 0 --rep 0 --trace 0

Set-up (importing laneemden and generating the inputs) is timed from the
top of this file.  The workload is timed from its first call into the
program until its outputs are in hand.  The last stdout line is a JSON
object with the timings, resource usage, outputs for the gate and, with
--trace 1, the path of the JSON-lines file holding the run's spans.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

STUDIES = {
    # name: (p, j_max, iters_fixed, scaling)
    "study-p4": (4.0, 6, None, "lambda1"),
    "paper-p11": (11.0, 6, 60, "unit-norm"),
}
HEXAGON_REFINEMENTS = 7
WORKLOADS = (*STUDIES, "hexagon-io")


def import_program():
    """Import laneemden from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "laneemden" / "__init__.py").is_file():
        raise SystemExit(f"no laneemden sources under {src}")
    sys.path.insert(0, str(src))
    import laneemden

    if Path(laneemden.__file__).resolve().parent != (src / "laneemden").resolve():
        raise SystemExit(f"imported laneemden from {laneemden.__file__}, not {src}")
    return laneemden


def hexagon_input(seed: int, path: Path):
    """Write a seeded regular-hexagon coarse mesh; return (rotation, nodal values)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(0.0, math.pi / 3))
    values = rng.uniform(0.5, 1.5, 7)
    angles = theta + np.arange(6) * (math.pi / 3)
    verts = [(0.0, 0.0, 0)] + [(math.cos(a), math.sin(a), 1) for a in angles]
    tris = [(0, k, k % 6 + 1) for k in range(1, 7)]
    lines = [f"{len(verts)} {len(tris)}"]
    lines += [f"{x!r} {y!r} {b}" for x, y, b in verts]
    lines += [f"{i} {j} {k}" for i, j, k in tris]
    path.write_text("\n".join(lines) + "\n")
    return theta, values


def hexagon_interpolant(points, theta: float, values):
    """P1 interpolant of the coarse hexagon field, computed independently."""
    import numpy as np

    x, y = points[:, 0], points[:, 1]
    phi = np.mod(np.arctan2(y, x) - theta, 2 * math.pi)
    k = np.minimum((phi // (math.pi / 3)).astype(np.int64), 5)
    a0, a1 = theta + k * (math.pi / 3), theta + (k + 1) * (math.pi / 3)
    ax, ay, bx, by = np.cos(a0), np.sin(a0), np.cos(a1), np.sin(a1)
    det = ax * by - ay * bx
    s = (x * by - y * bx) / det
    t = (ax * y - ay * x) / det
    return (1.0 - s - t) * values[0] + s * values[1 + k] + t * values[1 + (k + 1) % 6]


def run_hexagon(coarse_path: Path, theta: float, values, work: Path,
                refinements: int = HEXAGON_REFINEMENTS) -> dict:
    """read -> refine + prolongate -> export -> import -> compare bit for bit."""
    import numpy as np
    from laneemden import cli, mesh

    from gate import roundtrip_mismatches

    m = mesh.read_mesh(coarse_path)
    field = values
    for _ in range(refinements):
        m = mesh.refine_uniform(m)
        field = mesh.prolongate(field, m)
    path = work / f"hexagon-{os.getpid()}.txt"
    try:
        cli.export_solution(m, field, path)
        m2, field2 = cli.import_solution(path)
    finally:
        path.unlink(missing_ok=True)
    written = {"vertices": m.vertices, "triangles": m.triangles,
               "is_boundary": m.is_boundary, "values": field}
    read = {"vertices": m2.vertices, "triangles": m2.triangles,
            "is_boundary": m2.is_boundary, "values": field2}
    exact = hexagon_interpolant(m.vertices, theta, values)
    return {
        "n_vertices": int(m.n_vertices),
        "n_triangles": int(m.n_triangles),
        "n_boundary": int(np.count_nonzero(m.is_boundary)),
        "mismatches": roundtrip_mismatches(written, read),
        "interp_err": float(np.abs(field - exact).max() / np.abs(values).max()),
    }


def run_study_workload(name: str) -> dict:
    from laneemden import minimizer, study

    p, j_max, iters_fixed, scaling = STUDIES[name]
    config = minimizer.MinimizerConfig(p=p, iters_fixed=iters_fixed)
    rows = study.run_study(p, j_max, config, scaling=scaling)
    keys = ("j", "err_l2", "rate_l2", "err_h1", "rate_h1", "c_h", "gap", "residual", "iters")
    return {"rows": [{k: getattr(r, k) for k in keys} for r in rows]}


def execute(name: str, seed: int, rep: int, trace: bool) -> dict:
    """Set up, run and measure one repetition; return the result record."""
    from spans import ROOT_SPAN, Tracer

    import_program()
    OUT.mkdir(exist_ok=True)
    if name == "hexagon-io":
        coarse = OUT / f"hexagon-coarse-{os.getpid()}.mesh"
        theta, values = hexagon_input(seed, coarse)
    setup_s = time.perf_counter() - T0

    with Tracer(run_id=rep, spans=trace) as tracer:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        root = tracer.open(ROOT_SPAN) if trace else None
        if name == "hexagon-io":
            out = {"hexagon": run_hexagon(coarse, theta, values, OUT)}
        else:
            out = run_study_workload(name)
        if root is not None:
            tracer.close(root)
        wall_s = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if name == "hexagon-io":
        coarse.unlink()

    out["levels"] = [r for r in tracer.records if r["kind"] == "level"]
    result = {
        "workload": name, "seed": seed, "rep": rep, "traced": trace,
        "setup_s": setup_s, "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "live": tracer.live, "missing": tracer.missing,
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "outputs": out,
    }
    if trace:
        path = OUT / f"{name}-rep{rep}.jsonl"
        with open(path, "w") as f:
            for rec in tracer.records:
                f.write(json.dumps(rec) + "\n")
        result["trace_file"] = str(path)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = execute(args.workload, args.seed, args.rep, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
