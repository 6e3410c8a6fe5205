"""Traced peak memory and time of the interior assemblies, level by level.

    python3 tools/assembly_footprint.py --levels 7 9

Imports laneemden from this checkout's ``src/`` and, for each level j from
A to B, builds ``build_unit_square(j)`` with its areas cached, as on a
solved level, and assembles the two interior matrices of a gap level: the
stiffness K_int (``assemble_stiffness(mesh, interior=True)``) and the
weighted mass W_int of the p = 11 gap (``assemble_weighted_mass`` of
sin(pi x) sin(pi y) to the power 9, ``interior=True``).  It prints one JSON
line per level: the triangle count, each matrix's bytes (data, indices and
indptr), its traced high-water mark over those bytes (tracemalloc, one
call) and its best-of-3 seconds, timed untraced.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REPEATS = 3


def _bytes(A) -> int:
    return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


def _footprint(assemble) -> dict:
    """Bytes, traced peak over bytes, and best-of-REPEATS seconds of one
    assembly."""
    tracemalloc.start()
    try:
        A = assemble()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = _bytes(A)
    del A
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        assemble()
        best = min(best, time.perf_counter() - t0)
    return {"bytes": size, "peak_ratio": round(peak / size, 3), "s": round(best, 5)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", type=int, nargs=2, default=(7, 8), metavar=("A", "B"),
                    help="first and last level of the unit square")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy as np

    from laneemden.assembly import assemble_stiffness, assemble_weighted_mass
    from laneemden.mesh import build_unit_square

    for level in range(args.levels[0], args.levels[1] + 1):
        mesh = build_unit_square(level)
        mesh.areas
        x, y = mesh.vertices.T
        w = np.sin(np.pi * x) * np.sin(np.pi * y)
        record = {"level": level, "nt": mesh.n_triangles}
        for name, assemble in (
                ("k_int", lambda: assemble_stiffness(mesh, interior=True)),
                ("w_int", lambda: assemble_weighted_mass(mesh, w, 9.0, interior=True))):
            for key, value in _footprint(assemble).items():
                record[f"{name}_{key}"] = value
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
