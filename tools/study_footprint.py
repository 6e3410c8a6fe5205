"""Wall time, peak memory and numbers of one rate study, in a fresh process.

    python3 tools/study_footprint.py --p 11 --levels 8

Imports laneemden from this checkout's ``src/``, runs ``run_study(p, levels)``
with the default settings and prints one JSON line: the study's wall and CPU
seconds (``getrusage``, all threads), the process's ``ru_maxrss`` in MB after
the imports and after the study, the last row's L2 and H1 rates, every row's
``c_h``, descent steps (``iters``) and ``gap`` (null where no gap is
taken), so that runs of two checkouts show whether they computed the same
numbers, and the modules of ``LAZY`` loaded after the study (``lazy``),
which show whether a gap factored.
``ru_maxrss`` is a high-water mark of the whole process, so run one study per
command.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# Modules that the package imports only where they are needed.
LAZY = ("scipy.sparse.linalg", "scipy.linalg", "scipy.fft", "scipy.special")


def maxrss_mb() -> float:
    """High-water resident set of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_s() -> float:
    """User and system CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, default=11.0, help="exponent p > 2")
    ap.add_argument("--levels", type=int, default=8, help="j_max of run_study")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from laneemden.study import run_study

    setup_mb = maxrss_mb()
    t0, c0 = time.perf_counter(), cpu_s()
    rows = run_study(args.p, args.levels)
    wall_s, study_cpu_s = time.perf_counter() - t0, cpu_s() - c0
    last = rows[-1]
    print(json.dumps({
        "p": args.p,
        "levels": args.levels,
        "wall_s": round(wall_s, 3),
        "cpu_s": round(study_cpu_s, 3),
        "setup_maxrss_mb": round(setup_mb, 1),
        "maxrss_mb": round(maxrss_mb(), 1),
        "rate_l2": last.rate_l2,
        "rate_h1": last.rate_h1,
        "c_h": [r.c_h for r in rows],
        "iters": [r.iters for r in rows],
        "gap": [r.gap for r in rows],
        "lazy": [m for m in LAZY if m in sys.modules],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
