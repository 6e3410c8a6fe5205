"""Regenerate the reference tables the gate compares study outputs with.

    python3 bench/make_reference.py

Run only at a commit whose numbers are the accepted baseline: the tables
define what "correct" means for every later run.
"""

import json
import sys

import run
import worker


def main() -> int:
    for name, (p, j_max, iters_fixed, scaling) in worker.STUDIES.items():
        result = worker.execute(name, seed=0, rep=0, trace=False)
        ref = {
            "workload": name,
            "call": {"p": p, "j_max": j_max, "iters_fixed": iters_fixed, "scaling": scaling},
            "commit": run.git_commit(),
            "rows": result["outputs"]["rows"],
            "levels": result["outputs"]["levels"],
        }
        path = worker.BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"wrote {path} ({len(ref['rows'])} rows, {result['wall_s']:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
