"""Paired benchmark runs of two checkouts, summarized into one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_<n>.json

Each of the 10 pairs runs ``bench/run.py --workload W --seed 0`` once in each
checkout, for every workload of BENCHMARK.json in turn, at its ``run_seconds``;
the side that runs first alternates from pair to pair, so a drift in host speed
falls on both sides alike.  Each side runs its own ``bench/`` from its own
sources.

For every workload and end-to-end metric of BENCHMARK.json the output holds
each side's runs, median and quartiles, the pairs the change won and tied,
the relative change of the median, whether that is a gain (won at least 9
pairs in 10, moved the median by more than the parent's interquartile range
and failed no more operations than the parent) and whether the change's
median stays within the metric's regression bound.  Failed and attempted
operations are summed per side, and the `env` line of each side's first run
is kept.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SEED = 0
RUN_TIMEOUT_S = 900.0


def failed_run(error: str) -> dict:
    """The record of a run that gave no result line."""
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": error}


def run_bench(checkout: Path, workload: str) -> dict:
    """One bench/run.py run; its last stdout line plus the env line and exit
    code.  A run killed at RUN_TIMEOUT_S is recorded as failed, with no env
    line and no exit code, so that the pairs measured so far are kept."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**failed_run(f"timed out after {RUN_TIMEOUT_S:g} s"), "env": None, "exit": None}
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = failed_run(proc.stderr.strip()[-2000:])
    return {**result, "env": env, "exit": proc.returncode}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], better: str, bound: float,
            failed: dict) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    p, c = spread(parent), spread(change)
    need = math.ceil(0.9 * len(gains))
    return {
        "parent": p,
        "change": c,
        "wins": sum(g > 0 for g in gains),
        "ties": sum(g == 0 for g in gains),
        "median_change": (c["median"] - p["median"]) / p["median"],
        "gain": (sum(g > 0 for g in gains) >= need
                 and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"]
                 and failed["change"] <= failed["parent"]),
        "within_bound": sign * (c["median"] - p["median"]) <= bound * p["median"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {w: {side: [] for side in sides} for w in workloads}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                r = run_bench(sides[side], w)
                runs[w][side].append(r)
                print(f"pair {i} {w} {side}: exit {r['exit']} "
                      + " ".join(f"{k}={m['value']:.4g}" for k, m in r["metrics"].items()),
                      file=sys.stderr)

    summary = {}
    for w, by_side in runs.items():
        failed = {s: sum(r["failed"] for r in rs) for s, rs in by_side.items()}
        metrics = {}
        for m in spec["end_to_end"]:
            values = {side: [r["metrics"].get(m["name"], {}).get("value") for r in rs]
                      for side, rs in by_side.items()}
            if any(v is None for vs in values.values() for v in vs):
                continue  # a run without this metric failed; its errors are below
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                  **compare(values["parent"], values["change"],
                                            m["better"], m["bound"], failed)}
        summary[w] = {
            "failed": failed,
            "attempted": {s: sum(r["attempted"] for r in rs) for s, rs in by_side.items()},
            "errors": [r["error"] for rs in by_side.values() for r in rs if "error" in r],
            "metrics": metrics,
        }

    first = {side: runs[workloads[0]][side][0]["env"] for side in sides}
    out = {
        "command": " ".join(["python3", "tools/bench_pairs.py", *(argv or sys.argv[1:])]),
        "pairs": PAIRS,
        "seed": SEED,
        "seconds": spec["run_seconds"],
        "order": "pair i runs the parent first when i is even, the change first when odd",
        "env": first,
        "workloads": summary,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
