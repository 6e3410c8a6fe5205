"""laneemden benchmark: closed-loop runs of the public entry points.

    python3 bench/run.py --workload study-p4 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py                 # every workload, one after another

Each repetition is a fresh process (bench/worker.py) run one at a time;
repetitions continue until the next one would end after --seconds, and at
least MIN_REPS are made.  Metrics are medians over the repetitions.
Repetitions of a single-threaded workload are pinned to the CPUs in turn
(see PINNED).

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with no
span recorded.  --trace 1 alternates traced and untraced repetitions
(traced first) and reports the per-layer metrics, computed from the span
files the traced repetitions write under bench/out/; trace.overhead_s is the
traced median wall time minus the untraced one.

Outputs are checked against bench/reference/ (see gate.py).  The last stdout
line is {"correct", "attempted", "failed", "metrics"}; the exit code is 1
when any check failed and 2 when the program's sources are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import gate
import spans
import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # every run must end well within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
# On a shared host each vCPU drifts in speed on its own, for minutes at a
# time.  A single-threaded repetition left to the scheduler stays on one
# vCPU, so a run's median followed whichever vCPU it landed on.  Pinning the
# repetitions to the CPUs in turn makes every run sample all of them alike.
# The studies are not pinned: their BLAS thread pool already spans the CPUs.
PINNED = {"hexagon-io"}


def git_commit() -> str:
    """HEAD of the checkout, read without running git ("unknown" outside a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def usable_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": len(usable_cpus()) or os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "seed": seed,
        "commit": git_commit(),
    }


def run_rep(name: str, seed: int, rep: int, traced: bool, timeout: float,
            cpu: int | None = None) -> dict:
    """One repetition in a fresh process, pinned to `cpu` from its start if given."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
           "--seed", str(seed), "--rep", str(rep), "--trace", str(int(traced))]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition {rep} exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"repetition {rep} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(name: str, rep: dict, ref: dict | None) -> dict:
    """Level (or round trip) -> failed checks, for one repetition."""
    if "error" in rep:
        n = len(ref["rows"]) + 1 if ref else 1
        return {op: [rep["error"]] for op in range(n)}
    out = rep["outputs"]
    if name == "hexagon-io":
        return {0: gate.check_hexagon(out["hexagon"], worker.HEXAGON_REFINEMENTS)}
    return gate.check_study(name, out["rows"], out["levels"], ref)


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict) -> bool:
    ref = None if name == "hexagon-io" else gate.load_reference(name)
    reps, failures = [], []
    start = time.perf_counter()
    longest = 0.0
    # CPUs change every second repetition, so that a traced repetition and
    # the untraced one after it run on the same CPU.
    cpus = usable_cpus() if name in PINNED else []
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + longest > seconds:
            break
        t = time.perf_counter()
        k = len(reps)
        rep = run_rep(name, seed, k, trace and k % 2 == 0,
                      timeout=max(RUN_LIMIT_S - elapsed, 1.0),
                      cpu=cpus[k // 2 % len(cpus)] if cpus else None)
        longest = max(longest, time.perf_counter() - t)
        reps.append(rep)
        failures.append(check(name, rep, ref))
        if "error" in rep:
            break

    attempted = sum(len(f) for f in failures)
    failed = sum(1 for f in failures for bad in f.values() if bad)
    ok = [r for r in reps if "error" not in r]

    print(f"env {json.dumps(environment(seed))}")
    if ok:
        print(f"bindings live {json.dumps(ok[0]['live'])} missing {json.dumps(ok[0]['missing'])}")
    for f in failures:
        for op, bad in f.items():
            for msg in bad:
                print(f"FAIL {name} op {op}: {msg}")

    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    values: dict[str, float] = {}
    if trace and traced and plain:
        per_rep = [spans.layer_metrics([json.loads(line) for line in open(r["trace_file"])])
                   for r in traced]
        values = spans.median_metrics(per_rep)
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        first = [json.loads(line) for line in open(traced[0]["trace_file"])]
        print("split (first traced repetition; layer calls s self_s):")
        for layer, row in sorted(spans.split(first).items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {layer:34s} {row['calls']:7d} {row['s']:10.4f} {row['self_s']:10.4f}")
    elif not trace and plain:
        values = {k: statistics.median(r[k] for r in plain) for k in E2E}

    pinning = f", pinned to CPUs {cpus} in turn" if cpus else ""
    print(f"workload {name} seed {seed} repetitions {len(reps)} "
          f"(traced {len(traced)}{pinning}) in {time.perf_counter() - start:.1f} s")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    n = len(traced) if trace else len(plain)
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']} (median of {n})")
    print(f"fail_frac {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    correct = failed == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="laneemden benchmark")
    ap.add_argument("--workload", choices=worker.WORKLOADS,
                    help="one workload (default: every workload in turn)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "laneemden" / "__init__.py").is_file():
        print(f"error: no laneemden sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else list(worker.WORKLOADS)
    results = [run_workload(n, args.seed, seconds, bool(args.trace), units) for n in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
