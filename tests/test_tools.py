import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from laneemden.mesh import read_mesh
from laneemden.study import run_study

ROOT = Path(__file__).resolve().parent.parent


def _study_footprint(levels, *flags):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "study_footprint.py"), "--p", "4",
         "--levels", str(levels), *flags],
        capture_output=True, text=True, check=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_study_footprint_prints_one_json_line():
    record = _study_footprint(3)
    assert record["p"] == 4.0 and record["levels"] == 3
    assert record["wall_s"] > 0.0 and record["cpu_s"] > 0.0
    # the gaps on the square solve by sine transforms: nothing is factored
    assert record["lazy"] == []
    assert 0.0 < record["setup_maxrss_mb"] <= record["maxrss_mb"]
    assert math.isfinite(record["rate_l2"]) and math.isfinite(record["rate_h1"])
    # every row's c_h and step count, as run_study computes them here
    rows = run_study(4.0, 3)
    assert record["c_h"] == [r.c_h for r in rows]
    assert record["iters"] == [r.iters for r in rows] and all(n >= 1 for n in record["iters"])
    # and every row's gap: none on L1 (one interior vertex), positive after
    assert record["gap"] == [r.gap for r in rows]
    assert record["gap"][0] is None and all(g > 0.0 for g in record["gap"][1:])


def test_study_footprint_runs_the_coarse_mesh_of_its_domain(triangle_path):
    record = _study_footprint(3, "--domain", f"mesh:{triangle_path}")
    assert record["domain"] == f"mesh:{triangle_path}"
    rows = run_study(4.0, 3, coarse=read_mesh(triangle_path))
    assert record["c_h"] == [r.c_h for r in rows]
    assert record["iters"] == [r.iters for r in rows]
    assert record["gap"] == [r.gap for r in rows] and all(g > 0.0 for g in record["gap"])
    # off the square the descent factors its stiffness
    assert "scipy.sparse.linalg" in record["lazy"]


def test_study_footprint_lazy_is_empty_without_a_factorization():
    # run_study(4, 2) takes one gap, at L2: 9 unknowns, solved by sine transforms
    record = _study_footprint(2)
    assert record["lazy"] == []


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _tool("bench_pairs").compare
PARENT = [1.0 + 0.01 * i for i in range(10)]   # median 1.045, interquartile range 0.045
NO_FAILS = {"parent": 0, "change": 0}


def _faster(wins, ties=0, by=0.2):
    """The parent's runs, `wins` of them lowered by `by`, then `ties` equal, the rest raised."""
    return [p - by if i < wins else p if i < wins + ties else p + by
            for i, p in enumerate(PARENT)]


def test_nine_wins_beyond_the_spread_is_a_gain():
    r = compare(PARENT, _faster(9), "lower", 0.25, NO_FAILS)
    assert (r["wins"], r["ties"], r["gain"]) == (9, 0, True)
    assert r["median_change"] < 0.0


def test_eight_wins_is_not_a_gain():
    r = compare(PARENT, _faster(8), "lower", 0.25, NO_FAILS)
    assert (r["wins"], r["gain"]) == (8, False)


def test_ties_count_for_neither_side():
    r = compare(PARENT, _faster(9, ties=1), "lower", 0.25, NO_FAILS)
    assert (r["wins"], r["ties"], r["gain"]) == (9, 1, True)
    r = compare(PARENT, _faster(8, ties=2), "lower", 0.25, NO_FAILS)
    assert (r["wins"], r["ties"], r["gain"]) == (8, 2, False)


def test_move_inside_the_spread_is_not_a_gain():
    parent = [1.0 + 0.1 * i for i in range(10)]   # interquartile range 0.45
    r = compare(parent, [p - 0.05 for p in parent], "lower", 0.25, NO_FAILS)
    assert (r["wins"], r["gain"]) == (10, False)


def test_more_failed_operations_void_the_gain():
    assert compare(PARENT, _faster(10), "lower", 0.25, {"parent": 1, "change": 1})["gain"]
    assert not compare(PARENT, _faster(10), "lower", 0.25, {"parent": 0, "change": 1})["gain"]


def test_higher_is_better_flips_the_sign():
    r = compare(PARENT, _faster(10), "higher", 0.25, NO_FAILS)
    assert (r["wins"], r["gain"], r["within_bound"]) == (0, False, True)
    r = compare(PARENT, _faster(10, by=-0.2), "higher", 0.25, NO_FAILS)
    assert (r["wins"], r["gain"]) == (10, True)


@pytest.mark.parametrize("better,at,beyond", [("lower", 1.25, 2.0), ("higher", 0.75, 0.0)])
def test_within_bound_holds_exactly_at_the_bound(better, at, beyond):
    # a 0.25 bound on a parent median of 1.0: 1.25 (or 0.75) is the last value allowed
    parent = [1.0] * 10
    assert compare(parent, [at] * 10, better, 0.25, NO_FAILS)["within_bound"]
    past = math.nextafter(at, beyond)
    assert not compare(parent, [past] * 10, better, 0.25, NO_FAILS)["within_bound"]


def test_timed_out_run_is_recorded_as_failed(tmp_path, monkeypatch):
    # a run past RUN_TIMEOUT_S is killed and recorded, not raised through main
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("import time\ntime.sleep(60)\n")
    bench_pairs = _tool("bench_pairs")
    monkeypatch.setattr(bench_pairs, "RUN_TIMEOUT_S", 0.5)
    r = bench_pairs.run_bench(tmp_path, "study-p4")
    assert r == {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                 "error": "timed out after 0.5 s", "env": None, "exit": None}


SOURCE = '''"""Module docstring,
on two lines."""

import os  # a comment after code


def f(x):
    """Docstring."""
    # a comment line
    s = """a string that is
not a docstring"""
    return (x +
            1)
'''


def test_code_lines_skips_blanks_comments_and_docstrings():
    # import, def, the string's two lines and the return's two lines
    assert _tool("code_lines").code_lines(SOURCE) == 6


def test_code_lines_prints_each_module_and_the_total():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py")],
                          capture_output=True, text=True, check=True, timeout=60)
    rows = [line.split() for line in proc.stdout.splitlines()]
    modules = sorted(p.name for p in (ROOT / "src" / "laneemden").glob("*.py"))
    assert [name for _, name in rows] == modules + ["total"]
    counts = [int(n) for n, _ in rows]
    assert all(n > 0 for n in counts[:-1]) and counts[-1] == sum(counts[:-1])
