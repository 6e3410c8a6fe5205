"""Tests of the benchmark itself: gate, span arithmetic, binding robustness.

    python3 -m pytest -q bench/tests
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gate  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _reference_outputs(name):
    ref = gate.load_reference(name)
    return ref, copy.deepcopy(ref["rows"]), copy.deepcopy(ref["levels"])


@pytest.mark.parametrize("name", ["study-p4", "paper-p11"])
def test_gate_accepts_reference(name):
    ref, rows, levels = _reference_outputs(name)
    failures = gate.check_study(name, rows, levels, ref)
    assert len(failures) == len(ref["rows"]) + 1
    assert not any(failures.values())


@pytest.mark.parametrize("key", ["rate_l2", "rate_h1"])
def test_gate_rejects_perturbed_rate(key):
    ref, rows, levels = _reference_outputs("study-p4")
    rows[3][key] += 1e-3
    failures = gate.check_study("study-p4", rows, levels, ref)
    assert failures[rows[3]["j"]]
    assert sum(1 for bad in failures.values() if bad) == 1


def test_gate_rejects_unconverged_level():
    ref, rows, levels = _reference_outputs("study-p4")
    levels[-1]["converged"] = False
    failures = gate.check_study("study-p4", rows, levels, ref)
    assert failures[levels[-1]["level"]] == ["unconverged"]


def test_gate_rejects_wrong_step_count_on_paper_protocol():
    ref, rows, levels = _reference_outputs("paper-p11")
    levels[2]["iters"] = 59
    failures = gate.check_study("paper-p11", rows, levels, ref)
    assert failures[levels[2]["level"]] == ["iters 59 != 60"]


def test_hexagon_round_trip_passes(tmp_path):
    theta, values = worker.hexagon_input(5, tmp_path / "coarse.mesh")
    result = worker.run_hexagon(tmp_path / "coarse.mesh", theta, values, tmp_path, 2)
    assert gate.check_hexagon(result, 2) == []
    assert list(tmp_path.iterdir()) == [tmp_path / "coarse.mesh"]


def test_gate_rejects_flipped_value_bit(tmp_path, monkeypatch):
    import numpy as np
    from laneemden import cli

    real_import = cli.import_solution

    def flipping_import(path):
        mesh, field = real_import(path)
        bits = field.view(np.uint64)
        bits[len(bits) // 2] ^= np.uint64(1)
        return mesh, field

    monkeypatch.setattr(cli, "import_solution", flipping_import)
    theta, values = worker.hexagon_input(5, tmp_path / "coarse.mesh")
    result = worker.run_hexagon(tmp_path / "coarse.mesh", theta, values, tmp_path, 2)
    assert result["mismatches"] == ["values"]
    assert gate.check_hexagon(result, 2) == ["round trip changed values"]


def test_self_time_of_nested_spans():
    def span(i, parent, start, end):
        return {"kind": "span", "run": 0, "id": i, "parent": parent, "name": f"s{i}",
                "start": start, "end": end, "attrs": {}}

    records = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 3.5, 6.0),    # overlaps span 1: the union is counted once
        span(4, 0, 8.0, 12.0),   # runs past its parent: clipped to it
    ]
    self_s = spans.self_times(records)
    assert self_s == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 4.0})
    assert spans.split(records)["s0"] == pytest.approx({"calls": 1, "s": 10.0, "self_s": 3.0})


def test_tracer_nests_spans_by_call_order():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    tracer.close(outer)
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert spans.self_times(tracer.records) == {outer["id"]: 2.0, inner["id"]: 1.0}


def test_missing_binding_counts_zero_calls(monkeypatch):
    import laneemden.minimizer

    monkeypatch.delattr(laneemden.minimizer, "cg_solve")
    bindings = spans.BINDINGS + [("laneemden.no_such_module", "f", "sparse.cg_solve")]
    tracer = spans.Tracer()
    tracer.install(bindings)
    try:
        assert "laneemden.minimizer.cg_solve" in tracer.missing
        assert "laneemden.no_such_module.f" in tracer.missing
        assert "laneemden.sparse.cg_solve" in tracer.live
        assert spans.layer_metrics(tracer.records)["sparse.cg_solve.calls"] == 0
    finally:
        tracer.uninstall()
    assert not hasattr(laneemden.minimizer, "cg_solve")


def test_traced_small_study_counts_layers():
    from laneemden import study

    original = study.solve_extremal
    with spans.Tracer() as tracer:
        study.run_study(4, 2)
    assert study.solve_extremal is original
    levels = [r for r in tracer.records if r["kind"] == "level"]
    assert [r["level"] for r in levels] == [1, 2, 3]
    assert all(r["stop"] == "stagnated" and r["converged"] for r in levels)
    m = spans.layer_metrics(tracer.records)
    assert m["minimizer.solve_extremal.calls"] == 3
    assert m["sparse.cg_solve.calls"] == m["minimizer.outer_iters"] > 0
    assert 2.0 <= m["assembly.nonlinear_load.per_step"] < 2.1
    assert m["study.inter_level_error.calls"] == 2


def test_metrics_match_benchmark_spec():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    produced = set(spans.layer_metrics([])) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    import run

    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E)
    assert {w["name"] for w in spec["workloads"]} == set(worker.WORKLOADS)
