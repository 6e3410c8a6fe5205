import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from laneemden.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    export_solution,
    import_solution,
    main,
)
from laneemden.errors import MeshError
from laneemden.mesh import (
    MAX_LEVEL,
    build_unit_square,
    mesh_from_tokens,
    read_mesh,
    refine_uniform,
)

# Any text, plus integer and float literals, which arbitrary text rarely hits.
TOKENS = st.one_of(st.text(), st.integers().map(str), st.floats().map(repr))


def test_usage_error_on_bad_p(tmp_path):
    assert main(["solve", "--p", "1.5", "--level", "1",
                 "--out-dir", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("flag", ["--p", "--quotient-tol"])
def test_usage_error_on_nan_value(tmp_path, capsys, flag):
    args = ["study", "--levels", "2", "--iters-fixed", "5", flag, "nan",
            "--out-dir", str(tmp_path)]
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "nan" in err


def test_usage_error_on_unknown_flag():
    with pytest.raises(SystemExit) as err:
        main(["study", "--no-such-flag"])
    assert err.value.code == EXIT_USAGE


def test_usage_error_on_bad_domain(tmp_path):
    assert main(["solve", "--p", "4", "--level", "1", "--domain", "torus",
                 "--out-dir", str(tmp_path)]) == EXIT_USAGE


def test_io_error_on_missing_mesh(tmp_path):
    assert main(["solve", "--p", "4", "--level", "0",
                 "--domain", f"mesh:{tmp_path}/nope.mesh",
                 "--out-dir", str(tmp_path)]) == EXIT_IO


@pytest.mark.parametrize("text", [
    "three one\n0 0 1\n1 0 1\n0 1 1\n0 1 2\n",   # bad header
    "3 1\n0 0 1\n1 zero 1\n0 1 1\n0 1 2\n",    # bad coordinate token
    "3 1\n0 0 1\n1 0 1\n0 1 1\n0 1 3\n",       # vertex index out of range
    "3 1\n0 0 1\n1 0 1\n0 1 1\n0 1 99999999999999999999\n",  # index overflows int64
    "3 1\n0 0 1\n1 1e999 1\n0 1 1\n0 1 2\n",  # infinite coordinate
], ids=["header", "token", "index", "overflow", "infinite"])
# A warning would reach a user's terminal as extra stderr lines.
@pytest.mark.filterwarnings("error")
def test_io_error_on_malformed_mesh(tmp_path, capsys, text):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    code = main(["solve", "--p", "4", "--level", "1", "--domain", f"mesh:{path}",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_IO
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_diagnose_passes_quad_degree_to_gap(tmp_path, weighted_mass_degrees):
    assert main(["diagnose", "--p", "4", "--level", "2", "--quad-degree", "7",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    assert weighted_mass_degrees == [7]


def test_solve_writes_solution(tmp_path, capsys):
    code = main(["solve", "--p", "4", "--level", "2", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "c_h" in out
    files = list(tmp_path.glob("solution_p4_L2_*.txt"))
    assert len(files) == 1
    mesh, field = import_solution(files[0])
    assert mesh.n_vertices == 25
    assert field.shape == (25,)


def test_solve_unconverged_exit_code(tmp_path):
    code = main(["solve", "--p", "4", "--level", "3", "--max-iters", "2",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_NUMERICAL


@pytest.mark.parametrize("flags, stop", [([], "stagnated"),
                                         (["--max-iters", "2"], "max_iters"),
                                         (["--iters-fixed", "5"], "iters_fixed")])
def test_solve_reports_stop_reason(tmp_path, capsys, flags, stop):
    main(["solve", "--p", "4", "--level", "3", "--out-dir", str(tmp_path), *flags])
    assert f"  stop {stop}  " in capsys.readouterr().out.splitlines()[0]


def test_solve_iters_fixed_above_precondition_warns(tmp_path, capsys):
    # 5 fixed steps end at residual 0.73: still exit 0, with one warning line;
    # 100 steps at L2 end at 6.8e-7, under the precondition, and stay silent
    code = main(["solve", "--p", "4", "--level", "3", "--iters-fixed", "5",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: --iters-fixed 5 ended at residual")
    assert len(list(tmp_path.glob("solution_*.txt"))) == 1

    code = main(["solve", "--p", "4", "--level", "2", "--iters-fixed", "100",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""


HUGE = "1.7976931348623157e308"  # the largest finite double
NEXT = "1.7976931348623155e308"  # the next double below it


@pytest.mark.parametrize("data", [
    f"3 1\n0 0 1\n{HUGE} 0 1\n0 1 1\n0 1 2\n".encode(),       # edge 1-2 length overflows
    f"3 1\n0 0 1\n{HUGE} 0 1\n0 {HUGE} 1\n0 1 2\n".encode(),  # the area overflows
    # area 2^970 is finite, but the squared length of edge 0-1 is not
    f"3 1\n{NEXT} 0 1\n{HUGE} 0 1\n{HUGE} 1 1\n0 1 2\n".encode(),
    b"\x80\x81",                                                  # not UTF-8
], ids=["length", "area", "near-max", "utf8"])
@pytest.mark.filterwarnings("error")
def test_unreadable_mesh_raises_mesh_error_and_exits_io(tmp_path, capsys, data):
    mesh_path = tmp_path / "bad.mesh"
    mesh_path.write_bytes(data)
    with pytest.raises(MeshError):
        read_mesh(mesh_path)
    solution_path = tmp_path / "bad.txt"
    solution_path.write_bytes(data + b"values\n0\n0\n0\n")
    with pytest.raises(MeshError):
        import_solution(solution_path)
    for level in ("0", "1"):
        code = main(["solve", "--p", "4", "--level", level, "--domain", f"mesh:{mesh_path}",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_IO
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_export_import_round_trip(tmp_path):
    mesh = build_unit_square(1)
    field = np.random.default_rng(0).standard_normal(mesh.n_vertices)
    path = tmp_path / "sol.txt"
    export_solution(mesh, field, path)
    mesh2, field2 = import_solution(path)
    assert np.array_equal(field2, field)
    assert np.array_equal(mesh2.vertices, mesh.vertices)
    assert np.array_equal(mesh2.triangles, mesh.triangles)
    # re-export is byte-identical
    path2 = tmp_path / "sol2.txt"
    export_solution(mesh2, field2, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("text", [
    "",
    "x y\n",
    "-100 1\n",
    "3 1\n0 0 1\n1 0 1\n0 1 1\n0 1 2\nvalues\n1\nabc\n2\n",
], ids=["empty", "header", "count", "value"])
def test_import_solution_malformed_raises_mesh_error(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    # main maps MeshError to EXIT_IO with the message as its one stderr line
    with pytest.raises(MeshError, match="bad.txt") as err:
        import_solution(path)
    assert len(str(err.value).splitlines()) == 1


@settings(max_examples=20, deadline=None, database=None)
@given(theta=st.floats(0.0, np.pi / 3), depth=st.integers(0, 3), data=st.data())
def test_export_import_bit_exact(tmp_path_factory, hexagon_text, theta, depth, data):
    mesh = mesh_from_tokens(hexagon_text(theta).split())
    for _ in range(depth):
        mesh = refine_uniform(mesh)
    field = data.draw(arrays(np.float64, mesh.n_vertices,
                             elements=st.floats(allow_nan=False, allow_infinity=False)))
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    export_solution(mesh, field, path)
    mesh2, field2 = import_solution(path)
    for a, b in ((mesh.vertices, mesh2.vertices), (mesh.triangles, mesh2.triangles),
                 (mesh.is_boundary, mesh2.is_boundary), (field, field2)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def solution_text(tmp_path_factory, hexagon_text):
    """A valid solution file: the rotated hexagon, refined once, and a field."""
    mesh = refine_uniform(mesh_from_tokens(hexagon_text(0.3).split()))
    path = tmp_path_factory.mktemp("solution") / "valid.txt"
    export_solution(mesh, np.random.default_rng(5).standard_normal(mesh.n_vertices), path)
    return path.read_text()


def _imports_or_mesh_error(path):
    try:
        import_solution(path)
    except MeshError:
        pass


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_truncated_solution_imports_or_raises_mesh_error(tmp_path_factory, solution_text,
                                                        data):
    path = tmp_path_factory.getbasetemp() / "truncated.txt"
    path.write_text(solution_text[:data.draw(st.integers(0, len(solution_text)))])
    _imports_or_mesh_error(path)


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_replaced_solution_token_imports_or_raises_mesh_error(tmp_path_factory,
                                                             solution_text, data):
    tokens = solution_text.split()
    tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(TOKENS)
    path = tmp_path_factory.getbasetemp() / "replaced.txt"
    path.write_text("\n".join(tokens))
    _imports_or_mesh_error(path)


def test_export_line_counts(tmp_path):
    mesh = build_unit_square(1)
    path = tmp_path / "sol.txt"
    export_solution(mesh, np.zeros(mesh.n_vertices), path)
    lines = path.read_text().splitlines()
    # header + 9 vertices + 8 triangles + `values` + 9 values
    assert len(lines) == 1 + 9 + 8 + 1 + 9
    assert lines[0] == "9 8"
    assert lines[18] == "values"
    assert all(float(v) == 0.0 for v in lines[19:])


def test_study_csv_deterministic_content(tmp_path, capsys):
    args = ["study", "--p", "4", "--levels", "2", "--out-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("j,h,err_l2,rate_l2,err_h1,rate_h1,")
    csvs = sorted(tmp_path.glob("study_p4_j2_*.csv"))
    assert csvs and csvs[-1].read_text() == first


def test_solve_from_mesh_file_domain(tmp_path, capsys):
    from laneemden.mesh import write_mesh

    coarse = build_unit_square(0)
    mesh_path = tmp_path / "square.mesh"
    write_mesh(coarse, mesh_path)
    code = main(["solve", "--p", "4", "--level", "2",
                 "--domain", f"mesh:{mesh_path}", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK


@pytest.mark.parametrize("level", ["-1", str(MAX_LEVEL + 1)])
@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_mesh_domain_level_out_of_range(tmp_path, capsys, monkeypatch, hexagon_text,
                                       command, level):
    # the hexagon has an interior vertex: level 0 is solvable, so only the
    # range check can stop level -1
    mesh_path = tmp_path / "hexagon.mesh"
    mesh_path.write_text(hexagon_text())

    def no_refinement(mesh):
        raise AssertionError("refined a mesh at an out-of-range level")

    monkeypatch.setattr("laneemden.cli.refine_uniform", no_refinement)
    code = main([command, "--p", "4", "--level", level,
                 "--domain", f"mesh:{mesh_path}", "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hexagon.mesh"]


def test_study_rejects_non_square_domain(tmp_path, capsys):
    mesh_path = tmp_path / "square.mesh"
    from laneemden.mesh import write_mesh

    write_mesh(build_unit_square(0), mesh_path)
    code = main(["study", "--p", "4", "--levels", "2",
                 "--domain", f"mesh:{mesh_path}", "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not list(tmp_path.glob("study_*.csv"))


def test_study_unconverged_exit_code(tmp_path, capsys):
    code = main(["study", "--p", "4", "--levels", "2", "--max-iters", "1",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    csvs = list(tmp_path.glob("study_p4_j2_*.csv"))
    assert len(csvs) == 1 and csvs[0].read_text() == captured.out
    warnings = [line for line in captured.err.splitlines() if "did not" in line]
    assert warnings == ["warning: levels 2, 3 did not stagnate within "
                        "--max-iters; their rows are unreliable"]


def test_poisson_check_runs(tmp_path, capsys):
    assert main(["poisson-check", "--levels", "3",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("j,err_l2,rate_l2,err_h1,rate_h1")
    assert "center value" in out


@pytest.mark.parametrize("max_iters", ["12", "1"])
def test_diagnose_unconverged_exit_code(tmp_path, capsys, monkeypatch, max_iters):
    # 12 steps stop with a residual under the gap precondition, 1 step above it;
    # either way the solve did not stagnate and no gap may be reported
    def no_gap(*args, **kwargs):
        raise AssertionError("gap computed for an unconverged solve")

    monkeypatch.setattr("laneemden.cli.nondegeneracy_gap", no_gap)
    code = main(["diagnose", "--p", "4", "--level", "3", "--max-iters", max_iters,
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "gap" not in captured.out
    assert len(captured.err.splitlines()) == 1 and "did not stagnate" in captured.err


def test_diagnose_positive_gap(tmp_path, capsys):
    assert main(["diagnose", "--p", "4", "--level", "2",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    assert "positive True" in capsys.readouterr().out


def test_paper_protocol_flags_accepted(tmp_path):
    code = main(["study", "--p", "4", "--levels", "2", "--iters-fixed", "10",
                 "--scaling", "unit-norm", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK


def test_diagnose_fixed_steps_above_residual_precondition(tmp_path, capsys, monkeypatch):
    # an --iters-fixed run counts as converged, but 5 steps leave residual 0.73
    def no_gap(*args, **kwargs):
        raise AssertionError("gap computed above the residual precondition")

    monkeypatch.setattr("laneemden.cli.nondegeneracy_gap", no_gap)
    code = main(["diagnose", "--p", "4", "--level", "3", "--iters-fixed", "5",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "gap" not in captured.out
    assert len(captured.err.splitlines()) == 1 and "residual" in captured.err
