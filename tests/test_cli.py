import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from laneemden import mesh as mesh_module
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
    validate_mesh,
    write_mesh,
)
from laneemden.minimizer import MinimizerConfig, solve_extremal

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


@pytest.mark.parametrize("args", [
    ["diagnose", "--scaling", "unit-norm"],
    ["diagnose", "--out-dir", "made"],
    ["poisson-check", "--out-dir", "made"],
])
def test_flags_without_effect_are_rejected(tmp_path, monkeypatch, args):
    # diagnose and poisson-check write no file, so they take no output flags
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == EXIT_USAGE
    assert not list(tmp_path.iterdir())


def test_usage_error_on_bad_domain(tmp_path):
    assert main(["solve", "--p", "4", "--level", "1", "--domain", "torus",
                 "--out-dir", str(tmp_path)]) == EXIT_USAGE


def test_io_error_on_missing_mesh(tmp_path):
    assert main(["solve", "--p", "4", "--level", "0",
                 "--domain", f"mesh:{tmp_path}/nope.mesh",
                 "--out-dir", str(tmp_path)]) == EXIT_IO


def _holed_grid_text(n: int = 5) -> str:
    """Mesh text of the n x n grid on the unit square without its centre cell,
    plus a vertex flagged interior inside the hole and in no triangle.  The
    hole makes up for the extra vertex in the Euler characteristic."""
    m = n + 1
    hole = range(n // 2, n // 2 + 2)
    rows = [f"{i / n!r} {j / n!r} {int(i in (0, n) or j in (0, n) or (i in hole and j in hole))}"
            for j in range(m) for i in range(m)]
    rows.append("0.5 0.5 0")
    tris = []
    for j in range(n):
        for i in range(n):
            if i != n // 2 or j != n // 2:
                a = j * m + i
                tris += [f"{a} {a + 1} {a + m + 1}", f"{a} {a + m + 1} {a + m}"]
    return "\n".join([f"{len(rows)} {len(tris)}", *rows, *tris]) + "\n"


@pytest.mark.parametrize("text", [
    "three one\n0 0 1\n1 0 1\n0 1 1\n0 1 2\n",   # bad header
    "3 1\n0 0 1\n1 zero 1\n0 1 1\n0 1 2\n",    # bad coordinate token
    "3 1\n0 0 1\n1 0 1\n0 1 1\n0 1 3\n",       # vertex index out of range
    "3 1\n0 0 1\n1 0 1\n0 1 1\n0 1 99999999999999999999\n",  # index overflows int64
    "3 1\n0 0 1\n1 1e999 1\n0 1 1\n0 1 2\n",  # infinite coordinate
    # a hexagon fan whose centre is flagged boundary, on no boundary edge
    "7 6\n0 0 1\n1 0 1\n0.5 0.875 1\n-0.5 0.875 1\n-1 0 1\n-0.5 -0.875 1\n"
    "0.5 -0.875 1\n0 1 2\n0 2 3\n0 3 4\n0 4 5\n0 5 6\n0 6 1\n",
    _holed_grid_text(),  # an interior vertex in no triangle
], ids=["header", "token", "index", "overflow", "infinite", "flagged-centre",
        "isolated-vertex"])
# A warning would reach a user's terminal as extra stderr lines.
@pytest.mark.filterwarnings("error")
def test_io_error_on_malformed_mesh(tmp_path, capsys, text):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    code = main(["solve", "--p", "4", "--level", "1", "--domain", f"mesh:{path}",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_IO
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_diagnose_passes_quad_degree_to_gap(weighted_mass_degrees):
    assert main(["diagnose", "--p", "4", "--level", "2", "--quad-degree", "7"]) == EXIT_OK
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


def test_solve_unconverged_warns_of_the_last_iterate(tmp_path, capsys):
    # Anderson mixing does not lower the quotient monotonically: at L4 the
    # sixth step's iterate has a higher c_h than the fifth's, and it is the
    # sixth that is exported
    code = main(["solve", "--p", "4", "--level", "4", "--max-iters", "6",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err == "warning: iteration did not stagnate; last iterate exported\n"
    c_h = float(re.search(r"c_h (\S+)", captured.out).group(1))
    mesh = build_unit_square(4)
    last, before = (solve_extremal(mesh, MinimizerConfig(p=4.0, max_iters=k)) for k in (6, 5))
    assert c_h == pytest.approx(last.c_h, abs=1e-10) and last.c_h > before.c_h + 0.01
    _, field = import_solution(next(tmp_path.glob("solution_*.txt")))
    assert np.array_equal(field, last.field)


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


def test_study_iters_fixed_above_precondition_warns(tmp_path, capsys):
    # 5 fixed steps leave row 2 at residual 0.39 (row 1, one interior vertex,
    # at 0): still exit 0 and the same CSV, with one warning line naming row 2;
    # 100 steps leave every row under the precondition and stay silent
    args = ["study", "--p", "4", "--levels", "2", "--out-dir", str(tmp_path)]
    assert main([*args, "--iters-fixed", "5"]) == EXIT_OK
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if line.startswith("warning")] == [
        "warning: --iters-fixed 5 ended rows 2 at residuals above the gap precondition 0.0001"]
    csvs = list(tmp_path.glob("study_p4_j2_*.csv"))
    assert len(csvs) == 1 and csvs[0].read_text() == captured.out

    assert main([*args, "--iters-fixed", "100"]) == EXIT_OK
    assert "warning" not in capsys.readouterr().err


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


@pytest.mark.parametrize("flag", ["nan", "2", "0.5", "-1", "inf"])
@pytest.mark.parametrize("vertex", [0, 4], ids=["corner", "centre"])
def test_boundary_flag_other_than_0_or_1_exits_io(tmp_path, capsys, vertex, flag):
    rows = ["0 0 1", "1 0 1", "1 1 1.0", "0 1 1", "0.5 0.5 0"]  # 1.0 is a 1
    rows[vertex] = rows[vertex][:-1] + flag
    path = tmp_path / "square.mesh"
    path.write_text("\n".join(["5 4", *rows, "0 1 4", "1 2 4", "2 3 4", "3 0 4"]) + "\n")
    message = f"vertex {vertex} has boundary flag {float(flag):g}, not 0 or 1"
    with pytest.raises(MeshError, match=re.escape(message)):
        read_mesh(path)
    code = main(["solve", "--p", "4", "--level", "1", "--domain", f"mesh:{path}",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_IO
    assert capsys.readouterr().err.splitlines() == [f"invalid mesh: {path}: {message}"]


@pytest.mark.parametrize("text", [
    "x y\n",                                      # bad header
    "3 1\n0 0 1\n1 zero 1\n0 1 1\n0 1 2\n",       # bad coordinate token
    "3 1\n0 0 1\n1 0 2\n0 1 1\n0 1 2\n",          # boundary flag 2
    "3 1\n0 0 1\n1 0 1\n0 1 1\n0 1 3\n",          # vertex index out of range
    "3 1\n0 0 1\n1 0 1\n0 1 0\n0 1 2\n",          # fails validate_mesh
    "3 1\n0 0 1\n1 0 1\n0 1 1\n0 1 2\nvalue\n",  # no `values` label
    "3 1\n0 0 1\n1 0 1\n0 1 1\n0 1 2\nvalues\n0 x\n",  # malformed value
], ids=["header", "token", "flag", "index", "invalid", "label", "value"])
def test_non_utf8_text_is_reported_before_other_faults(tmp_path, monkeypatch, text):
    # as when the whole file was decoded before its tokens were read
    monkeypatch.setattr(mesh_module, "READ_CHUNK", 4)
    data = text.encode() + b"0 0 0 0\n\xff\n"
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    message = f"{path}: not UTF-8 text (byte {len(data) - 2})"
    for read in (read_mesh, import_solution):
        with pytest.raises(MeshError, match=re.escape(message)):
            read(path)


def _line_write_mesh(mesh, path):
    """The per-line mesh writer that the whole-section formatting replaced,
    kept as the byte reference."""
    with open(path, "w") as f:
        f.write(f"{mesh.n_vertices} {mesh.n_triangles}\n")
        for (x, y), b in zip(mesh.vertices.tolist(), mesh.is_boundary.tolist()):
            f.write(f"{x!r} {y!r} {int(b)}\n")
        for i, j, k in mesh.triangles.tolist():
            f.write(f"{i} {j} {k}\n")


def _line_export_solution(mesh, field, path):
    _line_write_mesh(mesh, path)
    with open(path, "a") as f:
        f.write("values\n")
        for v in field.tolist():
            f.write(f"{v:.17g}\n")


SPECIAL = [-0.0, 5e-324, 1.7976931348623157e308, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("theta, depth", [(None, 3)] + [
    (theta, depth) for theta in (0.0, 0.3, 1.0) for depth in range(4)
], ids=lambda v: "square" if v is None else str(v))
def test_writers_match_line_by_line_reference(tmp_path, hexagon_text, theta, depth):
    if theta is None:
        mesh = build_unit_square(depth)
    else:
        mesh = mesh_from_tokens(hexagon_text(theta).split())
        for _ in range(depth):
            mesh = refine_uniform(mesh)
    rng = np.random.default_rng(depth)
    field = rng.standard_normal(mesh.n_vertices) * 10.0 ** rng.integers(
        -300, 300, mesh.n_vertices)
    field[:len(SPECIAL)] = SPECIAL
    # the writers do not validate, so special coordinates reach them too
    odd = mesh.vertices.copy()
    odd.flat[:len(SPECIAL)] = SPECIAL
    for m in (mesh, dataclasses.replace(mesh, vertices=odd)):
        for write, reference, args in ((write_mesh, _line_write_mesh, (m,)),
                                       (export_solution, _line_export_solution, (m, field))):
            write(*args, tmp_path / "got.txt")
            reference(*args, tmp_path / "want.txt")
            assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


@pytest.mark.parametrize("chunk, rows", [(1, 1), (3, 7), (64, 5)])
def test_export_import_across_chunks_and_row_blocks(tmp_path, monkeypatch, hexagon_text,
                                                     chunk, rows):
    monkeypatch.setattr(mesh_module, "READ_CHUNK", chunk)
    monkeypatch.setattr(mesh_module, "WRITE_ROWS", rows)
    mesh = refine_uniform(mesh_from_tokens(hexagon_text(0.3).split()))  # 19 vertices
    field = np.random.default_rng(2).standard_normal(mesh.n_vertices)
    field[:len(SPECIAL)] = SPECIAL
    export_solution(mesh, field, tmp_path / "got.txt")
    _line_export_solution(mesh, field, tmp_path / "want.txt")
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
    mesh2, field2 = import_solution(tmp_path / "got.txt")
    for a, b in ((mesh.vertices, mesh2.vertices), (mesh.triangles, mesh2.triangles),
                 (mesh.is_boundary, mesh2.is_boundary), (field, field2)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def refined_solution(tmp_path_factory, hexagon_text):
    """The rotated hexagon refined 7 times (98 304 triangles), a field on it,
    its solution file and the bytes of the arrays that importing it returns."""
    mesh = mesh_from_tokens(hexagon_text(0.3).split())
    for _ in range(7):
        mesh = refine_uniform(mesh)
    field = np.random.default_rng(4).standard_normal(mesh.n_vertices)
    path = tmp_path_factory.mktemp("refined") / "solution.txt"
    export_solution(mesh, field, path)
    nbytes = field.nbytes + sum(getattr(mesh, name).nbytes for name in (
        "vertices", "triangles", "is_boundary", "parents"))
    return mesh, field, path, nbytes


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_import_solution_peak_memory(refined_solution):
    # A token list of the whole file took about 10 times the arrays' bytes.
    _, _, path, nbytes = refined_solution
    assert _traced_peak(import_solution, path) <= 5 * nbytes


def test_import_solution_peak_memory_with_blocked_validation(refined_solution):
    # The whole-mesh area and edge-length pass and the whole-array edge keys
    # took 4.1 times the arrays' bytes.
    _, _, path, nbytes = refined_solution
    assert _traced_peak(import_solution, path) <= 3.3 * nbytes


def test_validate_mesh_peak_memory(refined_solution):
    # The whole-mesh pass and edge keys took 3.03 times the mesh's bytes,
    # edge keys formed by whole-array expressions alone 2.36 times, and the
    # full edge table with its argsort 1.85 times; the counts from keys
    # sorted in place take 1.48 times.
    mesh, field, _, nbytes = refined_solution
    fresh = dataclasses.replace(mesh)  # h is not cached on it
    assert _traced_peak(validate_mesh, fresh) <= 1.6 * (nbytes - field.nbytes)


def test_export_solution_peak_memory(refined_solution, tmp_path):
    # The text of the whole file took about 4.3 times the arrays' bytes.
    mesh, field, _, nbytes = refined_solution
    assert _traced_peak(export_solution, mesh, field, tmp_path / "again.txt") <= nbytes


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
    out_dir = ["--out-dir", str(tmp_path)] if command == "solve" else []
    code = main([command, "--p", "4", "--level", level,
                 "--domain", f"mesh:{mesh_path}", *out_dir])
    assert code == EXIT_USAGE
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hexagon.mesh"]


def test_study_rejects_non_square_domain(tmp_path, capsys):
    mesh_path = tmp_path / "square.mesh"
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


def test_poisson_check_runs(capsys):
    assert main(["poisson-check", "--levels", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("j,err_l2,rate_l2,err_h1,rate_h1")
    assert "center value" in out


@pytest.mark.parametrize("levels", ["1", "10"])
def test_poisson_check_names_its_levels_flag(capsys, levels):
    assert main(["poisson-check", "--levels", levels]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: --levels must be in [2, 9], got {levels}\n"


@pytest.mark.parametrize("args, message", [
    # |u|^(p-2) u overflows in the first load
    (["solve", "--level", "3", "--p", "5000"], "degenerate iterate: |v|_p^p = inf"),
    # the flat guess's L^p norm underflows to 0
    (["study", "--levels", "2", "--p", "1e6"], "initial guess: L^p norm 0.000e+00 at p = 1e+06"),
], ids=["overflow", "underflow"])
@pytest.mark.filterwarnings("error")
def test_large_exponent_fails_with_one_line(tmp_path, capsys, args, message):
    assert main([*args, "--out-dir", str(tmp_path)]) == EXIT_NUMERICAL
    lines = [line for line in capsys.readouterr().err.splitlines()
             if not line.startswith("solving level")]
    assert len(lines) == 1 and lines[0].startswith("numerical failure: " + message)


@pytest.mark.parametrize("max_iters", ["12", "1"])
def test_diagnose_unconverged_exit_code(capsys, monkeypatch, max_iters):
    # 12 steps stop with a residual under the gap precondition, 1 step above it;
    # either way the solve did not stagnate and no gap may be reported
    def no_gap(*args, **kwargs):
        raise AssertionError("gap computed for an unconverged solve")

    monkeypatch.setattr("laneemden.cli.nondegeneracy_gap", no_gap)
    code = main(["diagnose", "--p", "4", "--level", "3", "--max-iters", max_iters])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "gap" not in captured.out
    assert len(captured.err.splitlines()) == 1 and "did not stagnate" in captured.err


def test_diagnose_positive_gap(capsys):
    assert main(["diagnose", "--p", "4", "--level", "2"]) == EXIT_OK
    assert "positive True" in capsys.readouterr().out


@pytest.mark.parametrize("scaling", ["lambda1", "unit-norm"])
def test_solve_overflowing_multiplier_scale_exit_code(tmp_path, capsys, scaling):
    code = main(["solve", "--p", "2.001", "--level", "2", "--scaling", scaling,
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "multiplier-1 scale" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["solve", "--level", "2"], ["study", "--levels", "2"]])
def test_failed_run_makes_no_out_dir(tmp_path, command):
    # at p = 2.001 the multiplier-1 scale overflows before anything is written
    out = tmp_path / "out"
    assert main([*command, "--p", "2.001", "--out-dir", str(out)]) == EXIT_NUMERICAL
    assert not out.exists()


def test_diagnose_overflowing_multiplier_scale_exit_code(capsys):
    assert main(["diagnose", "--level", "2", "--p", "2.0000001"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "multiplier-1 scale" in err


@pytest.mark.parametrize("domain,level", [("unit-square", "1"), ("hexagon", "0")])
def test_diagnose_one_interior_vertex_is_usage_error(tmp_path, capsys, hexagon_text,
                                                    domain, level):
    if domain == "hexagon":
        path = tmp_path / "hexagon.mesh"
        path.write_text(hexagon_text())
        domain = f"mesh:{path}"
    assert main(["diagnose", "--p", "4", "--level", level, "--domain", domain]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "has 1" in err


def test_paper_protocol_flags_accepted(tmp_path):
    code = main(["study", "--p", "4", "--levels", "2", "--iters-fixed", "10",
                 "--scaling", "unit-norm", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK


def test_diagnose_fixed_steps_above_residual_precondition(capsys, monkeypatch):
    # an --iters-fixed run counts as converged, but 5 steps leave residual 0.73
    def no_gap(*args, **kwargs):
        raise AssertionError("gap computed above the residual precondition")

    monkeypatch.setattr("laneemden.cli.nondegeneracy_gap", no_gap)
    code = main(["diagnose", "--p", "4", "--level", "3", "--iters-fixed", "5"])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "gap" not in captured.out
    assert len(captured.err.splitlines()) == 1 and "residual" in captured.err


def test_out_of_memory_exits_numerical_with_one_line(tmp_path, capsys, monkeypatch, hexagon_text):
    # as refining the hexagon to level 11 ends under a 1.5 GB address-space limit
    def exhausted(mesh):
        raise MemoryError("Unable to allocate 1.50 GiB for an array with shape (201326592,) "
                          "and data type int64")

    path = tmp_path / "hexagon.mesh"
    path.write_text(hexagon_text())
    monkeypatch.setattr("laneemden.cli.refine_uniform", exhausted)
    out_dir = tmp_path / "out"
    code = main(["solve", "--p", "4", "--level", "11", "--domain", f"mesh:{path}",
                 "--out-dir", str(out_dir)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "out of memory: Unable to allocate 1.50 GiB for an array with shape (201326592,) "
        "and data type int64"]
    assert not out_dir.exists()
