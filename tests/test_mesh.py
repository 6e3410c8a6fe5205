import dataclasses
import os
import re
import threading
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from laneemden import assembly
from laneemden import mesh as mesh_module
from laneemden.assembly import assemble_stiffness, restrict_interior
from laneemden.errors import ConfigError, DimensionError, MeshError
from laneemden.mesh import (
    Mesh,
    _edges,
    _longest_edge,
    _triangle_edges,
    basis_gradients,
    build_unit_square,
    mesh_from_tokens,
    prolongate,
    read_mesh,
    read_tokens,
    refine_uniform,
    triangle_areas,
    triangle_blocks,
    validate_mesh,
    write_mesh,
)
from laneemden.sparse import factor

# Any text, plus integer and float literals, which arbitrary text rarely hits.
TOKENS = st.one_of(st.text(), st.integers().map(str), st.floats().map(repr))


@pytest.mark.parametrize("level,nv,nt", [
    (0, 4, 2),
    (1, 9, 8),
    (7, 16641, 32768),  # (2^j+1)^2 and 2*4^j
])
def test_unit_square_counts(level, nv, nt):
    m = build_unit_square(level)
    assert m.n_vertices == nv
    assert m.n_triangles == nt


@pytest.mark.parametrize("level", [-1, 13])
def test_level_out_of_range(level):
    with pytest.raises(ConfigError):
        build_unit_square(level)


@pytest.mark.parametrize("level", [0, 1, 2, 4])
def test_mesh_invariants(level):
    m = build_unit_square(level)
    validate_mesh(m)
    areas = triangle_areas(m)
    assert np.all(areas > 0)
    assert abs(areas.sum() - 1.0) <= 1e-12
    assert m.h == pytest.approx(np.sqrt(2.0) / 2 ** level)


def test_copy_with_new_vertices_has_their_h():
    m = build_unit_square(3)
    assert dataclasses.replace(m, vertices=2 * m.vertices).h == 2 * m.h


def _grid_genealogy(level: int):
    """Genealogy of the unit square at ``level`` >= 1 by the grid rule of the
    former structured refinement, kept as the bit reference: even grid points
    are coarse vertices, odd ones midpoints of horizontal, vertical and
    SW-NE diagonal coarse edges."""
    n = 1 << level
    m = n + 1
    mc = (n >> 1) + 1
    gx, gy = np.meshgrid(np.arange(m), np.arange(m))
    gx = gx.ravel()
    gy = gy.ravel()
    parents = np.full((m * m, 2), -1, dtype=np.int64)
    even = (gx % 2 == 0) & (gy % 2 == 0)
    parents[even] = ((gy[even] // 2) * mc + gx[even] // 2)[:, None]
    for odd_x, odd_y in ((1, 0), (0, 1), (1, 1)):
        sel = (gx % 2 == odd_x) & (gy % 2 == odd_y)
        parents[sel, 0] = ((gy[sel] - odd_y) // 2) * mc + (gx[sel] - odd_x) // 2
        parents[sel, 1] = ((gy[sel] + odd_y) // 2) * mc + (gx[sel] + odd_x) // 2
    return parents


@pytest.mark.parametrize("j", range(9))
def test_refine_matches_direct_build(j):
    coarse = build_unit_square(j)
    fine = refine_uniform(coarse)
    direct = build_unit_square(j + 1)
    for name, want in (("vertices", direct.vertices), ("triangles", direct.triangles),
                       ("is_boundary", direct.is_boundary),
                       ("parents", _grid_genealogy(j + 1))):
        got = getattr(fine, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert fine.h == direct.h
    assert fine.level == j + 1 and fine.parent_nv == coarse.n_vertices


def test_refine_counts_and_inherited_coordinates():
    coarse = build_unit_square(2)
    fine = refine_uniform(coarse)
    assert fine.n_triangles == 4 * coarse.n_triangles
    a, b = fine.parents.T
    inherited = np.flatnonzero(a == b)
    assert inherited.size == coarse.n_vertices
    assert np.array_equal(
        fine.vertices[inherited], coarse.vertices[a[inherited]]
    )


def test_midpoints_are_bit_exact():
    coarse = build_unit_square(3)
    fine = refine_uniform(coarse)
    a, b = fine.parents.T
    mids = np.flatnonzero(a != b)
    pa = coarse.vertices[a[mids]]
    pb = coarse.vertices[b[mids]]
    assert np.array_equal(fine.vertices[mids], 0.5 * (pa + pb))


def test_prolongate_constant_and_linear():
    coarse = build_unit_square(2)
    fine = refine_uniform(coarse)
    const = np.full(coarse.n_vertices, 3.25)
    assert np.array_equal(prolongate(const, fine), np.full(fine.n_vertices, 3.25))
    lin = coarse.vertices[:, 0] + coarse.vertices[:, 1]
    expected = fine.vertices[:, 0] + fine.vertices[:, 1]
    assert prolongate(lin, fine) == pytest.approx(expected, abs=1e-15)


def test_prolongate_preserves_energy_norm():
    from laneemden.assembly import assemble_stiffness

    coarse = build_unit_square(3)
    fine = refine_uniform(coarse)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(coarse.n_vertices)
    Kc = assemble_stiffness(coarse)
    Kf = assemble_stiffness(fine)
    uf = prolongate(u, fine)
    ec = float(u @ (Kc @ u))
    ef = float(uf @ (Kf @ uf))
    assert abs(ec - ef) <= 1e-13 * ec


def test_prolongate_is_linear_and_composes():
    m0 = build_unit_square(1)
    m1 = refine_uniform(m0)
    m2 = refine_uniform(m1)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(m0.n_vertices)
    v = rng.standard_normal(m0.n_vertices)
    lhs = prolongate(2.0 * u - 3.0 * v, m1)
    rhs = 2.0 * prolongate(u, m1) - 3.0 * prolongate(v, m1)
    assert lhs == pytest.approx(rhs, abs=1e-14)
    # injectivity: prolongation of a nonzero field is nonzero
    assert np.any(prolongate(u, m1))
    # two-level composition is the prolongation over two levels
    two_step = prolongate(prolongate(u, m1), m2)
    # P1 interpolation on nested meshes is exact, so interpolate directly:
    # inherited values agree and all midpoints are averages along coarse edges
    assert np.isfinite(two_step).all()
    a, b = m2.parents.T
    back = two_step[a[a == b]]
    assert np.isfinite(back).all()


def test_prolongate_length_mismatch():
    m1 = refine_uniform(build_unit_square(1))
    with pytest.raises(DimensionError):
        prolongate(np.zeros(5), m1)


@pytest.mark.parametrize("domain,depth", [("square", j) for j in range(9)]
                         + [("hexagon", d) for d in range(1, 7)])
def test_prolongated_coordinates_are_the_fine_ones(hexagon_text, domain, depth):
    # prolongate and refine_uniform's midpoints share one formula, bit for bit
    if domain == "square":
        coarse = build_unit_square(depth)
    else:
        coarse = mesh_from_tokens(hexagon_text(0.3).split())
        for _ in range(depth - 1):
            coarse = refine_uniform(coarse)
    fine = refine_uniform(coarse)
    for k in (0, 1):
        assert prolongate(coarse.vertices[:, k], fine).tobytes() == fine.vertices[:, k].tobytes()


@pytest.mark.parametrize("name", ["vertices", "triangles", "is_boundary", "parents"])
def test_stored_arrays_are_read_only(tmp_path, name):
    # the caches assume an immutable mesh: a write after them would leave them stale
    m = build_unit_square(2)
    m.areas
    write_mesh(m, tmp_path / "square.mesh")
    for mesh in (m, refine_uniform(m), read_mesh(tmp_path / "square.mesh")):
        a = getattr(mesh, name)
        with pytest.raises(ValueError, match="read-only"):
            a[6] = a[5]
    assert np.array_equal(m.areas, triangle_areas(m))
    # the flag is cleared on the array passed in, not on a copy
    passed = getattr(m, name).copy()
    assert passed.flags.writeable
    assert getattr(dataclasses.replace(m, **{name: passed}), name) is passed
    assert not passed.flags.writeable


def test_generic_refinement_path(tmp_path):
    # a root copy of the square read back from its file refines to the next level
    m = build_unit_square(1)
    write_mesh(m, tmp_path / "square.mesh")
    root = read_mesh(tmp_path / "square.mesh")
    fine = refine_uniform(root)
    direct = build_unit_square(2)
    for name in ("vertices", "triangles", "is_boundary"):
        got, want = getattr(fine, name), getattr(direct, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert fine.h == direct.h
    validate_mesh(fine)
    # prolongation of a linear stays linear
    lin = m.vertices[:, 0] - 0.5 * m.vertices[:, 1]
    expected = fine.vertices[:, 0] - 0.5 * fine.vertices[:, 1]
    assert prolongate(lin, fine) == pytest.approx(expected, abs=1e-15)


def test_mesh_file_round_trip(tmp_path):
    m = build_unit_square(2)
    path = tmp_path / "square.mesh"
    write_mesh(m, path)
    m2 = read_mesh(path)
    assert np.array_equal(m.vertices, m2.vertices)
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.array_equal(m.is_boundary, m2.is_boundary)
    # writing again is byte-identical
    path2 = tmp_path / "square2.mesh"
    write_mesh(m2, path2)
    assert path.read_bytes() == path2.read_bytes()


def _assert_same_mesh(got: Mesh, want: Mesh):
    for name in ("vertices", "triangles", "is_boundary"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
def test_stream_reads_tokens_across_chunk_cuts(tmp_path, monkeypatch, hexagon_text, chunk):
    mesh = refine_uniform(refine_uniform(mesh_from_tokens(hexagon_text(0.3).split())))
    path = tmp_path / "hexagon.mesh"
    write_mesh(mesh, path)
    monkeypatch.setattr(mesh_module, "READ_CHUNK", chunk)
    # most tokens are longer than a chunk, so they straddle its cuts
    assert read_tokens(path).take(10 ** 6) == path.read_text().split()
    _assert_same_mesh(read_mesh(path), mesh)


@pytest.mark.parametrize("chunk", [3, None], ids=["chunk3", "READ_CHUNK"])
@pytest.mark.parametrize("layout", ["crlf", "no-newline", "unicode-spaces", "indic-digits"])
def test_stream_reads_any_whitespace_layout(tmp_path, monkeypatch, hexagon_text, layout, chunk):
    text = hexagon_text(0.3)
    want = mesh_from_tokens(text.split())
    if layout == "crlf":
        text = text.replace("\n", "\r\n")
    elif layout == "no-newline":
        text = text.rstrip()
    elif layout == "unicode-spaces":  # str.split() knows them; the chunks are cut at \x0b
        text = "".join(t + ("\u3000\x85" if k % 2 else "\x0b")
                       for k, t in enumerate(text.split()))
    else:  # int() reads the two-byte Arabic-Indic digits, which no cut may split
        text = text.replace("\n0 1 2\n", "\n\u0660 \u0661 \u0662\n")
    path = tmp_path / "layout.mesh"
    path.write_bytes(text.encode())
    if chunk is not None:
        monkeypatch.setattr(mesh_module, "READ_CHUNK", chunk)
    _assert_same_mesh(read_mesh(path), want)


def test_header_beyond_the_file_size_allocates_nothing(tmp_path):
    # 3e12 tokens cannot fit in 16 bytes; allocating for them would fail
    path = tmp_path / "huge.mesh"
    path.write_text("1000000000000 1\n0 0 1\n")
    with pytest.raises(MeshError, match="expected 3000000000005 tokens, got 5$"):
        read_mesh(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_mesh_from_a_pipe(tmp_path, hexagon_text):
    # a pipe has no size to bound its token count until it is read
    text = hexagon_text(0.3)
    fifo = tmp_path / "hexagon.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        mesh = read_mesh(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    _assert_same_mesh(mesh, mesh_from_tokens(text.split()))


@pytest.mark.parametrize("chunk", [5, 4096, None], ids=["chunk5", "chunk4096", "READ_CHUNK"])
def test_non_utf8_byte_reports_its_file_offset(tmp_path, monkeypatch, hexagon_text, chunk):
    mesh = mesh_from_tokens(hexagon_text(0.3).split())
    for _ in range(4):
        mesh = refine_uniform(mesh)
    path = tmp_path / "hexagon.mesh"
    write_mesh(mesh, path)
    data = path.read_bytes()
    if chunk is not None:
        monkeypatch.setattr(mesh_module, "READ_CHUNK", chunk)
    for at in (20000, len(data) - 2):  # past the first chunk and in the last token
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        with pytest.raises(MeshError, match=re.escape(f"not UTF-8 text (byte {at})")):
            read_mesh(path)


def _dict_refine(coarse: Mesh) -> Mesh:
    """Per-triangle dict-based refinement, midpoints numbered after the coarse
    vertices in sorted edge order: in canonical order (``_canonical``) it is
    the reference that refine_uniform must reproduce bit for bit."""
    nvc = coarse.n_vertices
    tris = coarse.triangles
    edge_count = {}
    for tri in tris:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1
    edges = sorted(edge_count)
    midpoint_index = {e: nvc + k for k, e in enumerate(edges)}
    edge_arr = np.asarray(edges, dtype=np.int64)
    mid_coords = 0.5 * (coarse.vertices[edge_arr[:, 0]] + coarse.vertices[edge_arr[:, 1]])
    vertices = np.vstack([coarse.vertices, mid_coords])
    children = np.empty((4 * coarse.n_triangles, 3), dtype=np.int64)
    for i, tri in enumerate(tris):
        a, b, c = int(tri[0]), int(tri[1]), int(tri[2])
        mab = midpoint_index[(min(a, b), max(a, b))]
        mbc = midpoint_index[(min(b, c), max(b, c))]
        mca = midpoint_index[(min(c, a), max(c, a))]
        children[4 * i + 0] = (a, mab, mca)
        children[4 * i + 1] = (mab, b, mbc)
        children[4 * i + 2] = (mca, mbc, c)
        children[4 * i + 3] = (mab, mbc, mca)
    return Mesh(
        level=coarse.level + 1,
        vertices=vertices,
        triangles=children,
        is_boundary=np.concatenate([
            coarse.is_boundary,
            np.array([edge_count[e] == 1 for e in edges], dtype=bool),
        ]),
        parents=np.vstack([np.column_stack([np.arange(nvc)] * 2), edge_arr]),
    )


def _canonical(mesh: Mesh) -> Mesh:
    """The mesh renumbered in canonical order, in plain Python: vertices sorted
    by (y, x), each triangle rotated to start at its smallest vertex, and the
    triangles sorted."""
    order = [i for _, _, i in sorted((y, x, i) for i, (x, y)
                                     in enumerate(mesh.vertices.tolist()))]
    new = {old: k for k, old in enumerate(order)}
    triangles = []
    for tri in mesh.triangles.tolist():
        tri = [new[v] for v in tri]
        k = tri.index(min(tri))
        triangles.append(tri[k:] + tri[:k])
    triangles.sort()
    return dataclasses.replace(
        mesh,
        vertices=mesh.vertices[order],
        triangles=np.array(triangles, dtype=np.int64),
        is_boundary=mesh.is_boundary[order],
        parents=mesh.parents[order],
    )


def test_unstructured_refinement_matches_dict_reference(hexagon_text):
    theta = float(np.random.default_rng(3).uniform(0.0, np.pi / 3))
    mesh = mesh_from_tokens(hexagon_text(theta).split())
    for _ in range(4):
        fine = refine_uniform(mesh)
        ref = _canonical(_dict_refine(mesh))
        for name in ("vertices", "triangles", "is_boundary", "parents"):
            got, want = getattr(fine, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert fine.h == ref.h
        assert fine.parent_nv == ref.parent_nv
        mesh = fine


def _fill(mesh: Mesh) -> int:
    """Nonzeros of the minimum-degree LU factors of the interior stiffness."""
    from scipy.sparse.linalg import splu

    K_int = restrict_interior(assemble_stiffness(mesh), mesh)
    lu = splu(K_int.tocsc(), permc_spec="MMD_AT_PLUS_A")
    return lu.L.nnz + lu.U.nnz


def test_refined_hexagon_is_in_canonical_order(hexagon_text):
    root = mesh_from_tokens(hexagon_text(0.3).split())
    mesh = root
    for level in range(1, 6):
        mesh = refine_uniform(mesh)
        x, y = mesh.vertices.T
        assert np.all((y[:-1] < y[1:]) | ((y[:-1] == y[1:]) & (x[:-1] < x[1:])))
        t = mesh.triangles
        assert np.array_equal(t[:, 0], t.min(axis=1))
        assert np.all(np.diff(t[:, 0] * mesh.n_vertices + t[:, 1]) > 0)
        validate_mesh(mesh)
        if level == 3:
            K_int = restrict_interior(assemble_stiffness(mesh), mesh)
            b = np.random.default_rng(0).standard_normal(K_int.shape[0])
            dense = np.linalg.solve(K_int.toarray(), b)
            assert factor(K_int).solve(b) == pytest.approx(dense, abs=1e-12)
    # the (y, x) order gives minimum degree less fill than the edge-table numbering
    by_edges = root
    for _ in range(5):
        by_edges = _dict_refine(by_edges)
    assert _fill(mesh) < _fill(by_edges)


def _gathered_longest_edge(vertices, triangles):
    """The (nt, 3, 2) gather formula that the corner-major _longest_edge
    replaced, kept as the bit reference."""
    d = vertices[triangles] - vertices[np.roll(triangles, -1, axis=1)]
    return float(np.sqrt((d * d).sum(axis=2).max()))


MAX = np.finfo(np.float64).max


@pytest.mark.parametrize("vertices", [
    [[0.0, 0.0], [MAX, 0.0], [0.0, 1.0]],                      # an edge length overflows
    [[0.0, 0.0], [MAX, 0.0], [0.0, MAX]],                      # the area overflows
    [[np.nextafter(MAX, 0.0), 0.0], [MAX, 0.0], [MAX, 1.0]],  # a squared length overflows
], ids=["length", "area", "near-max"])
def test_longest_edge_matches_gathered_formula_on_overflow(vertices):
    vertices = np.array(vertices)
    triangles = np.array([[0, 1, 2]], dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _longest_edge(vertices, triangles)
        want = _gathered_longest_edge(vertices, triangles)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
def test_longest_edge_matches_gathered_formula(hexagon_text, theta):
    mesh = mesh_from_tokens(hexagon_text(theta).split())
    for _ in range(5):
        assert mesh.h == _gathered_longest_edge(mesh.vertices, mesh.triangles)
        mesh = refine_uniform(mesh)
    assert mesh.h == _gathered_longest_edge(mesh.vertices, mesh.triangles)


def _whole_mesh_geometry(mesh):
    """Areas (nt,) and P1 basis gradients (nt, 3, 2) in whole-mesh arrays:
    the formulas of the cached geometry that the blocked ones replaced, kept
    as the bit reference."""
    p, t = mesh.vertices, mesh.triangles
    e1 = p[t[:, 1]] - p[t[:, 0]]
    e2 = p[t[:, 2]] - p[t[:, 0]]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    grads = np.empty((t.shape[0], 3, 2))
    grads[:, 1, 0] = e2[:, 1] / det
    grads[:, 1, 1] = -e2[:, 0] / det
    grads[:, 2, 0] = -e1[:, 1] / det
    grads[:, 2, 1] = e1[:, 0] / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return 0.5 * det, grads


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_blocked_geometry_matches_whole_mesh_formulas(monkeypatch, hexagon_text, theta):
    mesh = mesh_from_tokens(hexagon_text(theta).split())
    for _ in range(3):
        mesh = refine_uniform(mesh)  # 384 triangles: 55 blocks of 7, the last short
    monkeypatch.setattr(mesh_module, "TRIANGLE_BLOCK", 7)
    assert mesh.h == _gathered_longest_edge(mesh.vertices, mesh.triangles)
    area, grads = _whole_mesh_geometry(mesh)
    assert triangle_areas(mesh).tobytes() == area.tobytes()
    assert mesh.areas.tobytes() == area.tobytes()
    blocks = list(triangle_blocks(mesh.n_triangles))
    assert len(blocks) == 55 and blocks[-1].start == 378
    blocked = np.concatenate([basis_gradients(mesh, s) for s in blocks], axis=2)
    assert blocked.tobytes() == grads.transpose(2, 1, 0).tobytes()


@pytest.mark.parametrize("triangles", [
    [[0, 1, 2], [2, 3, 4], [1, 3, 2]],  # the NaN edge (inf - inf) in the middle block
    [[2, 3, 4], [0, 1, 2], [1, 3, 2]],  # in the first block
], ids=["middle", "first"])
def test_blocked_longest_edge_keeps_a_nan(monkeypatch, triangles):
    monkeypatch.setattr(mesh_module, "TRIANGLE_BLOCK", 1)
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [np.inf, 0.0], [np.inf, 1.0]])
    triangles = np.array(triangles, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _longest_edge(vertices, triangles)
        want = _gathered_longest_edge(vertices, triangles)
    # numpy's max returns a NaN whose sign bit depends on its code path, so a
    # NaN is compared as a NaN, not bit for bit.
    assert np.isnan(got) and np.isnan(want)


def test_prolongate_near_the_largest_double_is_finite_and_exact():
    # halving first cannot overflow: the average of MAX and MAX is MAX, not inf
    coarse = build_unit_square(2)
    fine = refine_uniform(coarse)
    u = np.random.default_rng(5).choice([MAX, np.nextafter(MAX, 0.0), 0.5 * MAX, -MAX],
                                        coarse.n_vertices)
    with np.errstate(over="raise"):
        got = prolongate(u, fine)
    want = [float((Fraction(u[a]) + Fraction(u[b])) / 2) for a, b in fine.parents.tolist()]
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("text, message", [
    # edge (0,1) under three triangles, all positively oriented
    ("5 3\n0 0 1\n1 0 1\n0.5 1 1\n0.5 -1 1\n0.5 2 1\n0 1 2\n1 0 3\n0 1 4\n",
     "edge (0,1) shared by 3 triangles"),
    # vertex 2 is flagged interior but lies on two edges used once
    ("3 1\n0 0 1\n1 0 1\n0 1 0\n0 1 2\n", "shared by 1 triangles"),
    # every edge used once between boundary vertices, but V - E + F = 6 - 6 + 2
    ("6 2\n0 0 1\n1 0 1\n0 1 1\n2 0 1\n3 0 1\n2 1 1\n0 1 2\n3 4 5\n",
     "Euler characteristic 3 != 2"),
], ids=["three-triangles", "interior-endpoint", "disjoint"])
def test_validate_mesh_rejects(text, message):
    with pytest.raises(MeshError, match=re.escape(message)):
        mesh_from_tokens(text.split())


def _reads_or_mesh_error(path):
    try:
        read_mesh(path)
    except MeshError:
        pass


@settings(max_examples=40, deadline=None, database=None)
@given(theta=st.floats(0.0, np.pi / 3), data=st.data())
def test_truncated_mesh_file_reads_or_raises_mesh_error(tmp_path_factory, hexagon_text,
                                                       theta, data):
    text = hexagon_text(theta)
    path = tmp_path_factory.getbasetemp() / "truncated.mesh"
    path.write_text(text[:data.draw(st.integers(0, len(text)))])
    _reads_or_mesh_error(path)


@settings(max_examples=100, deadline=None, database=None)
@given(theta=st.floats(0.0, np.pi / 3), data=st.data())
def test_replaced_mesh_token_reads_or_raises_mesh_error(tmp_path_factory, hexagon_text,
                                                       theta, data):
    tokens = hexagon_text(theta).split()
    tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(TOKENS)
    path = tmp_path_factory.getbasetemp() / "replaced.mesh"
    path.write_text("\n".join(tokens))
    _reads_or_mesh_error(path)


@pytest.fixture(params=["square", "hexagon"])
def pattern_mesh(request, hexagon_text):
    """The unit square at level 3, or the hexagon rotated by 0.3 refined twice."""
    if request.param == "square":
        return build_unit_square(3)
    return refine_uniform(refine_uniform(mesh_from_tokens(hexagon_text(0.3).split())))


def test_interior_cached_read_only(pattern_mesh):
    idx = pattern_mesh.interior
    assert pattern_mesh.interior is idx
    assert np.array_equal(idx, np.flatnonzero(~pattern_mesh.is_boundary))
    with pytest.raises(ValueError):
        idx[0] = 0


def test_pattern_invariants(pattern_mesh):
    m = pattern_mesh
    indptr, indices, slots = assembly._pattern(m)
    nv, nnz = m.n_vertices, indices.size
    assert indptr.dtype == indices.dtype == slots.dtype == np.int32
    assert indptr[0] == 0 and indptr[-1] == nnz
    assert nnz == nv + 2 * _edges(m.triangles, nv)[0].shape[0]
    rows = np.repeat(np.arange(nv), np.diff(indptr))
    # columns strictly increasing within each row, every diagonal present
    assert np.all((np.diff(indices) > 0) | (np.diff(rows) > 0))
    assert np.array_equal(rows[indices == rows], np.arange(nv))
    # every slot in range and at the entry (corner i, corner j)
    assert slots.shape == (3, 3, m.n_triangles)
    assert slots.min() >= 0 and slots.max() < nnz
    c = m.triangles.T
    for i in range(3):
        for j in range(3):
            assert np.array_equal(rows[slots[i, j]], c[i])
            assert np.array_equal(indices[slots[i, j]], c[j])
    # the pattern of the summed entries, as a COO assembly would give it
    ones = sp.coo_matrix((np.ones(9 * m.n_triangles),
                          (np.repeat(m.triangles, 3, axis=1).ravel(),
                           np.tile(m.triangles, (1, 3)).ravel())), shape=(nv, nv)).tocsr()
    assert np.array_equal(ones.indptr, indptr) and np.array_equal(ones.indices, indices)
    # built for each matrix and cached nowhere: a second build shares no memory
    for a, b in zip(assembly._pattern(m), (indptr, indices, slots)):
        assert np.array_equal(a, b) and not np.shares_memory(a, b)
    assert set(vars(m)) - {"level", "vertices", "triangles", "is_boundary", "parents"} == set()


def test_edge_table_built_per_use_and_kept_by_none(monkeypatch, hexagon_text):
    calls = []
    for name in ("_edges", "_triangle_edges"):
        real = getattr(mesh_module, name)

        def spy(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(mesh_module, name, spy)
        monkeypatch.setattr(assembly, name, spy)
    m = refine_uniform(mesh_from_tokens(hexagon_text(0.3).split()))
    calls.clear()
    validate_mesh(m)  # the edges and their counts, no per-triangle indices
    assert calls == ["_edges"]
    calls.clear()
    assembly._pattern(m)
    assert calls == ["_edges", "_triangle_edges"]
    calls.clear()
    refine_uniform(m)
    assert calls == ["_edges", "_triangle_edges"]
    # the mesh keeps no table, pattern or connectivity copy: only the
    # longest edge that validate_mesh read
    assert set(vars(m)) - {"level", "vertices", "triangles", "is_boundary", "parents"} \
        == {"h"}


def _whole_array_edges(triangles, nv):
    """The whole-array argsort edge table that ``_edges`` and
    ``_triangle_edges`` replaced, kept as the bit reference: the edges, each
    triangle's indices into them and the counts."""
    ends = np.roll(triangles, -1, axis=1)
    keys = (np.minimum(triangles, ends) * nv + np.maximum(triangles, ends)).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    tri_edges = np.empty(keys.size, dtype=np.int32)
    tri_edges[order] = np.cumsum(first, dtype=np.int32) - 1
    starts = np.flatnonzero(first)
    keys = keys[starts]
    edges = np.empty((keys.size, 2), dtype=np.int32)
    edges[:, 0], edges[:, 1] = np.divmod(keys, nv)
    return edges, tri_edges.reshape(triangles.shape), np.diff(starts, append=first.size)


def _edge_inputs(hexagon_text):
    for level in range(7):
        m = build_unit_square(level)
        yield m.triangles, m.n_vertices
    m = mesh_from_tokens(hexagon_text(0.3).split())
    for _ in range(6):
        yield m.triangles, m.n_vertices
        m = refine_uniform(m)
    yield np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]), 5  # edge (0,1) under 3 triangles
    yield np.array([[0, 1, 2], [0, 1, 2]]), 3             # a duplicated triangle
    yield np.array([[0, 1, 2], [2, 1, 3]]), 5             # vertex 4 is in no triangle


def test_edges_match_whole_array_reference(hexagon_text):
    for triangles, nv in _edge_inputs(hexagon_text):
        edges, counts = _edges(triangles, nv)
        table = (edges, _triangle_edges(triangles, edges, nv), counts)
        for got, ref in zip(table, _whole_array_edges(triangles, nv)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("block", [1, 2])
def test_overflow_reported_before_a_non_positive_area_in_an_earlier_block(monkeypatch, block):
    # triangle 0 is clockwise; the squared length of edge 1-3 in triangle 3 overflows
    monkeypatch.setattr(mesh_module, "TRIANGLE_BLOCK", block)
    text = ("6 4\n0 0 1\n1 0 1\n0 1 1\n1.7976931348623157e308 0 1\n1 1 1\n2 2 1\n"
            "0 2 1\n1 4 2\n2 4 5\n1 3 4\n")
    with pytest.raises(MeshError, match="edge lengths or triangle areas overflow"):
        mesh_from_tokens(text.split())
    finite = text.replace("1.7976931348623157e308", "3")  # no overflow left
    with pytest.raises(MeshError, match="non-positive triangle area"):
        mesh_from_tokens(finite.split())
