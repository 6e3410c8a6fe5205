import math
import weakref

import numpy as np
import pytest

from laneemden.errors import ConfigError
from laneemden.mesh import build_unit_square, mesh_from_tokens, read_mesh, refine_uniform
from laneemden.minimizer import MinimizerConfig, solve_extremal
from laneemden.sparse import cg_solve
from laneemden import assembly, minimizer, sparse, study
from laneemden import mesh as mesh_module
from laneemden.study import (
    CSV_HEADER,
    inter_level_error,
    observed_rate,
    poisson_center_value,
    poisson_rate_study,
    rows_to_csv,
    run_study,
)


@pytest.fixture(params=["unit-square", "hexagon"])
def coarse(request, hexagon_text):
    """The coarse mesh of a study: None for the default unit square, or the
    0.3-rad hexagon, whose levels all factor their stiffness."""
    if request.param == "unit-square":
        return None
    return mesh_from_tokens(hexagon_text(0.3).split())


def test_observed_rate_table_values():
    assert observed_rate(4.5500e-01, 7.9379e-02) == pytest.approx(2.52, abs=0.005)
    assert observed_rate(1.0, 1.0) == 0.0
    assert observed_rate(1.0, 0.5) == 1.0
    assert observed_rate(0.0, 1.0) is None
    assert observed_rate(1.0, 0.0) is None


def test_inter_level_error_identical_fields():
    coarse = build_unit_square(2)
    fine = refine_uniform(coarse)
    from laneemden.mesh import prolongate

    u = np.random.default_rng(0).standard_normal(coarse.n_vertices)
    # coarse field vs its own prolongation: zero in both norms
    l2, h1 = inter_level_error(u, prolongate(u, fine), fine)
    assert l2 == 0.0 and h1 == 0.0


def test_inter_level_error_symmetric_in_sign_of_difference():
    coarse = build_unit_square(2)
    fine = refine_uniform(coarse)
    from laneemden.mesh import prolongate

    rng = np.random.default_rng(1)
    u = rng.standard_normal(coarse.n_vertices)
    v = rng.standard_normal(fine.n_vertices)
    fwd = inter_level_error(u, v, fine)
    rev = inter_level_error(u, 2.0 * prolongate(u, fine) - v, fine)
    assert fwd == pytest.approx(rev, rel=1e-12)


def test_inter_level_error_h1_is_full_energy_of_dirichlet_fields():
    coarse = build_unit_square(2)
    fine = refine_uniform(coarse)
    from laneemden.mesh import prolongate

    rng = np.random.default_rng(2)
    u = np.where(coarse.is_boundary, 0.0, rng.standard_normal(coarse.n_vertices))
    v = np.where(fine.is_boundary, 0.0, rng.standard_normal(fine.n_vertices))
    d = prolongate(u, fine) - v
    h1 = inter_level_error(u, v, fine)[1]
    assert h1 == pytest.approx(math.sqrt(d @ (assembly.assemble_stiffness(fine) @ d)),
                               rel=1e-12)


@pytest.mark.parametrize("dirichlet", [True, False])
def test_inter_level_error_l2_is_mass_matrix_norm(dirichlet):
    # The quadrature norm is exact for P1 fields, with or without boundary
    # values: the consistent mass matrix stays its reference.
    coarse = build_unit_square(3)
    fine = refine_uniform(coarse)
    from laneemden.mesh import prolongate

    rng = np.random.default_rng(3)
    u = rng.standard_normal(coarse.n_vertices)
    v = rng.standard_normal(fine.n_vertices)
    if dirichlet:
        u[coarse.is_boundary] = 0.0
        v[fine.is_boundary] = 0.0
    d = prolongate(u, fine) - v
    l2 = inter_level_error(u, v, fine)[0]
    assert l2 == pytest.approx(math.sqrt(d @ (assembly.assemble_mass(fine) @ d)), rel=1e-12)


def test_run_study_same_with_forced_factorization(monkeypatch):
    sine = run_study(4.0, 4)
    factored = []

    def factor_solver(A):
        factored.append(A.shape[0])
        return sparse.factor(A).solve

    monkeypatch.setattr(minimizer, "solver", factor_solver)
    forced = run_study(4.0, 4)
    assert factored == [(2 ** j - 1) ** 2 for j in range(1, 6)]
    assert [r.iters for r in sine] == [r.iters for r in forced]
    for a, b in zip(sine, forced):
        assert a.c_h == pytest.approx(b.c_h, rel=1e-12)
    for a, b in zip(sine[1:], forced[1:]):  # row 1 has no rates
        assert abs(a.rate_l2 - b.rate_l2) <= 5e-5 and abs(a.rate_h1 - b.rate_h1) <= 5e-5


def test_run_study_minimal():
    rows = run_study(4.0, 2)
    assert len(rows) == 2
    assert rows[0].rate_l2 is None and rows[0].rate_h1 is None
    assert rows[1].rate_l2 is not None and rows[1].rate_h1 is not None
    assert rows[0].j == 1 and rows[1].j == 2
    assert rows[0].h_label == 0.5
    assert all(r.err_l2 >= 0.0 and r.err_h1 >= 0.0 for r in rows)
    # nestedness along the two rows
    assert rows[1].c_h <= rows[0].c_h + 1e-10


def test_run_study_measures_no_edge_lengths(monkeypatch):
    def measured(*args):
        raise AssertionError("a study measured the mesh size h, which no row reads")

    monkeypatch.setattr(mesh_module, "_longest_edge", measured)
    assert len(run_study(4.0, 2)) == 2


def test_run_study_validation():
    with pytest.raises(ConfigError):
        run_study(4.0, 1)
    with pytest.raises(ConfigError):
        run_study(4.0, 10)
    with pytest.raises(ConfigError):
        run_study(4.0, 3, scaling="bogus")


def test_csv_schema():
    rows = run_study(4.0, 2)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert len(first) == len(CSV_HEADER.split(","))
    # undefined rates are blank cells
    assert first[3] == "" and first[5] == ""
    assert "." in first[2]


def test_csv_deterministic():
    a = rows_to_csv(run_study(4.0, 2))
    b = rows_to_csv(run_study(4.0, 2))
    assert a == b


def test_poisson_rates_low_levels():
    rows = poisson_rate_study(2, 4)
    assert rows[0].rate_l2 is None
    for r in rows[1:]:
        assert 1.8 <= r.rate_l2 <= 2.2
        assert 0.9 <= r.rate_h1 <= 1.1


def test_poisson_center_against_dense_oracle():
    # level-2 center value vs a dense direct solve of the same system
    level = 2
    mesh = build_unit_square(level)
    K_int = assembly.restrict_interior(assembly.assemble_stiffness(mesh), mesh)
    b = assembly.load_vector(mesh, lambda x, y: np.ones_like(x), degree=8)
    dense = np.linalg.solve(K_int.toarray(), b[mesh.interior])
    x, _ = cg_solve(K_int, b[mesh.interior], tol=1e-13)
    assert x == pytest.approx(dense, abs=1e-12)
    center = poisson_center_value(level=level)
    idx = np.flatnonzero(
        (mesh.vertices[mesh.interior, 0] == 0.5)
        & (mesh.vertices[mesh.interior, 1] == 0.5)
    )[0]
    assert center == pytest.approx(dense[idx], abs=1e-12)


def test_poisson_center_requires_center_vertex():
    with pytest.raises(ConfigError):
        poisson_center_value(level=0)


def test_errors_decrease_for_moderate_levels():
    rows = run_study(4.0, 4)
    errs_l2 = [r.err_l2 for r in rows]
    errs_h1 = [r.err_h1 for r in rows]
    for j in range(3, len(rows)):
        assert errs_l2[j] < errs_l2[j - 1]
        assert errs_h1[j] < errs_h1[j - 1]


def test_gap_column_policy():
    rows = run_study(4.0, 3)
    # level-1 row has a single interior vertex: no gap; later rows have one
    assert rows[0].gap is None
    assert rows[1].gap is not None and rows[1].gap > 0.0


def test_run_study_passes_quad_degree_to_gap(weighted_mass_degrees):
    rows = run_study(4.0, 2, MinimizerConfig(p=4.0, quad_degree=7))
    assert [r.gap is not None for r in rows] == [False, True]
    assert weighted_mass_degrees == [7]


def test_run_study_assembles_stiffness_once_per_level(monkeypatch, coarse):
    levels, interior = [], []
    real = assembly.assemble_stiffness

    def counting(mesh, **kwargs):
        levels.append(mesh.level)
        interior.append(kwargs.get("interior", False))
        return real(mesh, **kwargs)

    monkeypatch.setattr(assembly, "assemble_stiffness", counting)
    rows = run_study(4.0, 3, coarse=coarse)
    assert any(r.gap is not None for r in rows)  # the gap reads it too
    assert levels == [1, 2, 3, 4]
    assert all(interior)  # Mesh.interior_stiffness forms no full K


def test_run_study_holds_one_level(monkeypatch, coarse):
    meshes = []
    real = study.solve_extremal

    def spy(mesh, config, u0=None):
        alive = [m().level for m in meshes if m() is not None]
        assert not alive, f"levels {alive} alive while level {mesh.level} is solved"
        meshes.append(weakref.ref(mesh))
        return real(mesh, config, u0=u0)

    monkeypatch.setattr(study, "solve_extremal", spy)
    rows = run_study(4.0, 4, coarse=coarse)
    assert any(r.gap is not None for r in rows)
    assert len(meshes) == 5


@pytest.mark.parametrize("domain, j_max", [("hexagon", 5), ("triangle", 6)])
def test_run_study_rates_on_convex_polygons(hexagon_text, triangle_path, domain, j_max):
    # The paper's O(h^2) in L2 and O(h) in H1 hold on any convex polygon.
    # Measured at the last two rows: on the 0.3-rad hexagon L2 1.974 and
    # 1.994, H1 1.0014 and 0.9991; on the equilateral triangle of
    # tests/data L2 1.985 and 1.996, H1 1.0037 and 1.0009.
    coarse = (mesh_from_tokens(hexagon_text(0.3).split()) if domain == "hexagon"
              else read_mesh(triangle_path))
    rows = run_study(4.0, j_max, coarse=coarse)
    assert all(r.gap is not None and r.gap > 0.0 for r in rows)
    for r in rows[-2:]:
        assert 1.9 <= r.rate_l2 <= 2.1
        assert 0.95 <= r.rate_h1 <= 1.05
        assert not r.unconverged


def test_p11_rates_in_criterion_2_bounds_once_resolved():
    # Criterion 2 asks for these bounds at j = 5-6, where the p = 11 peak
    # (length about 0.011) is not yet resolved; at j = 7-8, h / length is
    # 0.7 and 0.35.  Measured: L2 1.680 and 1.893, H1 0.979 and 1.004.
    rows = {r.j: r for r in run_study(11.0, 8)}
    for j in (7, 8):
        assert 1.6 <= rows[j].rate_l2 <= 2.1
        assert 0.9 <= rows[j].rate_h1 <= 1.1
        assert not rows[j].unconverged
