import time

import numpy as np
import pytest

from laneemden import assembly
from laneemden.diagnostics import GapReport, nondegeneracy_gap
from laneemden.errors import ConfigError
from laneemden.mesh import build_unit_square
from laneemden.minimizer import ExtremalSolution, MinimizerConfig, solve_extremal
from laneemden.sparse import smallest_eig_constrained


def _fake_solution(mesh, field, residual=0.0):
    return ExtremalSolution(
        field=field,
        normalized_field=field,
        c_h=0.0,
        iterations=0,
        fixed_point_residual=residual,
        stop="stagnated",
    )


def test_zero_field_gap_is_one():
    m = build_unit_square(2)
    sol = _fake_solution(m, np.zeros(m.n_vertices))
    report = nondegeneracy_gap(m, sol, 4.0)
    assert report.gap == 1.0
    assert report.positive
    assert report.level == m.level


def test_residual_precondition_enforced():
    m = build_unit_square(2)
    sol = _fake_solution(m, np.zeros(m.n_vertices), residual=1e-2)
    with pytest.raises(ConfigError):
        nondegeneracy_gap(m, sol, 4.0)


def test_one_interior_vertex_is_a_config_error(weighted_mass_degrees):
    # the constraint x'Kc = 0 leaves nothing of a 1-dimensional space;
    # raised before any assembly
    m = build_unit_square(1)
    sol = solve_extremal(m, MinimizerConfig(p=4.0))
    with pytest.raises(ConfigError, match="level 1 has 1"):
        nondegeneracy_gap(m, sol, 4.0)
    assert weighted_mass_degrees == []


def test_gap_positive_for_quartic_extremal():
    m = build_unit_square(4)
    sol = solve_extremal(m, MinimizerConfig(p=4.0))
    report = nondegeneracy_gap(m, sol, 4.0)
    assert report.positive
    assert report.gap > 0.0


def test_gap_deterministic():
    m = build_unit_square(3)
    sol = solve_extremal(m, MinimizerConfig(p=4.0))
    g1 = nondegeneracy_gap(m, sol, 4.0).gap
    g2 = nondegeneracy_gap(m, sol, 4.0).gap
    assert abs(g1 - g2) <= 1e-6 * max(abs(g1), 1.0)


def test_gap_monotone_in_weight_scale():
    # scaling up (p-1) W can only lower the smallest constrained eigenvalue
    m = build_unit_square(3)
    p = 4.0
    sol = solve_extremal(m, MinimizerConfig(p=p))
    K = assembly.assemble_stiffness(m)
    W = assembly.assemble_weighted_mass(m, sol.field, p - 2.0)
    B = assembly.restrict_interior(K, m)
    c = sol.field[m.interior]
    gaps = []
    for factor in (1.0, 2.0, 4.0):
        A = assembly.restrict_interior(K - factor * (p - 1.0) * W, m)
        gaps.append(smallest_eig_constrained(A, B, c, tol=1e-8))
    # breakdown of the indefinite cases reports a clamped non-positive gap,
    # so the tail of the sequence may tie at zero
    assert gaps[0] > gaps[1] >= gaps[2]
    assert gaps[0] > 0.0 >= gaps[2]


def test_gap_report_flag_consistent():
    for gap in (-0.5, 0.0, 0.5):
        r = GapReport(level=3, p=4.0, gap=gap)
        assert r.positive == (r.gap > 0.0)


def test_gap_leaves_blas_thread_pool_idle(thread_ticks):
    # At L7 the eigensolver's vectors have 16 129 entries, above the size
    # from which OpenBLAS splits ddot across its pool.
    mesh = build_unit_square(7)
    sol = solve_extremal(mesh, MinimizerConfig(p=4.0))
    # The gap on the square neither factors nor calls BLAS, so nothing loads
    # scipy's own OpenBLAS here, whose worker spins once at start-up.
    time.sleep(0.5)  # workers woken before this test go back to sleep
    own0, other0 = thread_ticks()
    report = nondegeneracy_gap(mesh, sol, 4.0)
    own1, other1 = thread_ticks()
    assert report.positive
    assert other1 - other0 <= 0.05 * (own1 - own0)
