import time

import numpy as np
import pytest

from laneemden import assembly
from laneemden.diagnostics import RESIDUAL_PRECONDITION, nondegeneracy_gap, why_no_gap
from laneemden.errors import ConfigError, NumericsError
from laneemden.mesh import build_unit_square
from laneemden.minimizer import ExtremalSolution, MinimizerConfig, solve_extremal
from laneemden.sparse import smallest_eig_constrained


def _fake_solution(mesh, field, residual=0.0, stop="stagnated"):
    return ExtremalSolution(
        field=field,
        normalized_field=field,
        c_h=0.0,
        iterations=0,
        fixed_point_residual=residual,
        stop=stop,
        config=MinimizerConfig(p=4.0),
    )


def test_zero_field_is_refused():
    # a zero field is no extremal: its constraint vector is K-degenerate
    m = build_unit_square(2)
    with pytest.raises(NumericsError, match="B-degenerate"):
        nondegeneracy_gap(m, _fake_solution(m, np.zeros(m.n_vertices)))


def test_residual_precondition_enforced():
    m = build_unit_square(2)
    sol = _fake_solution(m, np.zeros(m.n_vertices), residual=1e-2)
    with pytest.raises(NumericsError, match=r"^level 2 ended above the gap's residual "
                       r"precondition 0.0001 \(residual 1.000e-02\); no gap computed$"):
        nondegeneracy_gap(m, sol)


@pytest.mark.parametrize("stop, residual, why", [
    ("stagnated", RESIDUAL_PRECONDITION, None),
    ("iters_fixed", RESIDUAL_PRECONDITION, None),
    ("iters_fixed", 2 * RESIDUAL_PRECONDITION, "ended above"),
    ("max_iters", 0.0, "did not stagnate"),
])
def test_precondition_reads_stop_and_residual(stop, residual, why):
    # an --iters-fixed solve counts as converged whatever its residual, so
    # the residual bound alone keeps its unfinished descent from a gap
    m = build_unit_square(2)
    sol = _fake_solution(m, np.ones(m.n_vertices), residual=residual, stop=stop)
    reason = why_no_gap(sol)
    assert reason is None if why is None else reason.startswith(why)
    if why is not None:
        with pytest.raises(NumericsError, match=f"^level 2 {why}"):
            nondegeneracy_gap(m, sol)


def test_one_interior_vertex_is_a_config_error(weighted_mass_degrees):
    # the constraint x'Kc = 0 leaves nothing of a 1-dimensional space;
    # raised before any assembly
    m = build_unit_square(1)
    sol = solve_extremal(m, MinimizerConfig(p=4.0))
    with pytest.raises(ConfigError, match="level 1 has 1"):
        nondegeneracy_gap(m, sol)
    assert weighted_mass_degrees == []


def test_gap_positive_for_quartic_extremal():
    m = build_unit_square(4)
    sol = solve_extremal(m, MinimizerConfig(p=4.0))
    gap = nondegeneracy_gap(m, sol)
    assert isinstance(gap, float) and gap > 0.0


def test_gap_deterministic():
    m = build_unit_square(3)
    sol = solve_extremal(m, MinimizerConfig(p=4.0))
    g1 = nondegeneracy_gap(m, sol)
    g2 = nondegeneracy_gap(m, sol)
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
    # the indefinite cases report the Lanczos tridiagonal's smallest
    # eigenvalue, which keeps falling below zero
    assert gaps[0] > 0.0 > gaps[1] > gaps[2]


def test_gap_reads_p_and_quadrature_from_the_solve(weighted_mass_degrees):
    # the weight |U|^(p-2) and its rule are those the extremal was solved with
    m = build_unit_square(3)
    config = MinimizerConfig(p=6.0, quad_degree=7)
    sol = solve_extremal(m, config)
    gap = nondegeneracy_gap(m, sol)
    assert weighted_mass_degrees == [7]
    K = m.interior_stiffness
    W = assembly.assemble_weighted_mass(m, sol.field, 4.0, 7, interior=True)
    assert gap == smallest_eig_constrained(K - 5.0 * W, K, sol.field[m.interior])


def test_gap_leaves_blas_thread_pool_idle(thread_ticks):
    # At L7 the eigensolver's vectors have 16 129 entries, above the size
    # from which OpenBLAS splits ddot across its pool.
    mesh = build_unit_square(7)
    sol = solve_extremal(mesh, MinimizerConfig(p=4.0))
    # The gap on the square neither factors nor calls BLAS, so nothing loads
    # scipy's own OpenBLAS here, whose worker spins once at start-up.
    time.sleep(0.5)  # workers woken before this test go back to sleep
    own0, other0 = thread_ticks()
    gap = nondegeneracy_gap(mesh, sol)
    own1, other1 = thread_ticks()
    assert gap > 0.0
    assert other1 - other0 <= 0.05 * (own1 - own0)
