"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

The two full rate studies are computed once per session and shared.
"""

import math
import time

import numpy as np
import pytest

from laneemden import assembly
from laneemden.mesh import build_unit_square, prolongate, refine_uniform
from laneemden.minimizer import MinimizerConfig, solve_extremal
from laneemden.study import (
    observed_rate,
    poisson_center_value,
    poisson_rate_study,
    run_study,
)

FOURIER_CENTER = 0.0736714  # 16/pi^4 sum over odd m,n of the sine series


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def study_p4():
    t0 = time.perf_counter()
    rows = run_study(4.0, 7)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def study_p11():
    rows = run_study(11.0, 7)
    return rows, None


def test_criterion_01_table1_rates_p4(study_p4):
    rows, elapsed = study_p4
    by_j = {r.j: r for r in rows}
    rates_l2 = [by_j[j].rate_l2 for j in (4, 5, 6)]
    rates_h1 = [by_j[j].rate_h1 for j in (4, 5, 6)]
    ok = (
        all(1.7 <= r <= 2.2 for r in rates_l2)
        and all(0.95 <= r <= 1.10 for r in rates_h1)
        and elapsed <= 120.0
    )
    _report(1, ok,
            f"p=4 rate_l2 j4..6 = {[f'{r:.2f}' for r in rates_l2]} in [1.7,2.2], "
            f"rate_h1 = {[f'{r:.2f}' for r in rates_h1]} in [0.95,1.10], "
            f"runtime {elapsed:.0f}s <= 120s")


def test_criterion_02_table2_rates_p11(study_p11):
    rows, _ = study_p11
    by_j = {r.j: r for r in rows}
    rates_l2 = [by_j[j].rate_l2 for j in (5, 6)]
    rates_h1 = [by_j[j].rate_h1 for j in (4, 5, 6)]
    ok = (
        all(1.6 <= r <= 2.1 for r in rates_l2)
        and all(0.9 <= r <= 1.1 for r in rates_h1)
    )
    _report(2, ok,
            f"p=11 rate_l2 j5..6 = {[f'{r:.2f}' for r in rates_l2]} need [1.6,2.1], "
            f"rate_h1 j4..6 = {[f'{r:.2f}' for r in rates_h1]} need [0.9,1.1] "
            f"(err_l2 by j: {[f'{by_j[j].err_l2:.3e}' for j in range(3, 8)]})")


def test_criterion_03_table1_magnitudes():
    config = MinimizerConfig(p=4.0, iters_fixed=60)
    rows = run_study(4.0, 3, config, scaling="unit-norm")
    row = {r.j: r for r in rows}[3]
    ok_l2 = 1.9137e-02 / 2.0 <= row.err_l2 <= 1.9137e-02 * 2.0
    ok_h1 = 4.8709e-01 / 2.0 <= row.err_h1 <= 4.8709e-01 * 2.0
    _report(3, ok_l2 and ok_h1,
            f"iters-fixed 60, unit-norm, j=3: err_l2 {row.err_l2:.4e} "
            f"(target 1.9137e-02 x2), err_h1 {row.err_h1:.4e} (target 4.8709e-01 x2)")


def test_criterion_04_poisson_check():
    rows = poisson_rate_study(4, 6)
    by_j = {r.j: r for r in rows}
    rates_l2 = [by_j[j].rate_l2 for j in (5, 6)]
    rates_h1 = [by_j[j].rate_h1 for j in (5, 6)]
    center = poisson_center_value(level=6)
    ok = (
        all(1.9 <= r <= 2.1 for r in rates_l2)
        and all(0.95 <= r <= 1.05 for r in rates_h1)
        and abs(center - FOURIER_CENTER) <= 5e-5
    )
    _report(4, ok,
            f"poisson rates l2 {[f'{r:.3f}' for r in rates_l2]}, "
            f"h1 {[f'{r:.3f}' for r in rates_h1]}, "
            f"center {center:.7f} vs {FOURIER_CENTER} (|diff| "
            f"{abs(center - FOURIER_CENTER):.1e} <= 5e-5)")


def test_criterion_05_euler_lagrange_residual(study_p4, study_p11):
    residuals = [r.residual for r in study_p4[0]] + [r.residual for r in study_p11[0]]
    worst = max(residuals)
    identities = []
    for p in (4.0, 11.0):
        m = build_unit_square(3)
        sol = solve_extremal(m, MinimizerConfig(p=p))
        K = assembly.assemble_stiffness(m)
        energy = float(sol.field @ (K @ sol.field))
        pnorm = assembly.lp_norm(m, sol.field, p) ** p
        identities.append(abs(energy - pnorm) / energy)
    ok = worst <= 1e-6 and max(identities) <= 1e-10
    _report(5, ok,
            f"max fixed-point residual {worst:.2e} <= 1e-6; lambda=1 identity "
            f"rel. defect {max(identities):.2e} <= 1e-10")


def test_criterion_06_nestedness(study_p4, study_p11):
    ok = True
    details = []
    for label, (rows, _) in (("p=4", study_p4), ("p=11", study_p11)):
        c = [r.c_h for r in rows if 2 <= r.j <= 7]
        mono = all(c[i + 1] <= c[i] + 1e-10 for i in range(len(c) - 1))
        ok = ok and mono
        details.append(f"{label} c_h levels 2-7 "
                       f"{'non-increasing' if mono else 'NOT monotone'}")
    _report(6, ok, "; ".join(details))


def test_criterion_07_linf_uniform(study_p4, study_p11):
    ok = True
    details = []
    for label, (rows, _) in (("p=4", study_p4), ("p=11", study_p11)):
        linfs = [r.linf for r in rows if 4 <= r.j <= 7]
        spread = max(linfs) / min(linfs) - 1.0
        ok = ok and spread <= 0.10
        details.append(f"{label} L-inf spread levels 4-7 = {spread:.2%}")
    _report(7, ok, "; ".join(details) + " (<= 10%)")


def test_criterion_08_gap_positive_p4(study_p4):
    rows, _ = study_p4
    gaps = {r.j: r.gap for r in rows if 3 <= r.j <= 6}
    ok = all(g is not None and g > 0.0 for g in gaps.values())
    _report(8, ok,
            "p=4 gaps levels 3-6: "
            + ", ".join(f"j{j}={g:.3f}" for j, g in sorted(gaps.items())))


def test_criterion_09_newton_oracle():
    from test_minimizer import _newton_oracle

    m = build_unit_square(2)
    sol = solve_extremal(m, MinimizerConfig(p=4.0))
    oracle = _newton_oracle(m, 4.0)
    diff = np.linalg.norm(sol.field - oracle) / np.linalg.norm(oracle)
    _report(9, diff <= 1e-8,
            f"level-2 p=4 vs damped-Newton oracle: rel. nodal L2 diff {diff:.2e} <= 1e-8")


def test_criterion_10_unit_invariants():
    checks = []

    # local matrices on the reference triangle
    from laneemden.mesh import Mesh

    reference = Mesh(
        level=0,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]], dtype=np.int64),
        is_boundary=np.array([True, True, True]),
        parents=np.full((3, 2), -1, dtype=np.int64),
    )
    K = assembly.assemble_stiffness(reference).toarray()
    M = assembly.assemble_mass(reference).toarray()
    checks.append(np.abs(K - 0.5 * np.array(
        [[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], dtype=float)).max() <= 1e-14)
    checks.append(np.abs(M - (np.ones((3, 3)) + np.eye(3)) / 24.0).max() <= 1e-14)

    # prolongation preserves P1 functions and energy norms
    coarse = build_unit_square(3)
    fine = refine_uniform(coarse)
    lin = coarse.vertices[:, 0] - 2.0 * coarse.vertices[:, 1]
    checks.append(np.abs(prolongate(lin, fine)
                         - (fine.vertices[:, 0] - 2.0 * fine.vertices[:, 1])
                         ).max() <= 1e-14)
    u = np.random.default_rng(0).standard_normal(coarse.n_vertices)
    ec = float(u @ (assembly.assemble_stiffness(coarse) @ u))
    uf = prolongate(u, fine)
    ef = float(uf @ (assembly.assemble_stiffness(fine) @ uf))
    checks.append(abs(ec - ef) <= 1e-13 * ec)

    # quadrature exactness at the stated degree
    for degree in (1, 2, 5, 8):
        rule = assembly.triangle_rule(degree)
        exact = 2.0 * math.factorial(degree) / math.factorial(degree + 2)
        approx = float(rule.weights @ rule.points[:, 0] ** degree)
        checks.append(abs(approx - exact) <= 1e-14)

    # CG monotone residuals
    mesh = build_unit_square(4)
    K_int = assembly.restrict_interior(assembly.assemble_stiffness(mesh), mesh)
    from laneemden.sparse import cg_solve

    history = []
    cg_solve(K_int, np.random.default_rng(1).standard_normal(K_int.shape[0]),
             tol=1e-12, callback=history.append)
    checks.append(max(np.diff(history)) <= 1e-14 * max(history))

    # observed_rate reproduces the published 2.52
    checks.append(abs(observed_rate(4.5500e-01, 7.9379e-02) - 2.52) <= 0.005)

    ok = all(checks)
    _report(10, ok, f"{sum(checks)}/{len(checks)} unit invariants hold "
            "(local matrices, prolongation, quadrature, CG monotonicity, rate)")
