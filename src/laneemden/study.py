"""Multi-level refinement studies: inter-level errors, observed rates, CSV."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import assembly, diagnostics
from .errors import ConfigError, DimensionError
from .mesh import Mesh, build_unit_square, prolongate, refine_uniform
from .minimizer import MinimizerConfig, solve_extremal
from .sparse import cg_solve

CSV_HEADER = "j,h,err_l2,rate_l2,err_h1,rate_h1,c_h,linf,gap,residual,iters"
GAP_MAX_LEVEL = 6  # highest coarse level of a row that gets a gap


@dataclass
class RateRow:
    j: int
    h_label: float                    # 2^-j (leg length)
    err_l2: float                     # |u_j - u_{j+1}|_L2 on the fine mesh
    rate_l2: Optional[float]
    err_h1: float                     # energy seminorm of the difference
    rate_h1: Optional[float]
    c_h: float
    linf: float
    gap: Optional[float]
    residual: float
    iters: int
    unconverged: Tuple[int, ...] = ()  # of levels j, j+1: those stopped by max_iters


def observed_rate(err_prev: float, err_curr: float) -> Optional[float]:
    """log2(err_prev / err_curr); None when undefined (a zero error)."""
    if err_prev <= 0.0 or err_curr <= 0.0:
        return None
    return math.log2(err_prev / err_curr)


def inter_level_error(coarse_field: np.ndarray, fine_field: np.ndarray,
                      fine_mesh: Mesh):
    """(L2, H1-seminorm) distance between a coarse field and its refinement's."""
    fine_field = np.asarray(fine_field, dtype=np.float64)
    if fine_field.shape != (fine_mesh.n_vertices,):
        raise DimensionError("fine field does not match fine mesh")
    d = prolongate(coarse_field, fine_mesh) - fine_field
    M = assembly.assemble_mass(fine_mesh)
    K = fine_mesh.stiffness
    l2 = math.sqrt(max(assembly.inner(d, M @ d), 0.0))
    h1 = math.sqrt(max(assembly.inner(d, K @ d), 0.0))
    return l2, h1


def run_study(p: float, j_max: int, config: Optional[MinimizerConfig] = None,
              scaling: str = "lambda1",
              progress: Optional[Callable[[str], None]] = None) -> List[RateRow]:
    """Solve at levels 1..j_max+1 and tabulate inter-level errors and rates.

    Row j compares levels j and j+1; rates need a predecessor row.  Warm
    starting (prolonging each solution up one level) is disabled in
    paper-protocol mode (iters_fixed) so every level runs the published
    iteration count from the flat guess.
    """
    if not (2 <= j_max <= 9):
        raise ConfigError(f"j_max must be in [2, 9], got {j_max}")
    if scaling not in ("lambda1", "unit-norm"):
        raise ConfigError(f"unknown scaling {scaling!r}")
    if config is None:
        config = MinimizerConfig(p=p)
    elif config.p != p:
        config = dataclasses.replace(config, p=p)
    warm_start = config.iters_fixed is None

    meshes = [build_unit_square(1)]
    for _ in range(1, j_max + 1):
        meshes.append(refine_uniform(meshes[-1]))

    solutions = []
    u0 = None
    for i, mesh in enumerate(meshes):
        if progress:
            progress(f"solving level {mesh.level} (p={p})")
        sol = solve_extremal(mesh, config, u0=u0)
        solutions.append(sol)
        if warm_start and i + 1 < len(meshes):
            u0 = prolongate(sol.normalized_field, meshes[i + 1])

    def pick(sol):
        return sol.field if scaling == "lambda1" else sol.normalized_field

    rows: List[RateRow] = []
    prev_l2 = prev_h1 = None
    for j in range(1, j_max + 1):
        fine = meshes[j]
        l2, h1 = inter_level_error(pick(solutions[j - 1]), pick(solutions[j]), fine)
        sol = solutions[j - 1]
        gap = None
        if (meshes[j - 1].interior.size >= 2
                and meshes[j - 1].level <= GAP_MAX_LEVEL
                and sol.fixed_point_residual <= diagnostics.RESIDUAL_PRECONDITION):
            gap = diagnostics.nondegeneracy_gap(
                meshes[j - 1], sol, p, quad_degree=config.quad_degree).gap
        rows.append(RateRow(
            j=j,
            h_label=2.0 ** -j,
            err_l2=l2,
            rate_l2=observed_rate(prev_l2, l2) if prev_l2 is not None else None,
            err_h1=h1,
            rate_h1=observed_rate(prev_h1, h1) if prev_h1 is not None else None,
            c_h=sol.c_h,
            linf=sol.linf,
            gap=gap,
            residual=sol.fixed_point_residual,
            iters=sol.iterations,
            unconverged=tuple(meshes[i].level for i in (j - 1, j)
                              if not solutions[i].converged),
        ))
        prev_l2, prev_h1 = l2, h1
    return rows


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def rows_to_csv(rows: List[RateRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.j), _fmt(r.h_label), _fmt(r.err_l2), _fmt(r.rate_l2),
            _fmt(r.err_h1), _fmt(r.rate_h1), _fmt(r.c_h), _fmt(r.linf),
            _fmt(r.gap), _fmt(r.residual), str(r.iters),
        ]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Manufactured-solution check for the linear plumbing (independent of the
# nonlinear solver): -Laplace u = 2 pi^2 sin(pi x) sin(pi y), u known.

@dataclass
class PoissonRow:
    j: int
    err_l2: float
    rate_l2: Optional[float]
    err_h1: float
    rate_h1: Optional[float]


def _exact(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def _exact_grad(x, y):
    return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))


def _poisson_solve(mesh: Mesh, f, tol: float = 1e-12) -> np.ndarray:
    K_int = assembly.restrict_interior(mesh.stiffness, mesh)
    b = assembly.load_vector(mesh, f, degree=8)
    x, _ = cg_solve(K_int, b[mesh.interior], tol=tol)
    return assembly.extend_zero(x, mesh)


def _error_vs_exact(mesh: Mesh, u: np.ndarray, degree: int = 8):
    """Quadrature L2/H1-seminorm errors against the exact sine solution."""
    rule = assembly.triangle_rule(degree)
    area, grads = mesh.geometry
    x = assembly.point_values(mesh, mesh.vertices[:, 0], rule)   # (nq, nt)
    y = assembly.point_values(mesh, mesh.vertices[:, 1], rule)
    diff = assembly.point_values(mesh, u, rule) - _exact(x, y)
    l2 = math.sqrt(assembly.inner(rule.weights @ diff ** 2, area))
    gu = np.einsum("kt,tkd->dt", u[mesh.corners], grads)   # piecewise-constant
    gx, gy = _exact_grad(x, y)
    gdiff = (gu[0] - gx) ** 2 + (gu[1] - gy) ** 2
    h1 = math.sqrt(assembly.inner(rule.weights @ gdiff, area))
    return l2, h1


def poisson_rate_study(j_min: int = 2, j_max: int = 6) -> List[PoissonRow]:
    """Exact-solution convergence rates for the linear Poisson pipeline."""
    if not (1 <= j_min < j_max <= 9):
        raise ConfigError("need 1 <= j_min < j_max <= 9")

    def f(x, y):
        return 2.0 * np.pi ** 2 * _exact(x, y)

    rows: List[PoissonRow] = []
    prev_l2 = prev_h1 = None
    for j in range(j_min, j_max + 1):
        mesh = build_unit_square(j)
        u = _poisson_solve(mesh, f)
        l2, h1 = _error_vs_exact(mesh, u)
        rows.append(PoissonRow(
            j=j,
            err_l2=l2,
            rate_l2=observed_rate(prev_l2, l2) if prev_l2 is not None else None,
            err_h1=h1,
            rate_h1=observed_rate(prev_h1, h1) if prev_h1 is not None else None,
        ))
        prev_l2, prev_h1 = l2, h1
    return rows


def poisson_center_value(level: int = 6, tol: float = 1e-12) -> float:
    """Solution of -Laplace u = 1 at the center of the unit square."""
    mesh = build_unit_square(level)
    u = _poisson_solve(mesh, lambda x, y: np.ones_like(x), tol=tol)
    center = np.flatnonzero(
        (mesh.vertices[:, 0] == 0.5) & (mesh.vertices[:, 1] == 0.5)
    )
    if center.size != 1:
        raise ConfigError("mesh has no unique center vertex (need level >= 1)")
    return float(u[center[0]])
