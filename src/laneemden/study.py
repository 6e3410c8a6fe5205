"""Multi-level refinement studies: inter-level errors, observed rates, CSV."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import assembly, diagnostics
from .errors import ConfigError, DimensionError
from .mesh import Mesh, basis_gradients, build_unit_square, prolongate, refine_uniform
from .minimizer import MinimizerConfig, solve_extremal
from .sparse import solver

CSV_HEADER = "j,h,err_l2,rate_l2,err_h1,rate_h1,c_h,linf,gap,residual,iters"
GAP_MAX_LEVEL = 6  # highest coarse level of a row that gets a gap


@dataclass
class RateRow:
    j: int
    h_label: float                    # 2^-j: level j's scale relative to the coarse mesh
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
    """(L2, H1-seminorm) distance between a coarse field and its refinement's.

    The L2 term is the quadrature norm of the difference d on the
    edge-midpoint rule, exact for the quadratic |d|^2 of a P1 field, so it
    is the mass matrix's sqrt(d' M d) without assembling M.  The H1
    seminorm measures Dirichlet fields only, those that vanish on the
    boundary like the fields of ``solve_extremal``: it reads only the
    difference's interior values, on ``Mesh.interior_stiffness``, which
    gives the full stiffness's sqrt(d' K d) when d vanishes on the boundary.
    """
    fine_field = np.asarray(fine_field, dtype=np.float64)
    if fine_field.shape != (fine_mesh.n_vertices,):
        raise DimensionError("fine field does not match fine mesh")
    d = prolongate(coarse_field, fine_mesh) - fine_field
    l2 = assembly.lp_norm(fine_mesh, d, 2.0, degree=2)
    d = d[fine_mesh.interior]
    h1 = math.sqrt(max(assembly.inner(d, fine_mesh.interior_stiffness @ d), 0.0))
    return l2, h1


def run_study(p: float, j_max: int, config: Optional[MinimizerConfig] = None,
              scaling: str = "lambda1", progress: Optional[Callable[[str], None]] = None,
              coarse: Optional[Mesh] = None) -> List[RateRow]:
    """Solve at levels 1..j_max+1 and tabulate inter-level errors and rates.

    Level j is the j-th uniform refinement of the coarse mesh (by default
    ``build_unit_square(0)``, two triangles), so its triangles are 2^-j times
    the coarse ones, and row j's ``h_label`` is that scale: on the unit
    square, the leg length.  Rates read only ratios of errors, so they are
    measured alike on any coarse mesh; the paper proves O(h^2) in L2 and
    O(h) in H1 on convex polygons only.
    Row j compares levels j and j+1; rates need a predecessor row.  Warm
    starting (prolonging each solution up one level) is disabled in
    paper-protocol mode (iters_fixed) so every level runs the published
    iteration count from the flat guess.  One mesh is alive at a time: level
    j's gap is taken before it is refined, and only its solution is kept
    once level j+1 exists, so the finest level's mesh and interior stiffness
    set the peak memory (the unit square's solves store no factor).
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

    def solve(mesh: Mesh, u0=None):
        if progress:
            progress(f"solving level {mesh.level} (p={p})")
        return solve_extremal(mesh, config, u0=u0)

    def pick(sol):
        return sol.field if scaling == "lambda1" else sol.normalized_field

    mesh = refine_uniform(build_unit_square(0) if coarse is None else coarse)
    sol = solve(mesh)
    rows: List[RateRow] = []
    prev_l2 = prev_h1 = None
    for j in range(1, j_max + 1):
        gap = None
        if (mesh.interior.size >= 2 and mesh.level <= GAP_MAX_LEVEL
                and diagnostics.why_no_gap(sol) is None):
            gap = diagnostics.nondegeneracy_gap(mesh, sol)
        prev_level, prev = mesh.level, sol
        mesh = refine_uniform(mesh)   # the coarse mesh is released here
        sol = solve(mesh, prolongate(prev.normalized_field, mesh) if warm_start else None)
        l2, h1 = inter_level_error(pick(prev), pick(sol), mesh)
        rows.append(RateRow(
            j=j,
            h_label=2.0 ** -j,
            err_l2=l2,
            rate_l2=observed_rate(prev_l2, l2) if prev_l2 is not None else None,
            err_h1=h1,
            rate_h1=observed_rate(prev_h1, h1) if prev_h1 is not None else None,
            c_h=prev.c_h,
            linf=prev.linf,
            gap=gap,
            residual=prev.fixed_point_residual,
            iters=prev.iterations,
            unconverged=tuple(level for level, s in ((prev_level, prev), (mesh.level, sol))
                              if not s.converged),
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


def _poisson_solve(mesh: Mesh, f) -> np.ndarray:
    """The Dirichlet solve of -Laplace u = f, with the descent's ``solver``."""
    b = assembly.load_vector(mesh, f, degree=8)
    return assembly.extend_zero(solver(mesh.interior_stiffness)(b[mesh.interior]), mesh)


def _error_vs_exact(mesh: Mesh, u: np.ndarray, degree: int = 8):
    """Quadrature L2/H1-seminorm errors against the exact sine solution."""
    rule = assembly.triangle_rule(degree)

    def squared_errors(s):
        """Squared value errors stacked on squared gradient errors, (2 nq, b)."""
        x, y = (assembly.point_values(mesh, c, rule, s) for c in mesh.vertices.T)
        # per-triangle gradient of u, from this block's basis gradients
        gu = np.einsum("kt,dkt->dt", u[mesh.triangles[s].T], basis_gradients(mesh, s))
        gx, gy = _exact_grad(x, y)
        return np.vstack([(assembly.point_values(mesh, u, rule, s) - _exact(x, y)) ** 2,
                          (gu[0] - gx) ** 2 + (gu[1] - gy) ** 2])

    table = np.kron(np.eye(2), rule.weights)   # weighs each half into its own row
    return tuple(np.sqrt(assembly.triangle_integrals(mesh, table, squared_errors).sum(axis=1)))


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


def poisson_center_value(level: int = 6) -> float:
    """Solution of -Laplace u = 1 at the center of the unit square."""
    mesh = build_unit_square(level)
    u = _poisson_solve(mesh, lambda x, y: np.ones_like(x))
    center = np.flatnonzero(
        (mesh.vertices[:, 0] == 0.5) & (mesh.vertices[:, 1] == 0.5)
    )
    if center.size != 1:
        raise ConfigError("mesh has no unique center vertex (need level >= 1)")
    return float(u[center[0]])
