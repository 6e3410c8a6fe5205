"""Structural checks on computed extremals: the linearized gap."""

from __future__ import annotations

from typing import Optional

from . import assembly
from .errors import ConfigError, NumericsError
from .mesh import Mesh
from .minimizer import ExtremalSolution
from .sparse import smallest_eig_constrained

RESIDUAL_PRECONDITION = 1e-4


def why_no_gap(solution: ExtremalSolution) -> Optional[str]:
    """Why solution's gap would measure nothing, or None when it may be taken.

    The gap's precondition: the solve stagnated or ran iters_fixed, and its
    fixed-point residual is at most RESIDUAL_PRECONDITION.
    """
    if not solution.converged:
        return "did not stagnate within max_iters"
    if solution.fixed_point_residual > RESIDUAL_PRECONDITION:
        return f"ended above the gap's residual precondition {RESIDUAL_PRECONDITION}"
    return None


def nondegeneracy_gap(mesh: Mesh, solution: ExtremalSolution) -> float:
    """Smallest eigenvalue of the linearized operator K - (p-1) W against K,
    constrained to the energy-orthogonal complement of the extremal, as
    ``smallest_eig_constrained`` reports it.

    A positive gap is the discrete counterpart of non-degeneracy of the
    minimizer; W is the mass matrix weighted by |U|^(p-2), integrated with
    the solve's quadrature rule, and p is the solve's (``solution.config``).
    A positive value is that of the capped inverse iteration, emulated from
    the eigenpairs of a Lanczos tridiagonal, which can sit above the exact
    minimum (a 200-step cap, a false plateau).  A non-positive gap is the
    tridiagonal's smallest eigenvalue, an upper bound on the constrained
    minimum: K - (p-1) W is not positive definite on the complement.
    A mesh with fewer than 2 interior vertices raises ConfigError, and a
    solution that fails the precondition of ``why_no_gap`` NumericsError.
    """
    if mesh.interior.size < 2:  # the constraint leaves no subspace
        raise ConfigError(f"a gap needs at least 2 interior vertices; level "
                          f"{mesh.level} has {mesh.interior.size}")
    why = why_no_gap(solution)
    if why is not None:
        raise NumericsError(f"level {mesh.level} {why} (residual "
                            f"{solution.fixed_point_residual:.3e}); no gap computed")
    p = solution.config.p
    W = assembly.assemble_weighted_mass(mesh, solution.field, p - 2.0,
                                        solution.config.quad_degree, interior=True)
    B = mesh.interior_stiffness
    return smallest_eig_constrained(B - (p - 1.0) * W, B, solution.field[mesh.interior])
