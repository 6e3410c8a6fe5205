"""Structural checks on computed extremals: the linearized gap."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .errors import ConfigError
from .mesh import Mesh
from .minimizer import ExtremalSolution
from .sparse import smallest_eig_constrained

RESIDUAL_PRECONDITION = 1e-4


@dataclass
class GapReport:
    level: int
    p: float
    gap: float

    @property
    def positive(self) -> bool:
        return self.gap > 0.0


def nondegeneracy_gap(mesh: Mesh, solution: ExtremalSolution, p: float,
                      quad_degree: int = 5) -> GapReport:
    """Smallest eigenvalue of the linearized operator K - (p-1) W against K,
    constrained to the energy-orthogonal complement of the extremal.

    A positive gap is the discrete counterpart of non-degeneracy of the
    minimizer; W is the mass matrix weighted by |U|^(p-2), integrated with
    the quadrature rule of degree quad_degree.
    """
    if mesh.interior.size < 2:  # the constraint leaves no subspace
        raise ConfigError(f"a gap needs at least 2 interior vertices; level "
                          f"{mesh.level} has {mesh.interior.size}")
    if solution.fixed_point_residual > RESIDUAL_PRECONDITION:
        raise ConfigError(
            f"extremal residual {solution.fixed_point_residual:.2e} too large "
            f"for a meaningful gap (need <= {RESIDUAL_PRECONDITION})"
        )
    W = assembly.assemble_weighted_mass(mesh, solution.field, p - 2.0, quad_degree,
                                        interior=True)
    B = mesh.interior_stiffness
    A = B - (p - 1.0) * W
    c = solution.field[mesh.interior]
    if not np.any(c):
        # degenerate zero input: quotient reduces to x'Kx / x'Kx = 1
        return GapReport(level=mesh.level, p=p, gap=1.0)
    gap = smallest_eig_constrained(A, B, c)
    return GapReport(level=mesh.level, p=p, gap=gap)

