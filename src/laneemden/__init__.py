"""P1 finite elements for extremals of the Sobolev inequality on convex polygons."""

__version__ = "0.1.0"

from .assembly import (
    QuadratureRule,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    extend_zero,
    lp_norm,
    nonlinear_load,
    restrict_interior,
    triangle_rule,
)
from .diagnostics import nondegeneracy_gap
from .errors import (
    ConfigError,
    DimensionError,
    LaneEmdenError,
    MeshError,
    NumericsError,
)
from .mesh import (
    Mesh,
    build_unit_square,
    prolongate,
    read_mesh,
    refine_uniform,
    write_mesh,
)
from .minimizer import (
    ExtremalSolution,
    MinimizerConfig,
    initial_guess,
    rayleigh_quotient,
    solve_extremal,
)
from .sparse import CgFailure, CgReport, cg_solve, smallest_eig_constrained
from .study import (
    RateRow,
    inter_level_error,
    observed_rate,
    poisson_center_value,
    poisson_rate_study,
    run_study,
)

__all__ = [
    "CgFailure", "CgReport", "ConfigError", "DimensionError", "ExtremalSolution",
    "LaneEmdenError", "Mesh", "MeshError", "MinimizerConfig",
    "NumericsError", "QuadratureRule", "RateRow",
    "assemble_mass", "assemble_stiffness", "assemble_weighted_mass",
    "build_unit_square", "cg_solve", "extend_zero",
    "initial_guess", "inter_level_error", "lp_norm",
    "nondegeneracy_gap", "nonlinear_load", "observed_rate",
    "poisson_center_value", "poisson_rate_study", "prolongate",
    "rayleigh_quotient", "read_mesh", "refine_uniform", "restrict_interior",
    "run_study", "smallest_eig_constrained", "solve_extremal", "triangle_rule",
    "write_mesh",
]
