"""Normalized gradient descent for the discrete Sobolev extremal, Anderson-accelerated.

The unknowns are the interior nodal values x (the P1 fields vanish on the
boundary).  One descent step: solve the Poisson problem K w = F(x) on the
interior, move x <- x - eta (x - w), renormalize to unit L^p norm (the
norm comes from the same quadrature pass as the next load).  The
converged solve mixes each step with the last ANDERSON_DEPTH iterates and
residuals of that map (Anderson, J. ACM 12 (1965); Walker and Ni, SIAM J.
Numer. Anal. 49 (2011)), so eta is the mixing weight; the paper protocol
(iters_fixed) runs the plain descent.  The converged iterate is rescaled
so the Euler-Lagrange multiplier equals 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import assembly
from .errors import ConfigError, NumericsError
from .mesh import Mesh
from .sparse import factor

ANDERSON_DEPTH = 5  # iterates mixed per step of the converged solve


@dataclass
class MinimizerConfig:
    """Iteration controls; p is the main-text exponent (nonlinearity |u|^(p-2) u)."""

    p: float
    eta: float = 0.2
    max_iters: int = 400
    quotient_tol: float = 1e-10
    residual_tol: float = 1e-8
    quad_degree: int = 5
    iters_fixed: Optional[int] = None  # paper-protocol mode: exactly N steps

    def __post_init__(self):
        # Comparisons are written so that NaN fails them.
        if not 2 < self.p < math.inf:
            raise ConfigError(f"p must be finite and > 2, got {self.p}")
        if not 0 < self.eta < 1:
            raise ConfigError(f"eta must be in (0, 1), got {self.eta}")
        for name in ("quotient_tol", "residual_tol"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.iters_fixed is not None and self.iters_fixed < 1:
            raise ConfigError("iters_fixed must be >= 1")


@dataclass
class ExtremalSolution:
    """Discrete extremal in both scalings, plus convergence diagnostics."""

    field: np.ndarray             # multiplier-1 scaling
    normalized_field: np.ndarray  # unit L^p norm
    c_h: float                    # discrete best constant (final quotient)
    iterations: int
    fixed_point_residual: float   # |K U - F(U)| / |F(U)| on interior nodes
    stop: str                     # "stagnated", "max_iters" or "iters_fixed"

    @property
    def converged(self) -> bool:
        # An iters_fixed run counts as converged whatever its residual.
        return self.stop != "max_iters"

    @property
    def linf(self) -> float:
        return float(np.abs(self.field).max())


def initial_guess(mesh: Mesh, p: float, quad_degree: int = 5) -> np.ndarray:
    """1 on interior nodes, 0 on the boundary, scaled to unit L^p norm."""
    if mesh.interior.size == 0:
        raise ConfigError("mesh has no interior vertices")
    u = np.zeros(mesh.n_vertices)
    u[mesh.interior] = 1.0
    norm = assembly.lp_norm(mesh, u, p, quad_degree)
    if not 0.0 < norm < math.inf:  # |u| < 1 between the nodes, so a large p underflows
        raise NumericsError(f"initial guess: L^p norm {norm:.3e} at p = {p:g} "
                            f"cannot be scaled to 1")
    return u / norm


def rayleigh_quotient(mesh: Mesh, u: np.ndarray, p: float, quad_degree: int = 5) -> float:
    """|grad u|_L2 / |u|_Lp for the P1 field u."""
    u = np.asarray(u, dtype=np.float64)
    if not np.any(u):
        raise ValueError("Rayleigh quotient undefined for the zero field")
    energy = assembly.inner(u, mesh.stiffness @ u)
    return np.sqrt(energy) / assembly.lp_norm(mesh, u, p, quad_degree)


def solve_extremal(mesh: Mesh, config: MinimizerConfig,
                   u0: Optional[np.ndarray] = None) -> ExtremalSolution:
    """Iterate from the flat initial guess until the quotient stagnates.

    Stops when the relative quotient change drops below quotient_tol and
    the Euler-Lagrange residual is below residual_tol (or after exactly
    iters_fixed steps in paper-protocol mode, which max_iters does not
    cap).  Returns the best iterate flagged unconverged if max_iters is
    exhausted.

    The iterate is x, the interior values of a unit-norm field; the
    boundary values of u0 are ignored, so the returned fields vanish on the
    boundary.  A descent step maps x to g = x - eta (x - energy K^-1 F(x))
    on the interior stiffness K, factored once.  The gradient is evaluated
    on the multiplier-1 rescaling s x of the iterate (s^(p-2) = x'Kx when
    |x|_p = 1), which keeps the inverse-Laplacian term on the same scale as
    x; in unit-norm variables this multiplies K^-1 F by the current energy.
    Stepping on the raw unit-norm iterate contracts only at a rate
    ~ eta / energy and cannot finish in the published iteration budget.

    The step's residual is f = g - x, and the iterate moves to
    v = g - dG gamma, gamma = argmin |dR gamma - f|, where the rows of dG
    and dR are the differences of the last ANDERSON_DEPTH maps and
    residuals (dG = dX + dR, with dX the iterate differences); depth 0
    (iters_fixed) gives v = g, the published descent.  Least squares rather
    than normal equations, since the history can be rank-deficient (at L2
    the mesh symmetries confine it to 4 dimensions).
    """
    if mesh.interior.size == 0:
        raise ConfigError("mesh has no interior vertices")
    p, idx = config.p, mesh.interior
    if u0 is None:
        u0 = initial_guess(mesh, p, config.quad_degree)
    x = assembly.restrict_interior(u0, mesh)
    solve = factor(assembly.restrict_interior(mesh.stiffness, mesh)).solve

    def evaluate(v: np.ndarray):
        """Unit-norm rescaling x of v, its energy x'Kx, load F(x) and fixed-point residual.

        One quadrature pass gives both the load and the norm: P1 quadrature
        is linear in the nodal values, so v . F(v) is |v|_p^p under the same
        rule, and F is (p-1)-homogeneous, so F(x) = F(v) / |v|_p^(p-1).
        """
        u = assembly.extend_zero(v, mesh)
        with np.errstate(over="ignore", invalid="ignore"):  # the test below reports it
            Fv = assembly.nonlinear_load(mesh, u, p, config.quad_degree)[idx]
            total = assembly.inner(v, Fv)
        # Tested before the root, since a negative float to the power 1/p is
        # complex; a NaN fails the test too.
        if not 0.0 < total < math.inf:
            raise NumericsError(f"degenerate iterate: |v|_p^p = {total:.3e}")
        norm = total ** (1.0 / p)
        x = v / norm
        F = Fv / norm ** (p - 1.0)
        Kx = (mesh.stiffness @ u)[idx] / norm
        energy = assembly.inner(x, Kx)
        # With |x|_p = 1 the multiplier-1 scale s satisfies s^(p-2) = energy,
        # and the scaled residual reduces to |Kx - energy F| / (energy |F|).
        r = Kx - energy * F
        denom = energy * math.sqrt(assembly.inner(F, F))
        residual = math.sqrt(assembly.inner(r, r)) / denom if denom > 0 else np.inf
        return x, energy, F, residual

    x, energy, F, residual = evaluate(x)
    quotient = np.sqrt(energy)
    fixed = config.iters_fixed is not None
    depth = 0 if fixed else ANDERSON_DEPTH
    dG = np.empty((depth, idx.size))  # ring buffers, row (k - 2) % depth
    dR = np.empty((depth, idx.size))
    stop = "iters_fixed" if fixed else "max_iters"
    iterations = 0
    for k in range(1, (config.iters_fixed if fixed else config.max_iters) + 1):
        iterations = k
        prev = quotient
        v = g = x - config.eta * (x - energy * solve(F))
        if depth:
            f = g - x
            if k > 1:
                row = (k - 2) % depth
                dG[row], dR[row] = g - g_prev, f - f_prev
                m = min(k - 1, depth)
                gamma = np.linalg.lstsq(dR[:m].T, f, rcond=None)[0]
                v = g - gamma @ dG[:m]
            g_prev, f_prev = g, f
        x, energy, F, residual = evaluate(v)
        quotient = np.sqrt(energy)
        if (not fixed and abs(quotient - prev) <= config.quotient_tol * quotient
                and residual <= config.residual_tol):
            stop = "stagnated"
            break

    try:
        scale = energy ** (1.0 / (p - 2.0))  # the multiplier-1 scale s
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise NumericsError(f"multiplier-1 scale energy^(1/(p-2)) = {energy:.6g}^"
                            f"{1.0 / (p - 2.0):.6g} {'overflows' if scale else 'underflows'}")
    if x.sum() < 0.0:  # resolve the +-U dichotomy to the positive branch
        x = -x
    u = assembly.extend_zero(x, mesh)
    field = scale * u
    return ExtremalSolution(
        field=field,
        normalized_field=u,
        c_h=quotient,
        iterations=iterations,
        fixed_point_residual=residual,
        stop=stop,
    )
