"""Normalized gradient descent for the discrete Sobolev extremal, Anderson-accelerated.

One descent step: solve the Poisson problem K w = F(u) on the interior,
move u <- u - eta (u - w), renormalize to unit L^p norm (the norm comes
from the same quadrature pass as the next load, see _evaluate).  The
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
    linf: float
    converged: bool
    stop: str                     # "stagnated", "max_iters" or "iters_fixed"


class _Workspace:
    """Per-mesh operators shared across descent steps; interior stiffness factored once."""

    def __init__(self, mesh: Mesh, config: MinimizerConfig):
        if mesh.interior.size == 0:
            raise ConfigError("mesh has no interior vertices")
        self.mesh = mesh
        self.config = config
        self.interior = mesh.interior
        self.solve = factor(assembly.restrict_interior(mesh.stiffness, mesh)).solve


def initial_guess(mesh: Mesh, p: float, quad_degree: int = 5) -> np.ndarray:
    """1 on interior nodes, 0 on the boundary, scaled to unit L^p norm."""
    if mesh.interior.size == 0:
        raise ConfigError("mesh has no interior vertices")
    u = np.zeros(mesh.n_vertices)
    u[mesh.interior] = 1.0
    return u / assembly.lp_norm(mesh, u, p, quad_degree)


def rayleigh_quotient(mesh: Mesh, u: np.ndarray, p: float, quad_degree: int = 5) -> float:
    """|grad u|_L2 / |u|_Lp for the P1 field u."""
    u = np.asarray(u, dtype=np.float64)
    if not np.any(u):
        raise ValueError("Rayleigh quotient undefined for the zero field")
    energy = assembly.inner(u, mesh.stiffness @ u)
    return np.sqrt(energy) / assembly.lp_norm(mesh, u, p, quad_degree)


def _evaluate(ws: _Workspace, v: np.ndarray):
    """Unit-norm rescaling u of v, its energy u'Ku, load F(u) and fixed-point residual.

    One quadrature pass gives both the load and the norm: P1 quadrature is
    linear in the nodal values, so v . F(v) is |v|_p^p under the same rule,
    and F is (p-1)-homogeneous, so F(u) = F(v) / |v|_p^(p-1).
    """
    p = ws.config.p
    Fv = assembly.nonlinear_load(ws.mesh, v, p, ws.config.quad_degree)
    total = assembly.inner(v, Fv)
    # Tested before the root, since a negative float to the power 1/p is
    # complex; a NaN fails the test too.
    if not 0.0 < total < math.inf:
        raise NumericsError(f"degenerate iterate: |v|_p^p = {total:.3e}")
    norm = total ** (1.0 / p)
    u = v / norm
    F = Fv / norm ** (p - 1.0)
    Ku = ws.mesh.stiffness @ u
    energy = assembly.inner(u, Ku)
    # With |u|_p = 1 the multiplier-1 scale s satisfies s^(p-2) = energy,
    # and the scaled residual reduces to |Ku - energy F| / (energy |F|).
    F_int = F[ws.interior]
    r = Ku[ws.interior] - energy * F_int
    denom = energy * math.sqrt(assembly.inner(F_int, F_int))
    residual = math.sqrt(assembly.inner(r, r)) / denom if denom > 0 else np.inf
    return u, energy, F, residual


def _step(ws: _Workspace, u: np.ndarray, energy: float, F: np.ndarray) -> np.ndarray:
    """One descent step from u, its energy u'Ku and load F(u); not renormalized.

    The gradient is evaluated on the multiplier-1 rescaling s u of the
    unit-norm iterate (s^(p-2) = u'Ku when |u|_p = 1), which keeps the
    inverse-Laplacian term on the same scale as u; in unit-norm variables
    this multiplies the solved field w by the current energy.  Stepping on
    the raw unit-norm iterate contracts only at a rate ~ eta / energy and
    cannot finish in the published iteration budget.
    """
    w = assembly.extend_zero(ws.solve(F[ws.interior]), ws.mesh)
    return u - ws.config.eta * (u - energy * w)


def solve_extremal(mesh: Mesh, config: MinimizerConfig,
                   u0: Optional[np.ndarray] = None) -> ExtremalSolution:
    """Iterate from the flat initial guess until the quotient stagnates.

    Stops when the relative quotient change drops below quotient_tol and
    the Euler-Lagrange residual is below residual_tol (or after exactly
    iters_fixed steps in paper-protocol mode, which max_iters does not
    cap).  Returns the best iterate flagged unconverged if max_iters is
    exhausted.

    Each step maps u to g = _step(u) with residual f = g - u and moves to
    v = g - dG gamma, gamma = argmin |dR gamma - f|, where the rows of dG
    and dR are the differences of the last ANDERSON_DEPTH maps and
    residuals on the interior nodes (dG = dX + dR, with dX the iterate
    differences); depth 0 (iters_fixed) gives v = g, the published descent.
    Least squares rather than normal equations, since the history can be
    rank-deficient (at L2 the mesh symmetries confine it to 4 dimensions).
    """
    ws = _Workspace(mesh, config)
    if u0 is None:
        u0 = initial_guess(mesh, config.p, config.quad_degree)
    u, energy, F, residual = _evaluate(ws, np.asarray(u0, dtype=np.float64))
    quotient = np.sqrt(energy)
    fixed = config.iters_fixed is not None
    depth = 0 if fixed else ANDERSON_DEPTH
    idx = ws.interior
    dG = np.empty((depth, idx.size))  # ring buffers, row (k - 2) % depth
    dR = np.empty((depth, idx.size))
    stop = "iters_fixed" if fixed else "max_iters"
    iterations = 0
    for k in range(1, (config.iters_fixed if fixed else config.max_iters) + 1):
        iterations = k
        prev = quotient
        v = _step(ws, u, energy, F)
        if depth:
            g = v[idx]
            f = g - u[idx]
            if k > 1:
                row = (k - 2) % depth
                dG[row], dR[row] = g - g_prev, f - f_prev
                m = min(k - 1, depth)
                gamma = np.linalg.lstsq(dR[:m].T, f, rcond=None)[0]
                v[idx] = g - gamma @ dG[:m]
            g_prev, f_prev = g, f
        u, energy, F, residual = _evaluate(ws, v)
        quotient = np.sqrt(energy)
        if (not fixed and abs(quotient - prev) <= config.quotient_tol * quotient
                and residual <= config.residual_tol):
            stop = "stagnated"
            break

    field = energy ** (1.0 / (config.p - 2.0)) * u  # multiplier-1 scale s u
    if field.sum() < 0.0:  # resolve the +-U dichotomy to the positive branch
        field = -field
        u = -u
    return ExtremalSolution(
        field=field,
        normalized_field=u,
        c_h=quotient,
        iterations=iterations,
        fixed_point_residual=residual,
        linf=float(np.abs(field).max()),
        # An iters_fixed run counts as converged whatever its residual.
        converged=stop != "max_iters",
        stop=stop,
    )
