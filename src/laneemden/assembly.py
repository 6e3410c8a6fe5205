"""P1 matrix/vector assembly with symmetric triangle quadrature.

Every kernel works corner-major: nodal values are gathered through
``Mesh.corners`` into (3, nt) arrays, quadrature-point values are
(nq, nt) and per-triangle blocks (3, nt) or (3, 3, nt), so each pass runs
over contiguous rows of length nt.  Accumulation follows the fixed corner
order, so results are deterministic.

The small products here are shaped so that OpenBLAS runs them in the
calling thread: a call it splits across its thread pool leaves the pool's
workers spin-waiting for the next one, so a descent making such calls on
every step keeps a second CPU busy while computing on one.  Long vector
reductions go through ``inner`` for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DimensionError
from .mesh import Mesh

MAX_QUAD_DEGREE = 20

# Classical symmetric 7-point rule, exact to degree 5 (Radon/Hammer).
_S15 = np.sqrt(15.0)
_A1 = (6.0 - _S15) / 21.0
_A2 = (6.0 + _S15) / 21.0
_RULE7_POINTS = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [1 - 2 * _A1, _A1, _A1],
    [_A1, 1 - 2 * _A1, _A1],
    [_A1, _A1, 1 - 2 * _A1],
    [1 - 2 * _A2, _A2, _A2],
    [_A2, 1 - 2 * _A2, _A2],
    [_A2, _A2, 1 - 2 * _A2],
])
_RULE7_WEIGHTS = np.array(
    [9 / 40]
    + [(155.0 - _S15) / 1200.0] * 3
    + [(155.0 + _S15) / 1200.0] * 3
)


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points and weights; weights sum to 1 (area-normalized)."""

    degree: int
    points: np.ndarray   # (nq, 3)
    weights: np.ndarray  # (nq,)


def _conical_rule(degree: int) -> QuadratureRule:
    # Duffy/conical product: Gauss-Legendre x Gauss-Jacobi(1,0), positive
    # weights, exact to the requested total degree.  scipy.special is
    # imported here because only degrees above 5 need it.
    from scipy.special import roots_jacobi, roots_legendre

    k = (degree + 2) // 2
    tu, wu = roots_legendre(k)
    tu = 0.5 * (tu + 1.0)
    wu = 0.5 * wu
    tv, wv = roots_jacobi(k, 1.0, 0.0)
    tv = 0.5 * (tv + 1.0)
    wv = 0.25 * wv
    x = np.outer(tu, 1.0 - tv).ravel()
    y = np.tile(tv, k)
    w = np.outer(wu, wv).ravel()
    pts = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(degree=degree, points=pts, weights=2.0 * w)


def triangle_rule(degree: int = 5) -> QuadratureRule:
    """Quadrature rule exact for polynomials up to the given total degree."""
    if not (1 <= degree <= MAX_QUAD_DEGREE):
        raise ConfigError(f"quadrature degree must be in [1, {MAX_QUAD_DEGREE}]")
    if degree == 1:
        return QuadratureRule(1, np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0]))
    if degree == 2:
        pts = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        return QuadratureRule(2, pts, np.full(3, 1 / 3))
    if degree <= 5:
        return QuadratureRule(5, _RULE7_POINTS, _RULE7_WEIGHTS)
    return _conical_rule(degree)


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two vectors, summed in the calling thread.

    ``a @ b`` and ``np.linalg.norm`` call BLAS ddot, which OpenBLAS splits
    across its thread pool above 10 000 entries; einsum never calls BLAS.
    """
    return float(np.einsum("i,i->", a, b))


def point_values(mesh: Mesh, u: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Values (nq, nt) of the P1 interpolant of u at the rule's points."""
    return rule.points @ u[mesh.corners]


def _scatter(mesh: Mesh, local: np.ndarray) -> sp.csr_matrix:
    """Sum per-triangle blocks local[i, j, t] (3, 3, nt) into a CSR matrix."""
    c = mesh.corners
    rows = np.broadcast_to(c[:, None, :], local.shape).ravel()
    cols = np.broadcast_to(c[None, :, :], local.shape).ravel()
    n = mesh.n_vertices
    # tocsr sums duplicates and sorts the indices.  Exact zeros (the
    # stiffness couplings across right-triangle hypotenuses) are dropped:
    # the stored pattern fixes the factorization's ordering.
    A = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    A.eliminate_zeros()
    return A


def _load(mesh: Mesh, rule: QuadratureRule, fq: np.ndarray) -> np.ndarray:
    """Load vector b_i = sum_T area_T sum_q w_q fq[q, T] lam_qi of point values fq."""
    local = (rule.points.T * rule.weights) @ fq   # (3, nt)
    local *= mesh.geometry[0]
    return np.bincount(mesh.corners.ravel(), weights=local.ravel(),
                       minlength=mesh.n_vertices)


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Galerkin matrix of the Dirichlet form: K_ij = sum_T area grad(phi_i).grad(phi_j)."""
    area, grads = mesh.geometry
    gx = grads[:, :, 0].T   # (3, nt)
    gy = grads[:, :, 1].T
    local = gx[:, None] * gx + gy[:, None] * gy
    local *= area
    return _scatter(mesh, local)


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Consistent mass matrix; local block (area/12) [[2,1,1],[1,2,1],[1,1,2]]."""
    area, _ = mesh.geometry
    block = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _scatter(mesh, block[:, :, None] * area)


def assemble_weighted_mass(
    mesh: Mesh, w: np.ndarray, exponent: float, degree: int = 5
) -> sp.csr_matrix:
    """Matrix of int |w|^exponent phi_i phi_j with w its P1 interpolant."""
    if exponent < 0:
        raise ConfigError(f"exponent must be >= 0, got {exponent}")
    w = _check_field(mesh, w)
    rule = triangle_rule(degree)
    lam = rule.points
    fac = point_values(mesh, w, rule)
    np.abs(fac, out=fac)
    fac **= exponent                      # 0**0 == 1, so exponent 0 gives mass
    table = lam.T * rule.weights          # (3, nq)
    # One (3, nq) product per row of the block: OpenBLAS threads a single
    # (9, nq) one from about 2^14 triangles on.
    local = np.stack([(table * lam[:, i]) @ fac for i in range(3)])
    local *= mesh.geometry[0]
    return _scatter(mesh, local)


def nonlinear_load(mesh: Mesh, u: np.ndarray, p: float, degree: int = 5) -> np.ndarray:
    """Load vector F_i = int |u|^(p-2) u phi_i on the P1 interpolant of u."""
    if p <= 2:
        raise ConfigError(f"p must be > 2, got {p}")
    u = _check_field(mesh, u)
    rule = triangle_rule(degree)
    uq = point_values(mesh, u, rule)
    fq = np.abs(uq)
    fq **= p - 2.0
    fq *= uq
    return _load(mesh, rule, fq)


def load_vector(mesh: Mesh, f, degree: int = 5) -> np.ndarray:
    """Load vector of a coordinate function f(x, y) (for linear problems)."""
    rule = triangle_rule(degree)
    x = point_values(mesh, mesh.vertices[:, 0], rule)
    y = point_values(mesh, mesh.vertices[:, 1], rule)
    return _load(mesh, rule, f(x, y))


def lp_norm(mesh: Mesh, u: np.ndarray, p: float, degree: int = 5) -> float:
    """L^p norm of the P1 interpolant of u via quadrature."""
    if p <= 0:
        raise ConfigError(f"p must be positive, got {p}")
    u = _check_field(mesh, u)
    rule = triangle_rule(degree)
    uq = point_values(mesh, u, rule)
    np.abs(uq, out=uq)
    uq **= p
    return inner(rule.weights @ uq, mesh.geometry[0]) ** (1.0 / p)


def _check_field(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (mesh.n_vertices,):
        raise DimensionError(
            f"field length {u.shape} does not match vertex count {mesh.n_vertices}"
        )
    return u


def restrict_interior(
    obj: Union[sp.csr_matrix, np.ndarray], mesh: Mesh
) -> Union[sp.csr_matrix, np.ndarray]:
    """Drop boundary rows/columns (homogeneous Dirichlet)."""
    idx = mesh.interior
    if sp.issparse(obj):
        if obj.shape != (mesh.n_vertices, mesh.n_vertices):
            raise DimensionError("operator size does not match mesh")
        return obj[idx][:, idx]
    vec = _check_field(mesh, obj)
    return vec[idx]


def extend_zero(interior_values: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Pad an interior-indexed field with zeros on the boundary."""
    idx = mesh.interior
    interior_values = np.asarray(interior_values, dtype=np.float64)
    if interior_values.shape != (idx.size,):
        raise DimensionError(
            f"expected {idx.size} interior values, got {interior_values.shape}"
        )
    out = np.zeros(mesh.n_vertices)
    out[idx] = interior_values
    return out
