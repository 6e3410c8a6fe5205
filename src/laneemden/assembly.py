"""P1 matrix/vector assembly with symmetric triangle quadrature.

Every kernel works corner-major: nodal values are gathered through the
transpose of ``Mesh.triangles`` into (3, b) arrays, quadrature-point values
are (nq, b), load blocks (3, nt) and matrix blocks one (nt,) row per corner
pair, so each pass runs over rows of length nt.  A load is summed into its
vertices one corner at a time, and a matrix straight into the data array of
its sparsity pattern (``_pattern``, built for each matrix and kept by
none), one corner pair at a time.  Accumulation follows the fixed corner
order, so results are deterministic.

The quadrature kernels share one loop, ``triangle_integrals``, which
streams the triangles in the mesh's blocks (``mesh.triangle_blocks``, of
``TRIANGLE_BLOCK`` triangles): a block's nodal values
are gathered, evaluated at the points and reduced into its columns of the
per-triangle integrals before the next block is gathered, so no (nq, nt)
array is ever whole.  Every column is computed by the same operations as
on the whole mesh; each kernel supplies only its integrand and its
reduction (``_corner_sum`` for a load, a sum for the norm, ``_scatter``
for the weighted mass).

The small products here are shaped so that OpenBLAS runs them in the
calling thread: a call it splits across its thread pool leaves the pool's
workers spin-waiting for the next one, so a descent making such calls on
every step keeps a second CPU busy while computing on one.  Long vector
reductions go through ``inner`` for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DimensionError
from .mesh import Mesh, _edges, _triangle_edges, basis_gradients, triangle_blocks

MAX_QUAD_DEGREE = 20
MAX_SQUARING_EXPONENT = 64  # |u|**e by repeated squaring up to this integer e
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))  # corner pairs i <= j

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


def point_values(mesh: Mesh, u: np.ndarray, rule: QuadratureRule,
                 block: slice = slice(None)) -> np.ndarray:
    """Values (nq, nt) of the P1 interpolant of u at the rule's points, on
    the triangles of ``block`` (all of them by default)."""
    return rule.points @ u[mesh.triangles[block].T]


def triangle_integrals(mesh: Mesh, table: np.ndarray, values) -> np.ndarray:
    """Per-triangle integrals (r, nt): column T is area_T (table @ values(T)).

    ``table`` (r, nq) holds the rule's weights times any point factors and
    ``values(s)`` the integrand (nq, b) at the points of the triangles of the
    slice s.  The triangles go in the blocks of ``triangle_blocks`` (the
    last may be short), each evaluated and reduced before the next is
    gathered.
    """
    area = mesh.areas
    out = np.empty((table.shape[0], mesh.n_triangles))
    for s in triangle_blocks(mesh.n_triangles):
        np.multiply(table @ values(s), area[s], out=out[:, s])
    return out


def _power(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e for x >= 0 (|u| at the points), computed in place in x.

    An integer e in [1, MAX_SQUARING_EXPONENT] goes by repeated squaring:
    on a (7, 4096) block, libm's pow for e = 9 took about three times as
    long as a copy, three in-place squarings and a product.  Other
    exponents keep pow and its bits.
    """
    n = int(e) if float(e).is_integer() and 1 <= e <= MAX_SQUARING_EXPONENT else 0
    if not n:
        return np.power(x, e, out=x)
    result = None
    while True:
        if n & 1:
            if result is None:
                result = x if n == 1 else x.copy()
            else:
                result *= x
        n >>= 1
        if not n:
            return result
        x *= x


def _pattern(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P1 sparsity pattern: CSR ``indptr`` and ``indices`` (int32) of the
    diagonal and both directions of every edge, and the (3, 3, nt) int32
    slot map, ``slots[i, j, t]`` being the position in ``data`` of the
    entry (corner i, corner j) of triangle t.

    Row r holds (r, lo) for the edges with hi == r, then (r, r), then
    (r, hi) for the edges with lo == r; the columns are sorted because the
    edge table is sorted by (lo, hi).  The edge table and the triangles'
    indices into it are built here and not kept, and ``_scatter`` drops the
    slot map once its matrix is summed.
    """
    nv = mesh.n_vertices
    edges = _edges(mesh.triangles, nv)[0]
    ne = edges.shape[0]
    lo, hi = edges.T
    below = np.bincount(hi, minlength=nv)  # entries left of the diagonal
    above = np.bincount(lo, minlength=nv)  # entries right of it
    indptr = np.zeros(nv + 1, dtype=np.int32)
    np.cumsum(below + above + 1, out=indptr[1:])
    diag = indptr[:-1] + below
    # Row lo's right part lists its edges in edge order, the first one
    # being edge cumsum(above)[lo] - above[lo].
    upper = np.arange(1, ne + 1, dtype=np.int32)
    upper += (diag - (np.cumsum(above) - above))[lo]
    # Row hi's left part lists its edges by lo: in their stable order by hi.
    order = np.argsort(hi, kind="stable")
    lower = np.empty(ne, dtype=np.int32)
    lower[order] = (np.arange(ne, dtype=np.int32)
                    + (indptr[:-1] - (np.cumsum(below) - below))[hi[order]])
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[diag] = np.arange(nv)
    indices[upper] = hi
    indices[lower] = lo

    t = mesh.triangles
    tri_edges = _triangle_edges(t, edges, nv)
    slots = np.empty((3, 3, mesh.n_triangles), dtype=np.int32)
    for i in range(3):
        j = (i + 1) % 3
        e = tri_edges[:, i]  # the edge from corner i to corner j
        up = t[:, i] < t[:, j]
        slots[i, i] = diag[t[:, i]]
        slots[i, j] = np.where(up, upper[e], lower[e])
        slots[j, i] = np.where(up, lower[e], upper[e])
    return indptr, indices, slots


def _scatter(mesh: Mesh, blocks) -> sp.csr_matrix:
    """Sum symmetric per-triangle blocks into a CSR matrix on ``_pattern``.

    ``blocks`` yields (i, j, b) for the corner pairs i <= j, with b (nt,) the
    entries (corner i, corner j) of every triangle; b serves (j, i) as well.
    Each block is added into ``data`` in place by one ``np.add.at`` through
    the pattern's slot map: no per-entry index arrays, no sort and no
    temporary beyond the block.  Exact zeros (the stiffness couplings across
    right-triangle hypotenuses) are dropped: the stored pattern fixes the
    factorization's ordering.
    """
    indptr, indices, slots = _pattern(mesh)
    nnz = indices.size
    data = np.zeros(nnz)
    for i, j, b in blocks:
        np.add.at(data, slots[i, j], b)
        if i != j:
            np.add.at(data, slots[j, i], b)
    del slots
    keep = data != 0.0
    if not keep.all():
        kept = np.zeros(nnz + 1, dtype=indptr.dtype)  # entries kept before each
        np.cumsum(keep, out=kept[1:])
        data = data[keep]
        indices = indices[keep]
        indptr = kept[indptr]
    n = mesh.n_vertices
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Galerkin matrix of the Dirichlet form: K_ij = sum_T area grad(phi_i).grad(phi_j).

    The closed-form entries of each corner pair are formed from the basis
    gradients of TRIANGLE_BLOCK triangles at a time, which are not kept,
    and summed on the pattern pair by pair, in the order of a whole-mesh
    pass.
    """
    area = mesh.areas
    local = np.empty((len(_UPPER), mesh.n_triangles))
    for s in triangle_blocks(mesh.n_triangles):
        gx, gy = basis_gradients(mesh, s)
        for k, (i, j) in enumerate(_UPPER):
            np.multiply(gx[i] * gx[j] + gy[i] * gy[j], area[s], out=local[k, s])
    return _scatter(mesh, ((i, j, b) for (i, j), b in zip(_UPPER, local)))


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Consistent mass matrix; local block (area/12) [[2,1,1],[1,2,1],[1,1,2]]."""
    area = mesh.areas
    return _scatter(mesh, ((i, j, (2.0 if i == j else 1.0) / 12.0 * area)
                           for i, j in _UPPER))


def assemble_weighted_mass(
    mesh: Mesh, w: np.ndarray, exponent: float, degree: int = 5
) -> sp.csr_matrix:
    """Matrix of int |w|^exponent phi_i phi_j with w its P1 interpolant."""
    # Comparisons are written so that NaN fails them.
    if not 0 <= exponent < math.inf:
        raise ConfigError(f"exponent must be finite and >= 0, got {exponent}")
    w = _check_field(mesh, w)
    rule = triangle_rule(degree)
    lam = rule.points
    # Row k of the table weighs the points for corner pair _UPPER[k].  One
    # (6, nq) product per block stays in the calling thread; on the whole
    # mesh OpenBLAS threaded a (9, nq) one from about 2^14 triangles on.
    table = np.array([lam[:, i] * lam[:, j] * rule.weights for i, j in _UPPER])
    # 0**0 == 1, so exponent 0 gives the mass matrix
    local = triangle_integrals(mesh, table,
                               lambda s: _power(np.abs(point_values(mesh, w, rule, s)), exponent))
    return _scatter(mesh, ((i, j, b) for (i, j), b in zip(_UPPER, local)))


def nonlinear_load(mesh: Mesh, u: np.ndarray, p: float, degree: int = 5) -> np.ndarray:
    """Load vector F_i = int |u|^(p-2) u phi_i on the P1 interpolant of u."""
    if not 2 < p < math.inf:
        raise ConfigError(f"p must be finite and > 2, got {p}")
    u = _check_field(mesh, u)
    rule = triangle_rule(degree)

    def values(s):
        uq = point_values(mesh, u, rule, s)
        fq = _power(np.abs(uq), p - 2.0)
        fq *= uq
        return fq

    # b_i = sum_T area_T sum_q w_q f(x_q) lam_qi, summed over the corners
    return _corner_sum(mesh, triangle_integrals(mesh, rule.points.T * rule.weights, values))


def load_vector(mesh: Mesh, f, degree: int = 5) -> np.ndarray:
    """Load vector of a coordinate function f(x, y) (for linear problems)."""
    rule = triangle_rule(degree)
    x, y = mesh.vertices.T
    return _corner_sum(mesh, triangle_integrals(mesh, rule.points.T * rule.weights,
                                                lambda s: f(point_values(mesh, x, rule, s),
                                                            point_values(mesh, y, rule, s))))


def _corner_sum(mesh: Mesh, local: np.ndarray) -> np.ndarray:
    """Sum a load's (3, nt) per-triangle blocks into its vertices, corner 0's
    column first: the order of a ``bincount`` over the corner-major indices,
    so the same bits, without a (3 nt,) copy of the connectivity."""
    out = np.zeros(mesh.n_vertices)
    for k in range(3):
        np.add.at(out, mesh.triangles[:, k], local[k])
    return out


def lp_norm(mesh: Mesh, u: np.ndarray, p: float, degree: int = 5) -> float:
    """L^p norm of the P1 interpolant of u via quadrature."""
    if not 0 < p < math.inf:
        raise ConfigError(f"p must be finite and positive, got {p}")
    u = _check_field(mesh, u)
    rule = triangle_rule(degree)
    local = triangle_integrals(mesh, rule.weights[None],
                               lambda s: _power(np.abs(point_values(mesh, u, rule, s)), p))
    return float(local.sum()) ** (1.0 / p)


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
