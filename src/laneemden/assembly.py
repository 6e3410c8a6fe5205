"""P1 matrix/vector assembly with symmetric triangle quadrature.

Every kernel works corner-major: nodal values are gathered through the
transpose of ``Mesh.triangles`` into (3, b) arrays, quadrature-point values
are (nq, b), load blocks (3, nt) and matrix blocks one (b,) row per corner
pair.  A load is summed into its vertices one corner at a time.  A matrix
is summed on the edge table (``_scatter``; the table is built for each
matrix and kept by none): its off-diagonal entries into one entry per
edge, a block at a time, and its diagonal into the vertices one corner
pair at a time; then only its nonzeros, or the nonzeros of its interior
rows and columns, are laid out.  Accumulation follows the fixed corner
order, so results are deterministic.

The quadrature kernels stream the triangles in the mesh's blocks
(``mesh.triangle_blocks``, of ``TRIANGLE_BLOCK`` triangles): a block's
nodal values are gathered, evaluated at the points and reduced to its
per-triangle integrals before the next block is gathered, so no (nq, nt)
array is ever whole.  Every column is computed by the same operations as
on the whole mesh.  The loads and the norm share one loop,
``triangle_integrals``, and supply only their integrand and their reduction
(``_corner_sum`` for a load, a sum for the norm); the weighted mass reduces
each block the same way inside the loop of ``_scatter``.

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


def _scatter(mesh: Mesh, entries, interior: bool = False) -> sp.csr_matrix:
    """Sum symmetric per-triangle blocks into a CSR matrix on the edge table.

    ``entries(s)`` returns the rows (b,) of the corner pairs of ``_UPPER`` in
    order for the triangles of one ``triangle_blocks`` slice s, row k the
    entries (corner i, corner j) for (i, j) = ``_UPPER[k]``; it serves
    (j, i) as well.  The edge table and the triangles' indices into it are
    built here and kept by none.  A block's three off-diagonal rows are
    added into one (ne,) array of edge entries by ``np.add.at`` through the
    block's edges, and its three diagonal rows are kept whole as (3, nt) and
    summed into the vertices by ``_corner_sum``.  Only the kept entries are
    then laid out: exact zeros are dropped (the stiffness couplings across
    right-triangle hypotenuses; the stored pattern fixes the factorization's
    ordering) and, when ``interior``, so are the boundary rows and columns,
    the interior vertices being numbered in order.  Row r holds (r, lo) for
    the edges with hi == r, then (r, r), then (r, hi) for the edges with
    lo == r: sorted, since the edge table is sorted by (lo, hi).

    The sums are bit for bit those of one corner pair at a time over the
    whole mesh.  A vertex sums pair-major, then in triangle order, as such
    a pass does; that is why the diagonal rows are kept whole.  An edge
    entry sums at most two terms, since ``validate_mesh`` allows no more
    triangles per edge, and no block order changes such a sum:
    0.0 + a = a and a + b = b + a.
    """
    nv, nt = mesh.n_vertices, mesh.n_triangles
    edges = _edges(mesh.triangles, nv)[0]
    tri_edges = _triangle_edges(mesh.triangles, edges, nv)
    off = np.zeros(edges.shape[0])
    diag = np.empty((3, nt))
    for s in triangle_blocks(nt):
        local = entries(s)
        # rows 0, 3, 5 hold the pairs (i, i); rows 1, 4, 2 the sides 01, 12, 20
        for c, (d, k) in enumerate(((0, 1), (3, 4), (5, 2))):
            diag[c, s] = local[d]
            np.add.at(off, tri_edges[s, c], local[k])
        del local  # before the next block's rows are formed
    del tri_edges
    diag = _corner_sum(mesh, diag)
    keep = off != 0.0
    lo, hi = edges.T
    del edges
    if interior:
        inside = ~mesh.is_boundary
        keep &= inside[lo]
        keep &= inside[hi]
        # Vertex v becomes its interior index, the number of interior
        # vertices before it.
        number = np.cumsum(inside, dtype=np.int32) - 1
        lo, hi, diag = number[lo], number[hi], diag[inside]
    lo, hi = lo[keep], hi[keep]
    off = off[keep]
    del keep
    has = diag != 0.0
    n = diag.size
    # Row r holds counts[r] entries: left of the diagonal, on it, right of it.
    counts = np.empty((n, 3), dtype=np.int32)
    counts[:, 0] = np.bincount(hi, minlength=n)
    counts[:, 1] = has
    counts[:, 2] = np.bincount(lo, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts.sum(axis=1), out=indptr[1:])
    # The part (0, 1 or 2) of its row that each stored entry is in.
    part = np.repeat(np.tile(np.arange(3, dtype=np.int8), n), counts.ravel())
    del counts
    data = np.empty(part.size)
    indices = np.empty(part.size, dtype=np.int32)
    data[part == 1] = diag[has]
    indices[part == 1] = np.flatnonzero(has)
    del diag, has
    # Taken row by row, the right parts list the edges in their (lo, hi)
    # order, and the left parts list them in their stable order by hi.
    data[part == 2] = off
    indices[part == 2] = hi
    order = np.argsort(hi, kind="stable")
    del hi
    data[part == 0] = off[order]
    indices[part == 0] = lo[order]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble_stiffness(mesh: Mesh, *, interior: bool = False) -> sp.csr_matrix:
    """Galerkin matrix of the Dirichlet form: K_ij = sum_T area grad(phi_i).grad(phi_j).

    The closed-form entries are formed from the basis gradients of one
    block of triangles at a time, which are not kept, and summed on the
    edge table.  With ``interior`` the matrix holds only the interior rows
    and columns (homogeneous Dirichlet), bit for bit
    ``restrict_interior(assemble_stiffness(mesh), mesh)``.
    """
    area = mesh.areas

    def entries(s):
        gx, gy = basis_gradients(mesh, s)
        return [(gx[i] * gx[j] + gy[i] * gy[j]) * area[s] for i, j in _UPPER]

    return _scatter(mesh, entries, interior)


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Consistent mass matrix; local block (area/12) [[2,1,1],[1,2,1],[1,1,2]]."""
    area = mesh.areas
    return _scatter(mesh, lambda s: [(2.0 if i == j else 1.0) / 12.0 * area[s]
                                     for i, j in _UPPER])


def assemble_weighted_mass(
    mesh: Mesh, w: np.ndarray, exponent: float, degree: int = 5, *, interior: bool = False
) -> sp.csr_matrix:
    """Matrix of int |w|^exponent phi_i phi_j with w its P1 interpolant;
    with ``interior``, its interior rows and columns alone, as for
    ``assemble_stiffness``."""
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
    area = mesh.areas
    # 0**0 == 1, so exponent 0 gives the mass matrix; each block is reduced
    # as ``triangle_integrals`` reduces it
    return _scatter(mesh, lambda s: table @ _power(np.abs(point_values(mesh, w, rule, s)),
                                                   exponent) * area[s], interior)


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
