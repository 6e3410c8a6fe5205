"""Nested triangulations of convex polygons.

The structured unit-square family splits each grid square along its
southwest-northeast diagonal; refinement keeps vertex ordering
lexicographic in (y, x) so consecutive levels nest bit-exactly.
General convex-polygon meshes are read from a text file and refined
uniformly (4-way congruent splitting by edge midpoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DimensionError, MeshError

MAX_LEVEL = 12
MIN_AREA = 1e-14


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with refinement genealogy.

    ``parent_vertex[i]`` is the coarse index of an inherited vertex
    (-1 for vertices created at this level); ``parent_edge[i]`` holds
    the two coarse endpoints of the edge whose midpoint vertex i is
    (-1, -1 for inherited vertices).  ``parent_nv`` is the vertex count
    of the parent mesh (0 for a root mesh).
    """

    level: int
    vertices: np.ndarray      # (nv, 2) float64
    triangles: np.ndarray     # (nt, 3) int64, counter-clockwise
    is_boundary: np.ndarray   # (nv,) bool
    parent_vertex: np.ndarray  # (nv,) int64
    parent_edge: np.ndarray    # (nv, 2) int64
    parent_nv: int
    h: float                  # longest edge length
    structured: bool = False  # True for the built-in unit-square family

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def interior(self) -> np.ndarray:
        """Indices of interior (non-boundary) vertices."""
        return np.flatnonzero(~self.is_boundary)

    @cached_property
    def geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-triangle areas (nt,) and P1 basis gradients (nt, 3, 2).

        Computed on first use and kept on the instance, so every assembly
        and quadrature call on this mesh shares one read-only copy.  The
        mesh is immutable, which is what makes the cache valid.  Raises
        MeshError on a degenerate triangle.
        """
        p = self.vertices
        t = self.triangles
        e1 = p[t[:, 1]] - p[t[:, 0]]
        e2 = p[t[:, 2]] - p[t[:, 0]]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        area = 0.5 * det
        if np.any(area < MIN_AREA):
            raise MeshError(f"degenerate triangle (min area {area.min():.3e})")
        grads = np.empty((t.shape[0], 3, 2))
        grads[:, 1, 0] = e2[:, 1] / det
        grads[:, 1, 1] = -e2[:, 0] / det
        grads[:, 2, 0] = -e1[:, 1] / det
        grads[:, 2, 1] = e1[:, 0] / det
        grads[:, 0] = -grads[:, 1] - grads[:, 2]
        area.flags.writeable = False
        grads.flags.writeable = False
        return area, grads

    @cached_property
    def corners(self) -> np.ndarray:
        """Vertex indices corner-major: the contiguous (3, nt) transpose of
        ``triangles``, read-only and cached like ``geometry``.

        Gathering nodal values through it gives (3, nt) arrays whose rows
        are contiguous, which is the layout of every quadrature kernel.
        """
        c = self.triangles.T.copy()
        c.flags.writeable = False
        return c

    @cached_property
    def stiffness(self):
        """Assembled P1 stiffness (scipy CSR, read-only arrays), cached like
        ``geometry`` so that the descent, errors and gap share one copy."""
        from .assembly import assemble_stiffness  # assembly imports this module

        K = assemble_stiffness(self)
        for a in (K.data, K.indices, K.indptr):
            a.flags.writeable = False
        return K


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Signed areas (positive for counter-clockwise triangles)."""
    p = mesh.vertices
    t = mesh.triangles
    e1 = p[t[:, 1]] - p[t[:, 0]]
    e2 = p[t[:, 2]] - p[t[:, 0]]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _longest_edge(vertices: np.ndarray, triangles: np.ndarray) -> float:
    d = vertices[triangles] - vertices[np.roll(triangles, -1, axis=1)]
    return float(np.sqrt((d * d).sum(axis=2).max()))


def build_unit_square(level: int) -> Mesh:
    """Structured right-triangle mesh of [0,1]^2 with 2^level x 2^level cells."""
    if not (0 <= level <= MAX_LEVEL):
        raise ConfigError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    n = 1 << level
    m = n + 1
    coords = np.arange(m, dtype=np.float64) / n  # dyadic, bit-exact
    xs, ys = np.meshgrid(coords, coords)         # lexicographic by (y, x)
    vertices = np.column_stack([xs.ravel(), ys.ravel()])

    ix, iy = np.meshgrid(np.arange(n), np.arange(n))
    a = (iy * m + ix).ravel()
    b = a + 1
    c = b + m
    d = a + m
    # SW->NE diagonal: triangles (a,b,c) and (a,c,d), both CCW
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([a, b, c])
    triangles[1::2] = np.column_stack([a, c, d])

    gx, gy = np.meshgrid(np.arange(m), np.arange(m))
    is_boundary = ((gx == 0) | (gx == n) | (gy == 0) | (gy == n)).ravel()

    nv = m * m
    return Mesh(
        level=level,
        vertices=vertices,
        triangles=triangles,
        is_boundary=is_boundary,
        parent_vertex=np.full(nv, -1, dtype=np.int64),
        parent_edge=np.full((nv, 2), -1, dtype=np.int64),
        parent_nv=0,
        h=np.sqrt(2.0) / n,
        structured=True,
    )


def _refine_structured(coarse: Mesh) -> Mesh:
    fine = build_unit_square(coarse.level + 1)
    n = 1 << fine.level
    m = n + 1
    mc = (n >> 1) + 1
    gx, gy = np.meshgrid(np.arange(m), np.arange(m))
    gx = gx.ravel()
    gy = gy.ravel()

    parent_vertex = np.full(fine.n_vertices, -1, dtype=np.int64)
    parent_edge = np.full((fine.n_vertices, 2), -1, dtype=np.int64)

    even = (gx % 2 == 0) & (gy % 2 == 0)
    parent_vertex[even] = (gy[even] // 2) * mc + gx[even] // 2

    def cidx(cx, cy):
        return cy * mc + cx

    hx = (gx % 2 == 1) & (gy % 2 == 0)  # on horizontal coarse edges
    parent_edge[hx, 0] = cidx((gx[hx] - 1) // 2, gy[hx] // 2)
    parent_edge[hx, 1] = cidx((gx[hx] + 1) // 2, gy[hx] // 2)

    vy = (gx % 2 == 0) & (gy % 2 == 1)  # vertical coarse edges
    parent_edge[vy, 0] = cidx(gx[vy] // 2, (gy[vy] - 1) // 2)
    parent_edge[vy, 1] = cidx(gx[vy] // 2, (gy[vy] + 1) // 2)

    dg = (gx % 2 == 1) & (gy % 2 == 1)  # SW-NE diagonal edges
    parent_edge[dg, 0] = cidx((gx[dg] - 1) // 2, (gy[dg] - 1) // 2)
    parent_edge[dg, 1] = cidx((gx[dg] + 1) // 2, (gy[dg] + 1) // 2)

    return Mesh(
        level=fine.level,
        vertices=fine.vertices,
        triangles=fine.triangles,
        is_boundary=fine.is_boundary,
        parent_vertex=parent_vertex,
        parent_edge=parent_edge,
        parent_nv=coarse.n_vertices,
        h=fine.h,
        structured=True,
    )


def _edges(triangles: np.ndarray, nv: int):
    """Edge table of a triangulation with nv vertices.

    Returns the unique edges (ne, 2), sorted by (low, high) endpoint; each
    triangle's edges 01, 12, 20 as indices into them (nt, 3); and the
    number of triangles on each edge (ne,).
    """
    ends = np.roll(triangles, -1, axis=1)  # second endpoints of 01, 12, 20
    keys = np.minimum(triangles, ends) * nv + np.maximum(triangles, ends)
    keys, tri_edges, counts = np.unique(keys.ravel(), return_inverse=True,
                                        return_counts=True)
    edges = np.column_stack([keys // nv, keys % nv])
    return edges, tri_edges.reshape(triangles.shape), counts


def refine_uniform(coarse: Mesh) -> Mesh:
    """Split every triangle into 4 congruent children by edge midpoints.

    Midpoint vertices follow the coarse vertices in sorted edge order.
    """
    if coarse.structured:
        return _refine_structured(coarse)

    nvc = coarse.n_vertices
    edges, tri_edges, counts = _edges(coarse.triangles, nvc)
    p = coarse.vertices
    # Halving first cannot overflow and, above the subnormals, gives the same bits.
    vertices = np.vstack([p, 0.5 * p[edges[:, 0]] + 0.5 * p[edges[:, 1]]])

    a, b, c = coarse.triangles.T
    mab, mbc, mca = (nvc + tri_edges).T
    children = np.column_stack([
        a, mab, mca,
        mab, b, mbc,
        mca, mbc, c,
        mab, mbc, mca,
    ]).reshape(-1, 3)

    return Mesh(
        level=coarse.level + 1,
        vertices=vertices,
        triangles=children,
        is_boundary=np.concatenate([coarse.is_boundary, counts == 1]),
        parent_vertex=np.concatenate([
            np.arange(nvc, dtype=np.int64),
            np.full(len(edges), -1, dtype=np.int64),
        ]),
        parent_edge=np.vstack([np.full((nvc, 2), -1, dtype=np.int64), edges]),
        parent_nv=nvc,
        h=_longest_edge(vertices, children),
        structured=False,
    )


def prolongate(coarse_field: np.ndarray, fine: Mesh) -> np.ndarray:
    """Exact P1 interpolation of a coarse field onto its refinement."""
    coarse_field = np.asarray(coarse_field, dtype=np.float64)
    if fine.parent_nv == 0:
        raise DimensionError("fine mesh has no recorded parent")
    if coarse_field.shape != (fine.parent_nv,):
        raise DimensionError(
            f"expected coarse field of length {fine.parent_nv}, got {coarse_field.shape}"
        )
    out = np.empty(fine.n_vertices, dtype=np.float64)
    inherited = fine.parent_vertex >= 0
    out[inherited] = coarse_field[fine.parent_vertex[inherited]]
    mids = ~inherited
    out[mids] = 0.5 * (
        coarse_field[fine.parent_edge[mids, 0]] + coarse_field[fine.parent_edge[mids, 1]]
    )
    return out


def validate_mesh(mesh: Mesh) -> None:
    """Raise MeshError if any structural invariant fails."""
    if not np.all(np.isfinite(mesh.vertices)):
        raise MeshError("non-finite vertex coordinates")
    # Finite coordinates can still be too large to subtract or multiply.
    with np.errstate(over="ignore", invalid="ignore"):
        areas = triangle_areas(mesh)
    if not (np.isfinite(mesh.h) and np.all(np.isfinite(areas))):
        raise MeshError("edge lengths or triangle areas overflow")
    if np.any(areas <= 0):
        raise MeshError("non-positive triangle area")
    del areas  # before the edge table, where this function peaks in memory

    edges, _, counts = _edges(mesh.triangles, mesh.n_vertices)
    on_boundary = mesh.is_boundary[edges].all(axis=1)
    bad = np.flatnonzero((counts != 2) & ~((counts == 1) & on_boundary))
    if bad.size:
        (a, b), cnt = edges[bad[0]], counts[bad[0]]
        raise MeshError(f"edge ({a},{b}) shared by {cnt} triangles")

    euler = mesh.n_vertices - edges.shape[0] + (mesh.n_triangles + 1)
    if euler != 2:
        raise MeshError(f"Euler characteristic {euler} != 2")


def write_mesh(mesh: Mesh, path) -> None:
    """Write the line-oriented mesh text format (round-trips bit-exactly)."""
    with open(path, "w") as f:
        f.write(f"{mesh.n_vertices} {mesh.n_triangles}\n")
        for (x, y), b in zip(mesh.vertices.tolist(), mesh.is_boundary.tolist()):
            f.write(f"{x!r} {y!r} {int(b)}\n")
        for i, j, k in mesh.triangles.tolist():
            f.write(f"{i} {j} {k}\n")


def mesh_from_tokens(tokens: list[str], where: str = "<mesh>") -> Mesh:
    """Build a root mesh from the whitespace-split text format tokens."""
    if len(tokens) < 2:
        raise MeshError(f"{where}: truncated mesh data")
    try:
        nv, nt = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise MeshError(f"{where}: bad header {' '.join(tokens[:2])!r}") from None
    if nv < 3 or nt < 1:
        raise MeshError(f"{where}: header needs nv >= 3 and nt >= 1, got {nv} {nt}")
    need = 2 + 3 * nv + 3 * nt
    if len(tokens) < need:
        raise MeshError(f"{where}: expected {need} tokens, got {len(tokens)}")
    body = tokens[2:need]
    try:
        vdata = np.array(body[: 3 * nv], dtype=np.float64).reshape(nv, 3)
        tdata = np.array(body[3 * nv:], dtype=np.int64).reshape(nt, 3)
    except (ValueError, OverflowError) as e:
        raise MeshError(f"{where}: malformed token ({e})") from None
    if tdata.min() < 0 or tdata.max() >= nv:
        raise MeshError(f"{where}: triangle vertex index outside [0, {nv})")
    vertices = vdata[:, :2].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        h = _longest_edge(vertices, tdata)  # validate_mesh rejects inf and NaN
    mesh = Mesh(
        level=0,
        vertices=vertices,
        triangles=tdata,
        is_boundary=vdata[:, 2] != 0.0,
        parent_vertex=np.full(nv, -1, dtype=np.int64),
        parent_edge=np.full((nv, 2), -1, dtype=np.int64),
        parent_nv=0,
        h=h,
        structured=False,
    )
    validate_mesh(mesh)
    return mesh


def read_tokens(path) -> list[str]:
    """Whitespace-split tokens of a UTF-8 text file; MeshError if it is not one."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().split()
    except UnicodeDecodeError as e:
        raise MeshError(f"{path}: not UTF-8 text (byte {e.start})") from None


def read_mesh(path) -> Mesh:
    """Read the mesh text format; genealogy fields are empty (root mesh)."""
    return mesh_from_tokens(read_tokens(path), where=str(path))
