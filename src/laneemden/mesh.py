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
    p = vertices
    t = triangles
    h = 0.0
    for a, b in ((0, 1), (1, 2), (2, 0)):
        d = p[t[:, a]] - p[t[:, b]]
        h = max(h, float(np.sqrt((d * d).sum(axis=1).max())))
    return h


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


def refine_uniform(coarse: Mesh) -> Mesh:
    """Split every triangle into 4 congruent children by edge midpoints."""
    if coarse.structured:
        return _refine_structured(coarse)

    nvc = coarse.n_vertices
    tris = coarse.triangles
    edge_count: dict[tuple[int, int], int] = {}
    for tri in tris:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1

    edges = sorted(edge_count)  # deterministic midpoint ordering
    midpoint_index = {e: nvc + k for k, e in enumerate(edges)}

    edge_arr = np.asarray(edges, dtype=np.int64)
    mid_coords = 0.5 * (coarse.vertices[edge_arr[:, 0]] + coarse.vertices[edge_arr[:, 1]])
    vertices = np.vstack([coarse.vertices, mid_coords])

    is_boundary = np.concatenate([
        coarse.is_boundary,
        np.array([edge_count[e] == 1 for e in edges], dtype=bool),
    ])
    parent_vertex = np.concatenate([
        np.arange(nvc, dtype=np.int64),
        np.full(len(edges), -1, dtype=np.int64),
    ])
    parent_edge = np.vstack([
        np.full((nvc, 2), -1, dtype=np.int64),
        edge_arr,
    ])

    children = np.empty((4 * coarse.n_triangles, 3), dtype=np.int64)
    for i, tri in enumerate(tris):
        a, b, c = int(tri[0]), int(tri[1]), int(tri[2])
        mab = midpoint_index[(min(a, b), max(a, b))]
        mbc = midpoint_index[(min(b, c), max(b, c))]
        mca = midpoint_index[(min(c, a), max(c, a))]
        children[4 * i + 0] = (a, mab, mca)
        children[4 * i + 1] = (mab, b, mbc)
        children[4 * i + 2] = (mca, mbc, c)
        children[4 * i + 3] = (mab, mbc, mca)

    return Mesh(
        level=coarse.level + 1,
        vertices=vertices,
        triangles=children,
        is_boundary=is_boundary,
        parent_vertex=parent_vertex,
        parent_edge=parent_edge,
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
    areas = triangle_areas(mesh)
    if np.any(areas <= 0):
        raise MeshError("non-positive triangle area")
    if not np.all(np.isfinite(mesh.vertices)):
        raise MeshError("non-finite vertex coordinates")

    edge_count: dict[tuple[int, int], int] = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1
    for (a, b), cnt in edge_count.items():
        if cnt == 2:
            continue
        if cnt == 1 and mesh.is_boundary[a] and mesh.is_boundary[b]:
            continue
        raise MeshError(f"edge ({a},{b}) shared by {cnt} triangles")

    euler = mesh.n_vertices - len(edge_count) + (mesh.n_triangles + 1)
    if euler != 2:
        raise MeshError(f"Euler characteristic {euler} != 2")


def write_mesh(mesh: Mesh, path) -> None:
    """Write the line-oriented mesh text format (round-trips bit-exactly)."""
    with open(path, "w") as f:
        f.write(f"{mesh.n_vertices} {mesh.n_triangles}\n")
        for (x, y), b in zip(mesh.vertices, mesh.is_boundary):
            f.write(f"{float(x)!r} {float(y)!r} {int(b)}\n")
        for i, j, k in mesh.triangles:
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
    except ValueError as e:
        raise MeshError(f"{where}: malformed token ({e})") from None
    if tdata.min() < 0 or tdata.max() >= nv:
        raise MeshError(f"{where}: triangle vertex index outside [0, {nv})")
    mesh = Mesh(
        level=0,
        vertices=vdata[:, :2].copy(),
        triangles=tdata,
        is_boundary=vdata[:, 2] != 0.0,
        parent_vertex=np.full(nv, -1, dtype=np.int64),
        parent_edge=np.full((nv, 2), -1, dtype=np.int64),
        parent_nv=0,
        h=_longest_edge(vdata[:, :2], tdata),
        structured=False,
    )
    validate_mesh(mesh)
    return mesh


def read_mesh(path) -> Mesh:
    """Read the mesh text format; genealogy fields are empty (root mesh)."""
    with open(path) as f:
        tokens = f.read().split()
    return mesh_from_tokens(tokens, where=str(path))
