"""Nested triangulations of convex polygons.

``build_unit_square`` splits each grid square of the unit square along its
southwest-northeast diagonal and numbers the vertices lexicographically in
(y, x).  General convex-polygon meshes are read from a text file and keep
the file's numbering.  ``refine_uniform`` splits every triangle into 4
congruent children by edge midpoints and stores the fine mesh in one
canonical order: vertices sorted by (y, x), each triangle rotated to start at
its smallest vertex, triangles sorted by their first two corners.  Refining
``build_unit_square(j)`` therefore gives ``build_unit_square(j + 1)`` bit for
bit, and SuperLU's minimum-degree ordering starts from the same kind of
numbering on every domain.  Minimum degree is sensitive to that start: on a
hexagon refined 6 times, the numbering the edge table gives took about 20
times as long to factor.

The edge table is built one way, by ``_edges`` (the sorted unique edges and
their counts), and ``_triangle_edges`` indexes each triangle's edges into
it for refinement and the sparsity pattern.  Every pass over the triangles
streams them in blocks of ``triangle_blocks``.

A mesh caches only what every solve on it reads: ``interior``, ``areas``
and ``interior_stiffness`` (and the scalars ``h`` and ``parent_nv``).  The
kernels gather through ``triangles`` itself, and each assembled matrix
builds its sparsity pattern and drops it.
"""

from __future__ import annotations

import io
import math
import os
import stat
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DimensionError, MeshError

MAX_LEVEL = 12
MIN_AREA = 1e-14  # relative to the largest triangle area
# The text format is read in chunks of READ_CHUNK bytes and written in
# blocks of WRITE_ROWS rows, so that neither direction holds a token list or
# a text of the whole file: one Python str or int per number takes about
# 60 B, against 8 B in the arrays.  A 64 KiB chunk's tokens take at most
# about 0.7 MB (short integer tokens); reading was no slower than with 1 MiB
# chunks.
READ_CHUNK = 1 << 16
WRITE_ROWS = 1 << 14
# Every pass over the triangles (areas, edge lengths, basis gradients and the
# quadrature kernels) takes TRIANGLE_BLOCK of them at a time, so that its
# gathered temporaries stay small on any mesh; a block's results do not
# depend on its size.  On the unit square at L7-L9 the blocks took the
# p = 11 load's tracemalloc peak from 34 to 13 times the bytes of its output
# and its time from 4.8 to 2.4 ms at L7, 68 to 50 ms at L9; 2^10 to 2^13 do
# alike.
TRIANGLE_BLOCK = 4096
_SPACE = b" \t\n\r\v\f"  # ASCII whitespace, as bytes.split() knows it


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with refinement genealogy.

    Vertex i is the average of the two coarse vertices ``parents[i]``:
    (k, k) for a vertex inherited from coarse vertex k, (a, b) with a < b
    for the midpoint of coarse edge (a, b), and (-1, -1) on a root mesh.
    The stored arrays are made read-only, not copied, at construction: the
    cached properties below are valid only on an immutable mesh.  A
    refined mesh is in the canonical order of ``refine_uniform``; a root
    mesh read from a file keeps the file's numbering.
    """

    level: int
    vertices: np.ndarray      # (nv, 2) float64
    triangles: np.ndarray     # (nt, 3) int64, counter-clockwise
    is_boundary: np.ndarray   # (nv,) bool
    parents: np.ndarray       # (nv, 2) int64

    def __post_init__(self):
        for a in (self.vertices, self.triangles, self.is_boundary, self.parents):
            a.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def h(self) -> float:
        """Longest edge length, cached like ``areas``.  Overflowing
        coordinates give inf or NaN, which ``validate_mesh`` rejects."""
        return _longest_edge(self.vertices, self.triangles)

    @cached_property
    def parent_nv(self) -> int:
        """Vertex count of the parent mesh, the number of inherited
        vertices (0 for a root mesh); cached like ``areas``."""
        a, b = self.parents.T
        return int(np.count_nonzero((a == b) & (a >= 0)))

    @cached_property
    def interior(self) -> np.ndarray:
        """Indices of interior (non-boundary) vertices, read-only and cached
        like ``areas``."""
        idx = np.flatnonzero(~self.is_boundary)
        idx.flags.writeable = False
        return idx

    @cached_property
    def areas(self) -> np.ndarray:
        """Per-triangle areas (nt,), from ``triangle_areas``.

        Computed on first use and kept on the instance, read-only, so every
        assembly and quadrature call on this mesh shares one copy.  The mesh
        is immutable, which is what makes the cache valid.  Raises MeshError
        on a degenerate triangle: one whose area is not above MIN_AREA times
        the largest, so that the check reads the shape of the mesh and not
        the size of its domain.
        """
        area = triangle_areas(self)
        if not np.all(area > MIN_AREA * area.max()):  # a NaN fails too
            raise MeshError(f"degenerate triangle (min area {area.min():.3e}, "
                            f"max {area.max():.3e})")
        area.flags.writeable = False
        return area

    @cached_property
    def interior_stiffness(self):
        """The P1 stiffness on the interior vertices, K_int (scipy CSR,
        read-only arrays), cached like ``areas``: the one operator that the
        descent solves with (``sparse.solver``) and multiplies, the gap takes
        as B, and the errors, the Poisson check and ``rayleigh_quotient``
        read.  On ``build_unit_square(j)`` and its refinements it is bit for
        bit the 5-point matrix of the (2^j - 1)^2 interior grid.  It is
        summed on the full pattern, which is then compacted to the interior
        rows and columns in one pass; no full K is formed, and the pattern
        is dropped."""
        from .assembly import assemble_stiffness  # it imports this module

        K = assemble_stiffness(self, interior=True)
        for a in (K.data, K.indices, K.indptr):
            a.flags.writeable = False
        return K


def triangle_blocks(n_triangles: int):
    """Consecutive slices of TRIANGLE_BLOCK triangles, the last maybe short."""
    return (slice(start, start + TRIANGLE_BLOCK)
            for start in range(0, n_triangles, TRIANGLE_BLOCK))


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Signed areas (positive for counter-clockwise triangles), gathered
    TRIANGLE_BLOCK triangles at a time: only the (nt,) result is whole."""
    p = mesh.vertices
    areas = np.empty(mesh.n_triangles)
    for s in triangle_blocks(mesh.n_triangles):
        t = mesh.triangles[s]
        e1 = p[t[:, 1]] - p[t[:, 0]]
        e2 = p[t[:, 2]] - p[t[:, 0]]
        areas[s] = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    return areas


def basis_gradients(mesh: Mesh, block: slice) -> np.ndarray:
    """P1 basis gradients of the triangles of ``block``, corner-major:
    (2, 3, b), entry [d, k, t] the d-th component of the gradient of
    corner k's basis function on triangle t.  Callers form them a block
    at a time and keep none; each column takes the same operations on any
    block."""
    p = mesh.vertices
    t = mesh.triangles[block]
    e1 = p[t[:, 1]] - p[t[:, 0]]
    e2 = p[t[:, 2]] - p[t[:, 0]]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    g = np.empty((2, 3, t.shape[0]))
    g[0, 1] = e2[:, 1] / det
    g[1, 1] = -e2[:, 0] / det
    g[0, 2] = -e1[:, 1] / det
    g[1, 2] = e1[:, 0] / det
    g[:, 0] = -g[:, 1] - g[:, 2]
    return g


def _longest_edge(vertices: np.ndarray, triangles: np.ndarray) -> float:
    """Longest edge length, from corner-major (3, b) gathers of x and y over
    blocks of TRIANGLE_BLOCK triangles, squared and summed in place.

    The maximum of the blocks' maxima is the maximum of all squared lengths,
    so the bits are those of one whole-mesh pass, inf included when a length
    overflows, and ``np.maximum`` carries a NaN through.
    """
    x, y = vertices[:, 0], vertices[:, 1]
    longest = 0.0  # a square is never below it, and a NaN is never dropped
    for s in triangle_blocks(triangles.shape[0]):
        a = triangles[s].T
        b = np.roll(a, -1, axis=0)  # second endpoints of edges 01, 12, 20
        dx = x[a]
        dx -= x[b]
        dy = y[a]
        dy -= y[b]
        dx *= dx
        dy *= dy
        dx += dy
        longest = np.maximum(longest, dx.max())
    return float(np.sqrt(longest))


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

    return Mesh(
        level=level,
        vertices=vertices,
        triangles=triangles,
        is_boundary=is_boundary,
        parents=np.full((m * m, 2), -1, dtype=np.int64),
    )


def _edge_keys(triangles: np.ndarray, nv: int) -> np.ndarray:
    """Keys ``low * nv + high`` of the 3 nt half-edges 01, 12, 20 of each
    triangle, (3 nt,) int64 in triangle order, formed in place: the low ends
    in a new array, the high ends in the roll's buffer."""
    ends = np.roll(triangles, -1, axis=1)  # second endpoints of 01, 12, 20
    keys = np.minimum(triangles, ends)
    np.maximum(triangles, ends, out=ends)
    keys *= nv
    keys += ends
    return keys.ravel()


def _edges(triangles: np.ndarray, nv: int):
    """Edge table of a triangulation with nv vertices: the unique edges
    (ne, 2) int32, sorted by (low, high) endpoint, and the number of
    triangles on each edge (ne,).

    This is ``np.unique`` with ``return_counts`` on the half-edge keys, but
    the keys are sorted in place, with no argsort.  The sort is numpy's
    stable one: the default for int64 is a separate SIMD quicksort whose
    code pages, touched once, added about 0.3 MB to a mesh reader's
    resident set, for 0.3 ms saved on the hexagon refined 7 times.
    ``_triangle_edges`` gives each triangle's indices into the edges to the
    callers that need them; no caller keeps the table.
    """
    keys = _edge_keys(triangles, nv)
    keys.sort(kind="stable")
    first = np.empty(keys.size, dtype=bool)  # the keys that start a run
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    counts = np.diff(starts, append=keys.size)
    keys = keys[starts]
    del starts
    edges = np.empty((keys.size, 2), dtype=np.int32)
    edges[:, 0], edges[:, 1] = np.divmod(keys, nv)
    return edges, counts


def _triangle_edges(triangles: np.ndarray, edges: np.ndarray, nv: int) -> np.ndarray:
    """Each triangle's edges 01, 12, 20 as indices (nt, 3) int32 into the
    sorted ``edges`` of ``_edges``: a binary search of the half-edge keys
    in the edges' keys, TRIANGLE_BLOCK triangles at a time, so that no
    (3 nt,) key or index array is ever whole."""
    keys = edges[:, 0].astype(np.int64)
    keys *= nv
    keys += edges[:, 1]
    tri_edges = np.empty(triangles.shape, dtype=np.int32)
    for s in triangle_blocks(triangles.shape[0]):
        tri_edges[s] = np.searchsorted(keys, _edge_keys(triangles[s], nv)).reshape(-1, 3)
    return tri_edges


def refine_uniform(coarse: Mesh) -> Mesh:
    """Split every triangle into 4 congruent children by edge midpoints.

    The fine mesh is stored in canonical order: vertices sorted by (y, x),
    each triangle rotated to start at its smallest vertex, and triangles
    sorted by their first two corners.  On the unit square this is exactly
    ``build_unit_square(level + 1)``.

    The coordinates are formed in one unsorted array and gathered once; the
    flags and the genealogy are written straight to their sorted places.
    The children are built TRIANGLE_BLOCK coarse triangles at a time into
    one (3, nt) int32 array of rotated corners and one of sort keys, and
    gathered in sorted order a block at a time.  No whole-array temporary
    of the children exists, and the call peaks at 1.5 times the bytes of
    the mesh it returns from L9 to L10.
    """
    nvc, ntc = coarse.n_vertices, coarse.n_triangles
    edges, counts = _edges(coarse.triangles, nvc)
    tri_edges = _triangle_edges(coarse.triangles, edges, nvc)
    nv, nt = nvc + edges.shape[0], 4 * ntc
    p = coarse.vertices
    unsorted = np.empty((nv, 2))
    unsorted[:nvc] = p
    # Halving first cannot overflow and, above the subnormals, gives the same bits.
    np.multiply(p[edges[:, 0]], 0.5, out=unsorted[nvc:])
    unsorted[nvc:] += 0.5 * p[edges[:, 1]]
    order = np.lexsort((unsorted[:, 0], unsorted[:, 1]))
    new = np.empty(nv, dtype=np.int64)  # new[i]: the index of vertex i in (y, x) order
    new[order] = np.arange(nv)
    vertices = unsorted[order]
    del unsorted, order
    is_boundary = np.empty(nv, dtype=bool)
    is_boundary[new[:nvc]] = coarse.is_boundary
    is_boundary[new[nvc:]] = counts == 1
    parents = np.empty((nv, 2), dtype=np.int64)
    parents[new[:nvc]] = np.arange(nvc)[:, None]
    parents[new[nvc:]] = edges
    del edges, counts

    # Child k of coarse triangle t is child k * ntc + t, as if the four kinds
    # were concatenated: the stable sort below is the faster on their runs.
    corners = np.empty((3, 4, ntc), dtype=np.int32)
    keys = np.empty((4, ntc), dtype=np.int64)
    for s in triangle_blocks(ntc):
        a, b, c = new[coarse.triangles[s].T]
        mab, mbc, mca = new[nvc + tri_edges[s].T]
        # Corner k of the children (a, mab, mca), (mab, b, mbc), (mca, mbc, c)
        # and (mab, mbc, mca); the sort below fixes their order.
        t0 = np.stack([a, mab, mca, mab])
        t1 = np.stack([mab, b, mbc, mbc])
        t2 = np.stack([mca, mbc, c, mca])
        # Cyclic rotation to the smallest corner keeps every child counter-clockwise.
        first = np.minimum(np.minimum(t0, t1), t2)
        second = np.where(t0 == first, t1, np.where(t1 == first, t2, t0))
        corners[0, :, s] = first
        corners[1, :, s] = second
        corners[2, :, s] = t0 + t1 + t2 - first - second
        keys[:, s] = first * nv + second
    del new, tri_edges
    # The keys are distinct, so the order does not depend on the layout.
    tri_order = np.argsort(keys.reshape(nt), kind="stable")
    del keys
    corners = corners.reshape(3, nt)
    children = np.empty((nt, 3), dtype=np.int64)
    for s in triangle_blocks(nt):
        children[s] = corners[:, tri_order[s]].T

    return Mesh(
        level=coarse.level + 1,
        vertices=vertices,
        triangles=children,
        is_boundary=is_boundary,
        parents=parents,
    )


def prolongate(coarse_field: np.ndarray, fine: Mesh) -> np.ndarray:
    """Exact P1 interpolation of a coarse field onto its refinement.

    Fine vertex i gets ``0.5 * f[a] + 0.5 * f[b]`` for (a, b) =
    ``fine.parents[i]``, the formula of ``refine_uniform``'s midpoints, so
    prolonging a coarse coordinate gives the fine one bit for bit.  Halving
    first cannot overflow, and it gives the bits of ``f[k]`` on an inherited
    vertex and of ``0.5 * (f[a] + f[b])`` on a midpoint, unless an entry is
    subnormal: halving one can lose its last bit.
    """
    coarse_field = np.asarray(coarse_field, dtype=np.float64)
    if fine.parent_nv == 0:
        raise DimensionError("fine mesh has no recorded parent")
    if coarse_field.shape != (fine.parent_nv,):
        raise DimensionError(
            f"expected coarse field of length {fine.parent_nv}, got {coarse_field.shape}"
        )
    a, b = fine.parents.T
    return 0.5 * coarse_field[a] + 0.5 * coarse_field[b]


def validate_mesh(mesh: Mesh) -> None:
    """Raise MeshError if any structural invariant fails.

    The areas and the longest edge (``Mesh.h``) are gathered TRIANGLE_BLOCK
    triangles at a time, and every area is known before any is judged, so
    an overflow anywhere is reported before a non-positive area anywhere.
    The edges and their counts (``_edges``) are taken after the areas are
    dropped, with no per-triangle indices into them; they set the peak.
    """
    if not np.all(np.isfinite(mesh.vertices)):
        raise MeshError("non-finite vertex coordinates")
    # Finite coordinates can still be too large to subtract or multiply.
    with np.errstate(over="ignore", invalid="ignore"):
        areas = triangle_areas(mesh)
        h = mesh.h
    if not (np.isfinite(h) and np.all(np.isfinite(areas))):
        raise MeshError("edge lengths or triangle areas overflow")
    if np.any(areas <= 0):
        raise MeshError("non-positive triangle area")
    del areas  # before the edge counts, where this function peaks in memory

    edges, counts = _edges(mesh.triangles, mesh.n_vertices)
    on_boundary = mesh.is_boundary[edges].all(axis=1)
    bad = np.flatnonzero((counts != 2) & ~((counts == 1) & on_boundary))
    if bad.size:
        (a, b), cnt = edges[bad[0]], counts[bad[0]]
        raise MeshError(f"edge ({a},{b}) shared by {cnt} triangles")

    # Every vertex is in a triangle, and a boundary flag means a boundary edge.
    on_edge = np.zeros(mesh.n_vertices, dtype=bool)
    on_edge[edges] = True
    on_boundary_edge = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary_edge[edges[counts == 1]] = True
    for bad, what in ((~on_edge, "is in no triangle"),
                      (mesh.is_boundary & ~on_boundary_edge,
                       "is flagged boundary but on no boundary edge")):
        if bad.any():
            raise MeshError(f"vertex {np.flatnonzero(bad)[0]} {what}")

    euler = mesh.n_vertices - edges.shape[0] + (mesh.n_triangles + 1)
    if euler != 2:
        raise MeshError(f"Euler characteristic {euler} != 2")


def write_rows(f, row_format: str, *columns) -> None:
    """Write one ``row_format`` line per row of the columns, WRITE_ROWS rows
    at a time: each block is one ``%`` format over one tuple, since per-line
    formatting and writes cost several times the float ``repr`` calls
    themselves, and only a block's text is ever whole."""
    n, k = len(columns[0]), len(columns)
    for start in range(0, n, WRITE_ROWS):
        stop = min(start + WRITE_ROWS, n)
        rows = [None] * (k * (stop - start))
        for j, column in enumerate(columns):
            rows[j::k] = column[start:stop].tolist()
        f.write(row_format * (stop - start) % tuple(rows))


def dump_mesh(mesh: Mesh, f) -> None:
    """Write the line-oriented mesh text format to the text file f; it
    round-trips bit-exactly through ``read_mesh``."""
    f.write(f"{mesh.n_vertices} {mesh.n_triangles}\n")
    # %d prints a bool as 0 or 1
    write_rows(f, "%r %r %d\n", mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.is_boundary)
    write_rows(f, "%d %d %d\n", *mesh.triangles.T)


def write_mesh(mesh: Mesh, path) -> None:
    """Write the mesh text format (``dump_mesh``) to path."""
    with open(path, "w") as f:
        dump_mesh(mesh, f)


class TokenStream:
    """Whitespace-split tokens of the text format, consumed section by section.

    The tokens arrive in chunks, lists of str: a token list is one chunk,
    and ``read_tokens`` streams a file's.  ``bound`` is at least the number
    of tokens, so that a header's counts are checked against it before its
    sections are allocated; ``count`` is the number consumed so far.
    Leaving a ``with`` block on the stream reads the rest of it, unless an
    error other than MeshError is on its way: a malformed file is reported
    as such only once it is known to be UTF-8 text, as the whole-file
    reader did, and a file read to its end is closed.
    """

    def __init__(self, chunks, bound: int):
        self._chunks = iter(chunks)
        self._chunk: list[str] = []
        self._at = 0
        self.bound = bound
        self.count = 0

    def _parts(self, n: float):
        """Yield the next n tokens (fewer at the end) as pieces of the chunks."""
        while n > 0:
            while self._at == len(self._chunk):
                self._chunk, self._at = [], 0  # freed before the next is made
                self._chunk = next(self._chunks, None)
                if self._chunk is None:
                    self._chunk = []
                    return
            k = min(n, len(self._chunk) - self._at)
            yield self._chunk if k == len(self._chunk) else self._chunk[self._at:self._at + k]
            self._at += k
            self.count += k
            n -= k

    def take(self, n: int) -> list[str]:
        """The next n tokens, fewer at the end."""
        return [t for part in self._parts(n) for t in part]

    def fill(self, out: np.ndarray):
        """Convert the next ``out.size`` tokens into the contiguous array out,
        in order, and return the first conversion error (ValueError or
        OverflowError) or None.  Tokens after an error are only counted;
        at the end of the stream the rest of out is left unset."""
        flat = out.reshape(-1)
        done, error = 0, None
        for part in self._parts(flat.size):
            if error is None:
                try:
                    flat[done:done + len(part)] = part
                except (ValueError, OverflowError) as e:
                    error = e
            done += len(part)
            del part  # a chunk is freed before the next is made
        return error

    def drain(self) -> None:
        """Consume (and count) the rest of the stream."""
        deque(self._parts(math.inf), maxlen=0)  # holds no piece

    def __enter__(self) -> TokenStream:
        return self

    def __exit__(self, kind, value, traceback) -> None:
        if kind is None or issubclass(kind, MeshError):
            self.drain()


def _file_chunks(f, path):
    """Token lists of the binary file f, READ_CHUNK bytes at a time, each
    chunk cut after its last ASCII whitespace byte: such a byte is never
    part of a UTF-8 sequence, so the tokens are those of ``str.split()`` on
    the whole text."""
    with f:
        buf = bytearray()
        offset = 0  # file offset of buf[0]
        while True:
            block = f.read(READ_CHUNK)
            buf += block
            # buf held no whitespace before the block
            end = (max(buf.rfind(c, len(buf) - len(block)) for c in _SPACE) + 1
                   if block else len(buf))
            try:
                tokens = buf[:end].decode("utf-8").split()
            except UnicodeDecodeError as e:
                raise MeshError(f"{path}: not UTF-8 text (byte {offset + e.start})") from None
            yield tokens
            del tokens  # so that a chunk is freed before the next is made
            if not block:
                return
            del buf[:end]
            offset += end


def read_tokens(path) -> TokenStream:
    """Stream the whitespace-split tokens of a UTF-8 text file; MeshError when
    the stream reaches bytes that are not UTF-8.  No token list or text of
    the whole file is ever held."""
    f = open(path, "rb")
    if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):  # a pipe's size is known once read
        with f:
            f = io.BytesIO(f.read())
    size = f.seek(0, os.SEEK_END)
    f.seek(0)
    # A token takes at least one byte, and so does the space after it.
    return TokenStream(_file_chunks(f, path), size // 2 + 1)


def take_mesh(stream: TokenStream, where: str) -> Mesh:
    """Consume the text format's mesh sections from stream and return the
    root mesh they describe, not yet validated; MeshError if they are
    malformed.  Call it inside ``with stream``."""
    header = stream.take(2)
    if len(header) < 2:
        raise MeshError(f"{where}: truncated mesh data")
    try:
        nv, nt = int(header[0]), int(header[1])
    except ValueError:
        raise MeshError(f"{where}: bad header {' '.join(header)!r}") from None
    if nv < 3 or nt < 1:
        raise MeshError(f"{where}: header needs nv >= 3 and nt >= 1, got {nv} {nt}")
    need = 2 + 3 * nv + 3 * nt
    if need > stream.bound:  # more than the file can hold: allocate nothing
        stream.drain()
        raise MeshError(f"{where}: expected {need} tokens, got {stream.count}")
    vdata = np.empty((nv, 3))
    tdata = np.empty((nt, 3), dtype=np.int64)
    errors = [stream.fill(vdata), stream.fill(tdata)]
    if stream.count < need:
        raise MeshError(f"{where}: expected {need} tokens, got {stream.count}")
    error = errors[0] or errors[1]
    if error is not None:
        raise MeshError(f"{where}: malformed token ({error})")
    flags = vdata[:, 2]
    bad = np.flatnonzero((flags != 0.0) & (flags != 1.0))
    if bad.size:
        raise MeshError(f"{where}: vertex {bad[0]} has boundary flag {flags[bad[0]]:g}, "
                    f"not 0 or 1")
    if tdata.min() < 0 or tdata.max() >= nv:
        raise MeshError(f"{where}: triangle vertex index outside [0, {nv})")
    return Mesh(
        level=0,
        vertices=vdata[:, :2].copy(),
        triangles=tdata,
        is_boundary=flags == 1.0,
        parents=np.full((nv, 2), -1, dtype=np.int64),
    )


def mesh_from_tokens(tokens, where: str = "<mesh>") -> Mesh:
    """Build and validate a root mesh from the text format's tokens, a token
    list or a TokenStream; tokens after the mesh are read and ignored."""
    stream = TokenStream([tokens], len(tokens)) if isinstance(tokens, list) else tokens
    with stream:
        mesh = take_mesh(stream, where)
    validate_mesh(mesh)  # once the last chunk is freed
    return mesh


def read_mesh(path) -> Mesh:
    """Read the mesh text format; its genealogy is empty (a root mesh)."""
    return mesh_from_tokens(read_tokens(path), where=str(path))
