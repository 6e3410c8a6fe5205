import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from laneemden import assembly
from laneemden.assembly import (
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    extend_zero,
    load_vector,
    lp_norm,
    nonlinear_load,
    restrict_interior,
    triangle_rule,
)
from laneemden.errors import ConfigError, DimensionError, MeshError
from laneemden import mesh as mesh_module
from laneemden.mesh import (
    Mesh,
    basis_gradients,
    build_unit_square,
    mesh_from_tokens,
    refine_uniform,
)


def test_local_stiffness_reference_triangle(reference_triangle):
    K = assemble_stiffness(reference_triangle).toarray()
    expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], dtype=float)
    assert np.abs(K - expected).max() <= 1e-14


def test_stiffness_kernel_contains_constants():
    m = build_unit_square(3)
    K = assemble_stiffness(m)
    assert np.abs(K @ np.full(m.n_vertices, 7.0)).max() <= 1e-13


def test_interior_row_sums_vanish():
    m = build_unit_square(2)
    K = assemble_stiffness(m).toarray()
    rowsums = K.sum(axis=1)
    assert np.abs(rowsums[m.interior]).max() <= 1e-13


def test_local_mass_reference_triangle(reference_triangle):
    M = assemble_mass(reference_triangle).toarray()
    expected = (np.ones((3, 3)) + np.eye(3)) / 24.0
    assert np.abs(M - expected).max() <= 1e-14


def test_mass_partition_of_unity():
    m = build_unit_square(3)
    M = assemble_mass(m)
    one = np.ones(m.n_vertices)
    assert float(one @ (M @ one)) == pytest.approx(1.0, abs=1e-12)


def test_mass_integrates_x_squared():
    m = build_unit_square(2)
    u = m.vertices[:, 0]
    M = assemble_mass(m)
    assert float(u @ (M @ u)) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_weighted_mass_unit_weight_is_mass():
    m = build_unit_square(2)
    M = assemble_mass(m).toarray()
    for exponent in (0.0, 1.0, 3.5):
        W = assemble_weighted_mass(m, np.ones(m.n_vertices), exponent).toarray()
        assert np.abs(W - M).max() <= 1e-12


def test_weighted_mass_zero_weight():
    m = build_unit_square(2)
    W = assemble_weighted_mass(m, np.zeros(m.n_vertices), 2.0).toarray()
    assert np.abs(W).max() == 0.0


def test_weighted_mass_symbolic_oracle(reference_triangle):
    # w interpolates x, exponent 2: the (0,0) entry is int x^2 (1-x-y)^2
    w = reference_triangle.vertices[:, 0].copy()
    W = assemble_weighted_mass(reference_triangle, w, 2.0).toarray()
    x, y = sympy.symbols("x y")
    exact = sympy.integrate(
        sympy.integrate(x ** 2 * (1 - x - y) ** 2, (y, 0, 1 - x)), (x, 0, 1)
    )
    assert exact == sympy.Rational(1, 180)
    assert W[0, 0] == pytest.approx(1.0 / 180.0, abs=1e-15)


def test_weighted_mass_negative_exponent_rejected(reference_triangle):
    with pytest.raises(ConfigError):
        assemble_weighted_mass(reference_triangle, np.ones(3), -1.0)


def test_nonlinear_load_zero_field():
    m = build_unit_square(2)
    assert np.abs(nonlinear_load(m, np.zeros(m.n_vertices), 4.0)).max() == 0.0


def test_nonlinear_load_odd_symmetry():
    m = build_unit_square(2)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(m.n_vertices)
    for p in (4.0, 11.0):
        F = nonlinear_load(m, u, p)
        assert np.array_equal(nonlinear_load(m, -u, p), -F)


def test_nonlinear_load_constant_reference_triangle(reference_triangle):
    F = nonlinear_load(reference_triangle, np.ones(3), 4.0)
    assert F == pytest.approx(np.full(3, 1.0 / 6.0), abs=1e-15)


def test_nonlinear_load_requires_p_above_two(reference_triangle):
    with pytest.raises(ConfigError):
        nonlinear_load(reference_triangle, np.ones(3), 2.0)


def test_restrict_level1_single_interior():
    m = build_unit_square(1)
    assert m.interior.size == 1
    K_int = restrict_interior(assemble_stiffness(m), m)
    assert K_int.shape == (1, 1)
    assert K_int.toarray()[0, 0] == pytest.approx(4.0, abs=1e-14)


def test_extend_zero_inverts_restrict():
    m = build_unit_square(2)
    u = np.zeros(m.n_vertices)
    u[m.interior] = np.arange(1, m.interior.size + 1, dtype=float)
    assert np.array_equal(extend_zero(restrict_interior(u, m), m), u)


def test_restrict_dimension_mismatch():
    m = build_unit_square(2)
    with pytest.raises(DimensionError):
        restrict_interior(np.zeros(5), m)
    with pytest.raises(DimensionError):
        extend_zero(np.zeros(3), m)


def test_matrices_symmetric():
    m = build_unit_square(3)
    u = np.abs(np.random.default_rng(1).standard_normal(m.n_vertices))
    for A in (assemble_stiffness(m), assemble_mass(m), assemble_weighted_mass(m, u, 2.0)):
        assert abs(A - A.T).max() <= 1e-14


def test_restricted_stiffness_positive_definite():
    m = build_unit_square(3)
    K_int = restrict_interior(assemble_stiffness(m), m)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.standard_normal(K_int.shape[0])
        assert float(x @ (K_int @ x)) > 0.0


def test_galerkin_consistency():
    # u'Kv equals the exact integral of grad u . grad v, summed by hand
    # from the piecewise-constant gradients of the P1 interpolants.
    m = build_unit_square(3)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(m.n_vertices)
    v = rng.standard_normal(m.n_vertices)
    K = assemble_stiffness(m)

    pts = m.vertices
    exact = 0.0
    for tri in m.triangles:
        a, b, c = pts[tri]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        gb = np.array([(c[1] - a[1]) / det, -(c[0] - a[0]) / det])
        gc = np.array([-(b[1] - a[1]) / det, (b[0] - a[0]) / det])
        ga = -gb - gc
        gu = u[tri[0]] * ga + u[tri[1]] * gb + u[tri[2]] * gc
        gv = v[tri[0]] * ga + v[tri[1]] * gb + v[tri[2]] * gc
        exact += 0.5 * det * float(gu @ gv)
    form = float(u @ (K @ v))
    assert abs(form - exact) <= 1e-13 * max(1.0, abs(exact))


@pytest.mark.parametrize("degree", range(1, 13))
def test_quadrature_exactness(degree):
    # int over the unit triangle of l0^a l1^b l2^c = 2A a! b! c! / (a+b+c+2)!
    rule = triangle_rule(degree)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(rule.weights > 0.0)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            c = degree - a - b
            exact = (
                2.0 * math.factorial(a) * math.factorial(b) * math.factorial(c)
                / math.factorial(a + b + c + 2)
            )
            approx = float(
                rule.weights
                @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b * rule.points[:, 2] ** c)
            )
            assert approx == pytest.approx(exact, abs=1e-15, rel=1e-13)


def test_quadrature_degree_range():
    with pytest.raises(ConfigError):
        triangle_rule(0)
    with pytest.raises(ConfigError):
        triangle_rule(21)


def test_degenerate_triangle_rejected():
    collapsed = Mesh(
        level=0,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        triangles=np.array([[0, 1, 2]], dtype=np.int64),
        is_boundary=np.array([True, True, True]),
        parents=np.full((3, 2), -1, dtype=np.int64),
    )
    with pytest.raises(MeshError):
        assemble_stiffness(collapsed)


def test_lp_norm_of_linear_field():
    # |x|_L2 on the unit square is 1/sqrt(3); integrand degree 2 is exact.
    m = build_unit_square(2)
    assert lp_norm(m, m.vertices[:, 0], 2.0) == pytest.approx(
        1.0 / math.sqrt(3.0), abs=1e-14
    )


def _hexagon(refinements: int) -> Mesh:
    """Regular hexagon fanned from its center, uniformly refined."""
    angles = np.arange(6) * (math.pi / 3) + 0.3
    lines = ["7 6", "0.0 0.0 0"]
    lines += [f"{math.cos(a)!r} {math.sin(a)!r} 1" for a in angles]
    lines += [f"0 {k} {k % 6 + 1}" for k in range(1, 7)]
    mesh = mesh_from_tokens(" ".join(lines).split())
    for _ in range(refinements):
        mesh = refine_uniform(mesh)
    return mesh


@pytest.mark.parametrize("kind", ["square", "hexagon"])
@pytest.mark.parametrize("degree", [2, 5, 9])
@pytest.mark.parametrize("p", [3.0, 4.0, 6.5, 11.0])
def test_load_dot_field_is_lp_norm_power(kind, degree, p):
    # P1 quadrature is linear in the nodal values, so u . F(u) = |u|_p^p
    # under the same rule; the descent takes its norm from this identity.
    m = build_unit_square(3) if kind == "square" else _hexagon(2)
    u = np.random.default_rng(7).standard_normal(m.n_vertices)
    total = float(u @ nonlinear_load(m, u, p, degree))
    assert total == pytest.approx(lp_norm(m, u, p, degree) ** p, rel=1e-13)


def test_geometry_cached_read_only():
    m = build_unit_square(2)
    area = m.areas
    assert m.areas is area
    with pytest.raises(ValueError):
        area[0] = 0.0


def test_stiffness_cached_read_only(hexagon_text):
    hexagon = mesh_from_tokens(hexagon_text(0.3).split())
    for _ in range(4):
        hexagon = refine_uniform(hexagon)
    for m in (build_unit_square(3), build_unit_square(7), hexagon):
        K = m.interior_stiffness
        assert m.interior_stiffness is K
        fresh = restrict_interior(assemble_stiffness(m), m)
        assert K.shape == fresh.shape == (m.interior.size,) * 2
        for name in ("indptr", "indices", "data"):
            got, want = getattr(K, name), getattr(fresh, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0] = 0


def test_blocked_stiffness_is_bit_identical_to_whole_mesh(monkeypatch, hexagon_text):
    # 384 triangles: blocks of 7 cut every corner pair's run of triangles
    m = mesh_from_tokens(hexagon_text(0.3).split())
    for _ in range(3):
        m = refine_uniform(m)
    whole = assemble_stiffness(m)
    monkeypatch.setattr(mesh_module, "TRIANGLE_BLOCK", 7)
    blocked = assemble_stiffness(m)
    for name in ("indptr", "indices", "data"):
        assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes()


# Triangle-major reference copies of the kernels: (nt, nq) point values and
# (nt, 3) or (nt, 3, 3) blocks, summed in triangle index order.

def _tm_point_values(mesh, u, rule):
    return u[mesh.triangles] @ rule.points.T


def _tm_vector(mesh, rule, fq):
    area = mesh.areas
    local = area[:, None] * ((rule.weights * fq) @ rule.points)
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.n_vertices)


def _tm_matrix(mesh, local):
    t = mesh.triangles
    n = mesh.n_vertices
    A = sp.coo_matrix((local.ravel(), (np.repeat(t, 3, axis=1).ravel(),
                                       np.tile(t, (1, 3)).ravel())), shape=(n, n)).tocsr()
    A.eliminate_zeros()
    return A


def _tm_load(mesh, u, p, degree):
    rule = triangle_rule(degree)
    uq = _tm_point_values(mesh, u, rule)
    return _tm_vector(mesh, rule, np.abs(uq) ** (p - 2.0) * uq)


def _tm_lp_norm(mesh, u, p, degree):
    rule = triangle_rule(degree)
    area = mesh.areas
    uq = _tm_point_values(mesh, u, rule)
    return float(area @ (np.abs(uq) ** p @ rule.weights)) ** (1.0 / p)


def _tm_weighted_mass(mesh, w, exponent, degree):
    rule = triangle_rule(degree)
    area = mesh.areas
    lam = rule.points
    fac = rule.weights * np.abs(_tm_point_values(mesh, w, rule)) ** exponent
    return _tm_matrix(mesh, area[:, None, None] * np.einsum("tq,qi,qj->tij", fac, lam, lam))


def _tm_stiffness(mesh):
    area, grads = mesh.areas, basis_gradients(mesh, slice(None)).transpose(2, 1, 0)
    return _tm_matrix(mesh, area[:, None, None] * np.einsum("tid,tjd->tij", grads, grads))


def _tm_load_vector(mesh, f, degree):
    rule = triangle_rule(degree)
    xq = np.einsum("qk,tkd->tqd", rule.points, mesh.vertices[mesh.triangles])
    return _tm_vector(mesh, rule, f(xq[..., 0], xq[..., 1]))


def _rel(got, want):
    if sp.issparse(want):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        got, want = got.toarray(), want.toarray()
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.fixture(params=["square", "hexagon"])
def kernel_mesh(request, hexagon_text):
    """The unit square at level 3, or the conftest hexagon refined twice."""
    if request.param == "square":
        return build_unit_square(3)
    return refine_uniform(refine_uniform(mesh_from_tokens(hexagon_text().split())))


@pytest.mark.parametrize("degree", [1, 2, 5, 9])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.5, 11.0])
def test_corner_major_kernels_match_triangle_major(kernel_mesh, degree, p):
    u = np.random.default_rng(11).standard_normal(kernel_mesh.n_vertices)
    assert _rel(nonlinear_load(kernel_mesh, u, p, degree),
                _tm_load(kernel_mesh, u, p, degree)) <= 1e-13
    assert lp_norm(kernel_mesh, u, p, degree) == pytest.approx(
        _tm_lp_norm(kernel_mesh, u, p, degree), rel=1e-13)
    assert _rel(assemble_weighted_mass(kernel_mesh, u, p - 2.0, degree),
                _tm_weighted_mass(kernel_mesh, u, p - 2.0, degree)) <= 1e-13


@pytest.mark.parametrize("degree", [1, 2, 5, 9])
def test_corner_major_load_vector_matches_triangle_major(kernel_mesh, degree):
    def f(x, y):
        return np.sin(3.0 * x) * np.cos(2.0 * y) + x * y

    assert _rel(load_vector(kernel_mesh, f, degree),
                _tm_load_vector(kernel_mesh, f, degree)) <= 1e-13


def test_closed_form_stiffness_matches_einsum(kernel_mesh):
    assert _rel(assemble_stiffness(kernel_mesh), _tm_stiffness(kernel_mesh)) <= 1e-13


def test_mass_matches_coo_oracle(kernel_mesh):
    area = kernel_mesh.areas
    block = (np.ones((3, 3)) + np.eye(3)) / 12.0
    assert _rel(assemble_mass(kernel_mesh),
                _tm_matrix(kernel_mesh, area[:, None, None] * block)) <= 1e-15


def test_stiffness_assembly_peak_memory():
    # Pattern (its edge table included), areas and the (6, nt) entries
    # included, the call peaks near 7.1 times the bytes of K; COO triples
    # and tocsr take about 18 times.
    m = refine_uniform(build_unit_square(6))
    tracemalloc.start()
    try:
        K = assemble_stiffness(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernels_reject_non_finite_exponents(bad):
    # An infinite exponent gave lp_norm 1.0 for a field of maximum 0.5 and an
    # empty weighted mass; a NaN one gave NaN vectors.
    m = build_unit_square(2)
    u = np.full(m.n_vertices, 0.5)
    with pytest.raises(ConfigError):
        lp_norm(m, u, bad)
    with pytest.raises(ConfigError):
        nonlinear_load(m, u, bad)
    with pytest.raises(ConfigError):
        assemble_weighted_mass(m, u, bad)


@pytest.fixture(params=[None, 1000], ids=["TRIANGLE_BLOCK", "block1000"])
def blocked_mesh(request, hexagon_text, monkeypatch):
    """The conftest hexagon refined 5 times (6144 triangles), which spans
    several blocks and ends in a partial one, at the module's block size
    and at 1000."""
    if request.param is not None:
        monkeypatch.setattr(mesh_module, "TRIANGLE_BLOCK", request.param)
    m = mesh_from_tokens(hexagon_text(0.3).split())
    for _ in range(5):
        m = refine_uniform(m)
    block = mesh_module.TRIANGLE_BLOCK
    assert m.n_triangles > block and m.n_triangles % block
    return m


@pytest.mark.parametrize("p", [3.0, 11.0])
def test_block_kernels_match_triangle_major(blocked_mesh, p):
    m = blocked_mesh
    u = np.random.default_rng(5).standard_normal(m.n_vertices)
    assert _rel(nonlinear_load(m, u, p), _tm_load(m, u, p, 5)) <= 1e-13
    assert lp_norm(m, u, p) == pytest.approx(_tm_lp_norm(m, u, p, 5), rel=1e-13)
    assert _rel(assemble_weighted_mass(m, u, p - 2.0),
                _tm_weighted_mass(m, u, p - 2.0, 5)) <= 1e-13

    def f(x, y):
        return np.sin(3.0 * x) * np.cos(2.0 * y) + x * y

    assert _rel(load_vector(m, f, 8), _tm_load_vector(m, f, 8)) <= 1e-13


def test_block_load_is_bit_identical_to_whole_mesh(blocked_mesh):
    # Each load against one whole-mesh pass reduced by a bincount over the
    # corner-major indices, the order the per-corner sums must keep.
    m = blocked_mesh
    corners = m.triangles.T

    def whole_mesh_load(rule, fq):
        local = (rule.points.T * rule.weights) @ fq
        local *= m.areas
        return np.bincount(corners.ravel(), weights=local.ravel(), minlength=m.n_vertices)

    u = np.random.default_rng(6).standard_normal(m.n_vertices)
    rule = triangle_rule(5)
    uq = rule.points @ u[corners]
    fq = assembly._power(np.abs(uq), 9.0) * uq
    assert np.array_equal(nonlinear_load(m, u, 11.0), whole_mesh_load(rule, fq))

    def f(x, y):
        return np.sin(3.0 * x) * np.cos(2.0 * y) + x * y

    rule = triangle_rule(8)
    x, y = (rule.points @ c[corners] for c in m.vertices.T)
    assert np.array_equal(load_vector(m, f, 8), whole_mesh_load(rule, f(x, y)))


def test_power_by_squaring_matches_pow():
    # |u| at the points; zeros, infinities and NaN pass through either way
    x = np.abs(np.random.default_rng(8).standard_normal((7, 500)))
    x[0, :3] = [0.0, np.inf, np.nan]
    for e in range(1, assembly.MAX_SQUARING_EXPONENT + 1):
        got, want = assembly._power(x.copy(), float(e)), x ** float(e)
        # each squaring doubles the relative error it is handed
        assert np.allclose(got, want, rtol=e * np.finfo(float).eps, atol=0.0, equal_nan=True)
    # other exponents keep libm's pow bit for bit, 0 ** 0 == 1 included
    for e in (0.0, 0.5, 2.5, 65.0, 9.000000000000002):
        assert assembly._power(x.copy(), e).tobytes() == (x ** e).tobytes()


def test_nonlinear_load_peak_memory():
    # The (3, nt) local array holds about 6 times the bytes of the load, and
    # the peak is 7.3 times them; a bincount's own copy of the local array
    # took it to 12.9, and the whole mesh's (7, nt) point values to 34.
    m = build_unit_square(8)
    u = np.random.default_rng(7).standard_normal(m.n_vertices)
    F = nonlinear_load(m, u, 11.0)   # the areas are cached here
    tracemalloc.start()
    try:
        nonlinear_load(m, u, 11.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * F.nbytes
