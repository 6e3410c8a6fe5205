import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from laneemden import diagnostics, sparse
from laneemden.assembly import (
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    inner,
    load_vector,
    restrict_interior,
)
from laneemden.errors import DimensionError, NumericsError
from laneemden.mesh import build_unit_square, mesh_from_tokens, refine_uniform
from laneemden.minimizer import MinimizerConfig, solve_extremal
from laneemden.study import run_study
from laneemden.sparse import (
    CgFailure,
    cg_solve,
    factor,
    smallest_eig_constrained,
    solver,
)


def test_operator_finalization(reference_triangle):
    # the right-angle legs are orthogonal: an exact zero coupling in K[1, 2]
    K = assemble_stiffness(reference_triangle)
    assert np.array_equal(
        K.toarray(), [[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]]
    )
    assert K.nnz == 7 and np.all(K.data != 0.0)  # no stored zeros
    for r in range(K.shape[0]):
        cols_r = K.indices[K.indptr[r]:K.indptr[r + 1]]
        assert np.all(np.diff(cols_r) > 0)  # sorted, duplicates summed


def test_operator_must_be_square():
    A = sp.csr_matrix(np.ones((2, 3)))
    with pytest.raises(DimensionError, match="square"):
        cg_solve(A, np.ones(2))
    with pytest.raises(DimensionError, match="square"):
        smallest_eig_constrained(A, A, np.ones(2))


def test_cg_identity_solves_in_one_iteration():
    A = sp.csr_matrix(np.eye(4))
    b = np.array([1.0, -2.0, 3.0, 0.5])
    x, report = cg_solve(A, b, tol=1e-12)
    assert x == pytest.approx(b, abs=1e-12)
    assert report.iterations == 1
    assert report.converged


def test_cg_level1_restricted_stiffness():
    m = build_unit_square(1)
    K_int = restrict_interior(assemble_stiffness(m), m)
    x, report = cg_solve(K_int, np.array([1.0]), tol=1e-12)
    assert x == pytest.approx([0.25], abs=1e-14)
    assert report.converged


def test_cg_zero_rhs():
    A = sp.csr_matrix(np.diag([2.0, 3.0]))
    x, report = cg_solve(A, np.zeros(2))
    assert np.array_equal(x, np.zeros(2))
    assert report.converged and report.iterations == 0


def test_cg_poisson_center_fourier_oracle():
    # -Laplace u = 1 on the unit square; u(1/2,1/2) from the Fourier series
    # 16/pi^4 sum_{odd m,n} sin(m pi/2) sin(n pi/2) / (m n (m^2+n^2)).
    total = 0.0
    for mm in range(1, 400, 2):
        for nn in range(1, 400, 2):
            total += (
                np.sin(mm * np.pi / 2) * np.sin(nn * np.pi / 2)
                / (mm * nn * (mm ** 2 + nn ** 2))
            )
    oracle = 16.0 / np.pi ** 4 * total
    assert oracle == pytest.approx(0.0736714, abs=1e-6)

    mesh = build_unit_square(6)
    K_int = restrict_interior(assemble_stiffness(mesh), mesh)
    b = load_vector(mesh, lambda x, y: np.ones_like(x), degree=8)
    x, _ = cg_solve(K_int, b[mesh.interior], tol=1e-12)
    center = np.flatnonzero(
        (mesh.vertices[mesh.interior, 0] == 0.5)
        & (mesh.vertices[mesh.interior, 1] == 0.5)
    )
    assert center.size == 1
    assert x[center[0]] == pytest.approx(oracle, abs=5e-5)


def test_cg_residuals_monotone():
    mesh = build_unit_square(5)
    K_int = restrict_interior(assemble_stiffness(mesh), mesh)
    b = np.random.default_rng(2).standard_normal(K_int.shape[0])
    history = []
    cg_solve(K_int, b, tol=1e-12, callback=history.append)
    diffs = np.diff(history)
    assert diffs.max() <= 1e-14 * max(history)


def test_cg_permutation_invariance():
    mesh = build_unit_square(4)
    K_int = restrict_interior(assemble_stiffness(mesh), mesh)
    n = K_int.shape[0]
    rng = np.random.default_rng(9)
    b = rng.standard_normal(n)
    perm = rng.permutation(n)
    P = sp.csr_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, n))
    A_perm = P @ K_int @ P.T
    tol = 1e-10
    x, _ = cg_solve(K_int, b, tol=tol)
    y, _ = cg_solve(A_perm, P @ b, tol=tol)
    back = P.T @ y
    assert np.linalg.norm(back - x) <= 10 * tol * np.linalg.norm(x)


def test_cg_failure_carries_report_and_iterate():
    mesh = build_unit_square(5)
    K_int = restrict_interior(assemble_stiffness(mesh), mesh)
    b = np.random.default_rng(0).standard_normal(K_int.shape[0])
    with pytest.raises(CgFailure) as err:
        cg_solve(K_int, b, tol=1e-14, max_iter=3)
    assert err.value.report.iterations == 3
    assert not err.value.report.converged
    assert err.value.x.shape == b.shape


def test_cg_rejects_indefinite():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(NumericsError):
        cg_solve(A, np.array([1.0, 1.0]))


def test_cg_dimension_mismatch():
    A = sp.csr_matrix(np.eye(3))
    with pytest.raises(DimensionError):
        cg_solve(A, np.ones(4))


def test_factor_matches_dense_solve():
    mesh = build_unit_square(3)
    K_int = restrict_interior(assemble_stiffness(mesh), mesh)
    indefinite = _quartic_gap_operators(3, weight=2.0)[0]  # K - 3 (2 W)
    for A in (K_int, indefinite):
        b = np.random.default_rng(5).standard_normal(A.shape[0])
        lu = factor(A)
        oracle = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(lu.solve(b) - oracle) <= 1e-12 * np.linalg.norm(oracle)
        # diagonal pivots only, so U's diagonal holds the pivots of L D L'
        assert np.array_equal(lu.perm_r, lu.perm_c)


def test_factor_singular_raises():
    with pytest.raises(NumericsError, match="singular"):
        factor(sp.csr_matrix(np.diag([0.0, 1.0, 2.0])))


def test_factor_does_not_copy_the_matrix():
    # SuperLU gets the CSC transpose, which shares the symmetric CSR matrix's arrays
    mesh = build_unit_square(7)
    K_int = mesh.interior_stiffness
    factor(K_int)  # imports scipy.sparse.linalg before tracing
    tracemalloc.start()
    try:
        factor(K_int)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * (K_int.data.nbytes + K_int.indices.nbytes + K_int.indptr.nbytes)


def _counting_factor(monkeypatch):
    """The list of the orders of the matrices sparse.factor is called on."""
    orders = []
    real = sparse.factor

    def counting(A):
        orders.append(A.shape[0])
        return real(A)

    monkeypatch.setattr(sparse, "factor", counting)
    return orders


@pytest.mark.parametrize("level", [1, 3, 7])
def test_solver_sine_transform_matches_factor(monkeypatch, level):
    K = build_unit_square(level).interior_stiffness
    b = np.random.default_rng(level).standard_normal(K.shape[0])
    oracle = factor(K).solve(b)
    orders = _counting_factor(monkeypatch)
    x = solver(K)(b)
    assert orders == []  # the square's 5-point matrix takes the sine transform
    assert x.shape == b.shape
    assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)


def _fall_through_operators(hexagon_text):
    """SPD matrices that are not the 5-point matrix of a grid, by name: the
    refined hexagon, and the L3 square with one defect each."""
    K = build_unit_square(3).interior_stiffness
    perm = np.random.default_rng(3).permutation(K.shape[0])
    permuted = sp.csr_matrix(K[perm][:, perm])
    nudged = {}  # one entry of each of the five diagonals moved by one ulp
    for offset in (0, 1, -1, 7, -7):
        r, c = 8, 8 + offset  # grid point (1, 1) of the 7 x 7 grid and a neighbour
        nudged[offset] = K.copy()
        nudged[offset][r, c] = np.nextafter(K[r, c], 0.0)
    stored_zero = K.tolil()
    stored_zero[0, K.shape[0] - 1] = 1.0  # a corner pair that is not coupled
    stored_zero = sp.csr_matrix(stored_zero)
    stored_zero.data[stored_zero.data == 1.0] = 0.0  # kept as an explicit entry
    assert all((A != K).nnz == 1 for A in nudged.values()) and (permuted != K).nnz > 0
    assert stored_zero.nnz == K.nnz + 1 and (stored_zero != K).nnz == 0
    hexagon = refine_uniform(refine_uniform(mesh_from_tokens(hexagon_text(0.0).split())))
    return {"hexagon": hexagon.interior_stiffness, "permuted": permuted,
            **{f"nudged{k:+d}": A for k, A in nudged.items()}, "stored_zero": stored_zero,
            "non_square_order": sp.csr_matrix(sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1],
                                                       shape=(10, 10)))}


@pytest.mark.parametrize("name", ["hexagon", "permuted", "nudged+0", "nudged+1", "nudged-1",
                                  "nudged+7", "nudged-7", "stored_zero", "non_square_order"])
def test_solver_falls_back_to_factor(monkeypatch, hexagon_text, name):
    A = _fall_through_operators(hexagon_text)[name]
    b = np.random.default_rng(4).standard_normal(A.shape[0])
    orders = _counting_factor(monkeypatch)
    x = solver(A)(b)
    assert orders == [A.shape[0]]
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_eig_identity_pair():
    I3 = sp.csr_matrix(np.eye(3))
    e1 = np.array([1.0, 0.0, 0.0])
    assert smallest_eig_constrained(I3, I3, e1) == pytest.approx(1.0, abs=1e-6)


def test_eig_diagonal_example():
    A = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
    B = sp.csr_matrix(np.eye(3))
    e1 = np.array([1.0, 0.0, 0.0])
    assert smallest_eig_constrained(A, B, e1) == pytest.approx(2.0, rel=1e-5)


def test_eig_dirichlet_second_eigenvalue():
    # Deflating the discrete ground mode (eigsh oracle) leaves the second
    # Dirichlet eigenvalue of the unit square, 5 pi^2, within 2%.
    mesh = build_unit_square(5)
    K_int = restrict_interior(assemble_stiffness(mesh), mesh)
    M_int = restrict_interior(assemble_mass(mesh), mesh)
    vals, vecs = spla.eigsh(K_int, k=3, M=M_int, sigma=0.0)
    ground = vecs[:, 0]
    lam = smallest_eig_constrained(K_int, M_int, ground, tol=1e-8)
    # the second eigenvalue is nearly degenerate (split ~0.1 on this mesh);
    # inverse iteration may stop anywhere inside the split pair
    assert vals[1] - 1e-6 <= lam <= vals[2] + 1e-6
    assert lam == pytest.approx(5.0 * np.pi ** 2, rel=0.02)


def test_eig_constrained_bracket():
    # For any constraint the minimum lies between the two lowest
    # unconstrained generalized eigenvalues.
    rng = np.random.default_rng(4)
    Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    A = sp.csr_matrix(Q @ np.diag([1.0, 2.5, 4.0, 5.0, 7.0, 9.0]) @ Q.T)
    B = sp.csr_matrix(np.eye(6))
    for _ in range(5):
        c = rng.standard_normal(6)
        lam = smallest_eig_constrained(A, B, c, tol=1e-8)
        assert 1.0 - 1e-6 <= lam <= 2.5 + 1e-6


def test_eig_breakdown_reports_nonpositive():
    # A is negative definite on the constraint subspace: inner solves break
    # down and the gap comes back non-positive.
    A = sp.csr_matrix(np.diag([1.0, -2.0, -3.0]))
    B = sp.csr_matrix(np.eye(3))
    e1 = np.array([1.0, 0.0, 0.0])
    assert smallest_eig_constrained(A, B, e1) <= 0.0


def test_eig_rejects_trivial_dimension():
    A = sp.csr_matrix(np.array([[2.0]]))
    with pytest.raises(DimensionError):
        smallest_eig_constrained(A, A, np.array([1.0]))


def test_eig_rejects_degenerate_constraint():
    A = sp.csr_matrix(np.eye(3))
    with pytest.raises(NumericsError):
        smallest_eig_constrained(A, A, np.zeros(3))


def test_eig_indefinite_operator_definite_on_subspace():
    # the one negative direction of A is the constrained-out direction
    A = sp.csr_matrix(np.diag([-1.0, 2.0, 3.0]))
    B = sp.csr_matrix(np.eye(3))
    e1 = np.array([1.0, 0.0, 0.0])
    assert smallest_eig_constrained(A, B, e1) == pytest.approx(2.0, rel=1e-5)


@pytest.mark.parametrize("A, B, want", [
    # A is singular on the constrained-out direction only: minimum 1
    (np.diag([0.0, 1.0, 2.0]), np.eye(3), 1.0),
    # ... and on the subspace: minimum 0
    (np.diag([1.0, 0.0, 2.0]), np.eye(3), 0.0),
    # A and B are SPD, but A^-1 c is B-orthogonal to c; the subspace is
    # one-dimensional, with quotient 2/3
    (np.array([[4.0, 1.0], [1.0, 0.5]]), np.array([[1.0, 0.5], [0.5, 1.0]]), 2.0 / 3.0),
], ids=["A0-B0", "A1-B1", "A2-B2"])
def test_eig_singular_operator_raises(A, B, want):
    # A singular operator is no failure of the method, which never solves
    # with A: the gap is the constrained minimum (the name is the old
    # contract's, when these raised NumericsError).
    c = np.eye(A.shape[0])[0]
    A, B = sp.csr_matrix(A), sp.csr_matrix(B)
    assert _dense_constrained_min(A, B, c) == pytest.approx(want, abs=1e-12)
    assert smallest_eig_constrained(A, B, c) == pytest.approx(want, rel=1e-5, abs=1e-12)


def _gap_operators(m, p, weight=1.0):
    """A = K - weight (p-1) W, B = K and c = U on the interior of the mesh m."""
    sol = solve_extremal(m, MinimizerConfig(p=p))
    W = assemble_weighted_mass(m, sol.field, p - 2.0)
    K = m.interior_stiffness
    return K - weight * (p - 1.0) * restrict_interior(W, m), K, sol.field[m.interior]


def _quartic_gap_operators(level, weight=1.0):
    """The gap operators of the unit square at level, p = 4."""
    return _gap_operators(build_unit_square(level), 4.0, weight)


def _hexagon(hexagon_text, refinements):
    m = mesh_from_tokens(hexagon_text(0.3).split())
    for _ in range(refinements):
        m = refine_uniform(m)
    return m


def _dense_constrained_min(A, B, c):
    """Smallest eigenvalue of the pencil (A, B) on {x'Bc = 0}, densely."""
    Bd = B.toarray()
    Q = sla.null_space((Bd @ c)[None, :])
    return sla.eigh(Q.T @ A.toarray() @ Q, Q.T @ Bd @ Q, eigvals_only=True)[0]


class _Projected(spla.LinearOperator):
    """v -> project(A project(v)); diagonal() gives A's, for cg_solve's Jacobi scaling."""

    def __init__(self, A, project):
        super().__init__(np.float64, A.shape)
        self.A, self.project = A, project

    def _matvec(self, v):
        return self.project(self.A @ self.project(v))

    def diagonal(self):
        return self.A.diagonal()


def _krylov_inverse_iteration(A, B, c, tol=1e-6, max_iter=200):
    """The eigensolver as it was before the factorization: the same inverse
    iteration, each projected step solved by Jacobi conjugate residuals to
    1e-12 (at 1e-8, 200 steps at the p = 4 L5 gap drift by 2e-8 relative)."""
    n = A.shape[0]
    Bc = B @ c
    cBc = float(c @ Bc)

    def project(x):
        return x - (float(x @ Bc) / cBc) * c

    x = project(np.random.default_rng(0).standard_normal(n))
    x /= float(np.sqrt(x @ (B @ x)))
    lam = float(x @ (A @ x))
    for _ in range(max_iter):
        y, _ = cg_solve(_Projected(A, project), project(B @ x), tol=1e-12)
        y = project(y)
        x = y / float(np.sqrt(y @ (B @ y)))
        lam_new = float(x @ (A @ x)) / float(x @ (B @ x))
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new
        lam = lam_new
    return lam


def test_eig_indefinite_on_subspace_reports_nonpositive():
    # doubling the weight makes A indefinite on the constraint subspace;
    # inverse iteration alone would converge to an eigenvalue near 0 of
    # either sign, so the sign of the Lanczos tridiagonal's smallest
    # eigenvalue must flag it
    A, B, c = _quartic_gap_operators(3, weight=2.0)
    assert _dense_constrained_min(A, B, c) < -0.1
    assert smallest_eig_constrained(A, B, c) <= 0.0


def _late_indefinite_case():
    """A pencil that Lanczos finds indefinite on the subspace only after its
    first check (8 steps): its 1e-6 B-weight direction has quotient -1e-3."""
    n = 60
    b = np.r_[1e-6, np.ones(n - 1)]
    a = b * np.r_[-1e-3, 1.0 + np.linspace(0.0, 1.0, n - 2), 5.0]
    return sp.csr_matrix(np.diag(a)), sp.csr_matrix(np.diag(b)), np.eye(n)[-1]


@pytest.mark.parametrize("case, checks", [
    (lambda: (sp.csr_matrix(np.diag([1.0, -2.0, -3.0])), sp.csr_matrix(np.eye(3)),
              np.eye(3)[0]), 0),
    (_late_indefinite_case, 2),
], ids=["negative definite", "indefinite after a check"])
def test_eig_indefinite_returns_nonpositive_ritz_value(monkeypatch, case, checks):
    # The value is T's smallest eigenvalue theta_1 <= 0, whichever check (or
    # the end of Lanczos) finds it: a Ritz value, so at least the dense
    # constrained minimum.
    A, B, c = case()
    values = []
    real = sparse._inverse_iteration

    def spy(alpha, beta, tol):
        values.append(real(alpha, beta, tol))
        return values[-1]

    monkeypatch.setattr(sparse, "_inverse_iteration", spy)
    gap = smallest_eig_constrained(A, B, c)
    oracle = _dense_constrained_min(A, B, c)
    assert oracle < 0.0 and oracle * (1.0 + 1e-12) <= gap <= 0.0
    if checks:  # positive at the first check, not at the next
        assert len(values) == checks and values[0] > 0.0 and values[-1] == gap


def _row_op_inverse_iteration(alpha, beta, tol):
    """The emulated inverse iteration as first written, kept as the
    reference: T^-1 formed from T's LDL' pivots by row operations, then
    stepped from e1.  Returns the value and the number of steps taken."""
    m = len(alpha)
    pivots = [alpha[0]]
    for k in range(1, m):
        pivots.append(alpha[k] - beta[k - 1] ** 2 / pivots[-1])
    ell = np.divide(beta[:m - 1], pivots[:m - 1])  # L's subdiagonal
    inv = np.eye(m)
    for k in range(1, m):
        inv[k] -= ell[k - 1] * inv[k - 1]
    inv /= np.asarray(pivots)[:, None]
    for k in range(m - 2, -1, -1):
        inv[k] -= ell[k] * inv[k + 1]
    y = np.eye(m)[0]
    lam = alpha[0]
    for step in range(1, sparse.MAX_INVERSE_ITERATIONS + 1):
        z = np.einsum("ij,j->i", inv, y)
        zz = inner(z, z)
        lam_new = inner(z, y) / zz
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new, step
        lam = lam_new
        y = z / math.sqrt(zz)
    return lam, sparse.MAX_INVERSE_ITERATIONS


def _random_tridiagonal(m):
    """A diagonally dominant, so positive definite, tridiagonal of order m."""
    rng = np.random.default_rng(m)
    beta = rng.uniform(0.1, 1.0, m - 1)
    alpha = 0.1 + rng.random(m) + np.r_[0.0, beta] + np.r_[beta, 0.0]
    return alpha.tolist(), beta.tolist()


def _two_by_two(theta, w1):
    """The 2 x 2 tridiagonal with eigenvalues theta whose eigenvectors have
    squared first components w1 and 1 - w1."""
    (t1, t2), w2 = theta, 1.0 - w1
    return [w1 * t1 + w2 * t2, w2 * t1 + w1 * t2], [math.sqrt(w1 * w2) * (t2 - t1)]


TRIDIAGONALS = {
    **{f"random {m}": (lambda m=m: _random_tridiagonal(m), None) for m in (1, 2, 8, 24, 64)},
    # theta_2 / theta_1 of the p = 4 L5 gap: the iteration runs to its cap
    "ratio 1.0086": (lambda: _two_by_two((0.2219973, 0.2219973 * 1.0086), 0.5),
                     sparse.MAX_INVERSE_ITERATIONS),
    # a false plateau: the first step moves the quotient by about 1e-11
    "start weight 1e-12": (lambda: _two_by_two((0.2, 1.0), 1e-12), 1),
}


@pytest.mark.parametrize("name", list(TRIDIAGONALS))
def test_inverse_iteration_matches_row_operations(name):
    build, steps = TRIDIAGONALS[name]
    alpha, beta = build()
    want, taken = _row_op_inverse_iteration(alpha, beta, 1e-6)
    assert taken == steps if steps else taken < sparse.MAX_INVERSE_ITERATIONS
    assert sparse._inverse_iteration(alpha, beta, 1e-6) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_eig_one_factorization_and_no_krylov_solve(monkeypatch, hexagon_text):
    # The gap solves only with B: by sine transforms on the square, with
    # one factorization of B elsewhere.  A is never factored.
    factored, cg_calls = [], []
    real_splu, real_cg = spla.splu, sparse.cg_solve

    def counting_splu(M, *args, **kwargs):
        factored.append(M)
        return real_splu(M, *args, **kwargs)

    def counting_cg(*args, **kwargs):
        cg_calls.append(args)
        return real_cg(*args, **kwargs)

    square = _quartic_gap_operators(3)
    hexagon = _gap_operators(_hexagon(hexagon_text, 2), 4.0)
    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(sparse, "cg_solve", counting_cg)
    assert smallest_eig_constrained(*square) > 0.0
    assert factored == [] and cg_calls == []
    A, B, c = hexagon
    assert smallest_eig_constrained(A, B, c) > 0.0
    assert len(factored) == 1 and (factored[0] != B.T).nnz == 0 and cg_calls == []


def _assert_matches_krylov_inverse_iteration(A, B, c):
    gap = smallest_eig_constrained(A, B, c)
    assert gap == pytest.approx(_krylov_inverse_iteration(A, B, c), rel=1e-9)
    # a Rayleigh quotient on the subspace bounds its minimum from above
    assert gap >= _dense_constrained_min(A, B, c) - 1e-9


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_eig_matches_krylov_inverse_iteration(level):
    _assert_matches_krylov_inverse_iteration(*_quartic_gap_operators(level))


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_eig_matches_krylov_inverse_iteration_p11(level):
    _assert_matches_krylov_inverse_iteration(*_gap_operators(build_unit_square(level), 11.0))


@pytest.mark.parametrize("refinements", [1, 2, 3])
def test_eig_matches_krylov_inverse_iteration_on_hexagon(hexagon_text, refinements):
    _assert_matches_krylov_inverse_iteration(
        *_gap_operators(_hexagon(hexagon_text, refinements), 4.0))


def test_eig_lanczos_step_cap_raises(monkeypatch):
    # The L4 gap takes 24 Lanczos steps: an unconverged value is never returned.
    A, B, c = _quartic_gap_operators(4)
    monkeypatch.setattr(sparse, "MAX_LANCZOS_STEPS", 2)
    with pytest.raises(NumericsError, match="2 Lanczos steps"):
        smallest_eig_constrained(A, B, c)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_gap_rtol():
    spec = importlib.util.spec_from_file_location("gate", BENCH / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate.GAP_RTOL


def _spy_gap_operators(monkeypatch):
    """The list of the (A, B, c) that nondegeneracy_gap hands the eigensolver."""
    calls = []

    def spy(A, B, c):
        calls.append((A, B, c))
        return smallest_eig_constrained(A, B, c)

    monkeypatch.setattr(diagnostics, "smallest_eig_constrained", spy)
    return calls


def _study_l2_gap(monkeypatch, workload, p, config):
    """The operators of the L2 gap of run_study, as the workload takes it,
    and the workload's reference gap on that row."""
    calls = _spy_gap_operators(monkeypatch)
    rows = run_study(p, 2, config)
    reference = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
    want = next(r["gap"] for r in reference["rows"] if r["j"] == 2)
    assert len(calls) == 1 and calls[0][0].shape == (9, 9)
    assert smallest_eig_constrained(*calls[0]) == rows[1].gap
    return calls[0], want


def _hexagon_gap(monkeypatch, hexagon_text):
    calls = _spy_gap_operators(monkeypatch)
    mesh = _hexagon(hexagon_text, 1)
    diagnostics.nondegeneracy_gap(mesh, solve_extremal(mesh, MinimizerConfig(p=4.0)))
    assert len(calls) == 1 and calls[0][0].shape == (7, 7)
    return calls[0], None


def _diagonal_case(diagonal):
    n = len(diagonal)
    return (sp.csr_matrix(np.diag(diagonal)), sp.csr_matrix(np.eye(n)), np.eye(n)[0]), None


SMALL_GAP_CASES = {
    "study-p4 L2": lambda mp, hexagon_text: _study_l2_gap(
        mp, "study-p4", 4.0, MinimizerConfig(p=4.0)),
    "paper-p11 L2": lambda mp, hexagon_text: _study_l2_gap(
        mp, "paper-p11", 11.0, MinimizerConfig(p=11.0, iters_fixed=60)),
    "hexagon L1": _hexagon_gap,
    "diagonal": lambda mp, hexagon_text: _diagonal_case([1.0, 2.0, 3.0]),
    "indefinite, definite on subspace": lambda mp, hexagon_text: _diagonal_case([-1.0, 2.0, 3.0]),
    "indefinite on subspace": lambda mp, hexagon_text: (_quartic_gap_operators(2, weight=2.0), None),
    "breakdown": lambda mp, hexagon_text: _diagonal_case([1.0, -2.0, -3.0]),
}


@pytest.mark.parametrize("name", list(SMALL_GAP_CASES))
def test_eig_dense_branch_matches_factor(monkeypatch, hexagon_text, name):
    # The small gaps once took a dense eigendecomposition of A (the name is
    # from then).  On every case the Lanczos emulation gives the inverse
    # iteration's value and its decision: where the iteration's conjugate
    # residuals meet non-positive curvature, A is not positive definite on
    # the subspace, and the gap must not be positive.
    (A, B, c), reference = SMALL_GAP_CASES[name](monkeypatch, hexagon_text)
    gap = smallest_eig_constrained(A, B, c)
    try:
        krylov = _krylov_inverse_iteration(A, B, c)
    except NumericsError as e:
        assert "non-positive curvature" in str(e)
        assert gap <= 0.0
    else:
        assert gap > 0.0 and krylov > 0.0
        assert gap == pytest.approx(krylov, rel=1e-9, abs=0.0)
    if reference is not None:
        assert gap > 0.0 and abs(gap - reference) <= _bench_gap_rtol() * reference


def test_eig_non_finite_operator_named():
    A = sp.csr_matrix(np.diag([1.0, np.nan, 3.0]))
    B = sp.csr_matrix(np.eye(3))
    with pytest.raises(NumericsError, match=r"non-finite entry A\[1, 1\] = nan"):
        smallest_eig_constrained(A, B, np.eye(3)[0])
    with pytest.raises(NumericsError, match=r"non-finite entry B\[1, 1\] = nan"):
        smallest_eig_constrained(B, A, np.eye(3)[0])
    with pytest.raises(NumericsError, match=r"non-finite entry c\[2\] = inf"):
        smallest_eig_constrained(B, B, np.array([1.0, 0.0, np.inf]))


@pytest.mark.xfail(strict=True, reason="inverse iteration stops on a false plateau: "
                   "the quotient moves by less than tol on its first step")
def test_eig_does_not_stop_on_false_plateau():
    # The start vector's 0.2 mode has B-weight ~1e-6, so the first step moves
    # the quotient (about 1.0006) by less than tol = 1e-6 relative, and the
    # iteration stops there; 50 steps would reach 0.2.
    A = sp.csr_matrix(np.diag(np.r_[2e-7, 1.0 + np.linspace(0.0, 1e-3, 49)]))
    B = sp.csr_matrix(np.diag(np.r_[1e-6, np.ones(49)]))
    c = np.eye(50)[-1]
    oracle = _dense_constrained_min(A, B, c)
    assert oracle == pytest.approx(0.2)
    assert smallest_eig_constrained(A, B, c) == pytest.approx(oracle, rel=1e-6)
