"""Solvers for the Dirichlet systems; operators are scipy CSR matrices built by assembly."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .assembly import inner
from .errors import DimensionError, NumericsError

MAX_INVERSE_ITERATIONS = 200  # step cap of the inverse iteration of smallest_eig_constrained
# Lanczos steps of smallest_eig_constrained at most.  The gaps on the unit
# square (p = 4 and 11, L2-L9) and on the refined hexagon take at most 24;
# a pencil whose B^-1 A spreads wider takes more: the L5 square's interior
# stiffness against its mass matrix takes 248.
MAX_LANCZOS_STEPS = 400


@dataclass
class CgReport:
    iterations: int
    relative_residual: float
    converged: bool


class CgFailure(NumericsError):
    """CG did not reach the target residual; carries the report and last iterate."""

    def __init__(self, report: CgReport, x: np.ndarray):
        super().__init__(
            f"CG stalled at relative residual {report.relative_residual:.3e} "
            f"after {report.iterations} iterations"
        )
        self.report = report
        self.x = x


def _order(A: sp.spmatrix) -> int:
    """Size n of a square n x n operator; DimensionError otherwise."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"operator must be square, got {A.shape}")
    return A.shape[0]


def cg_solve(
    A: sp.spmatrix,
    b: np.ndarray,
    tol: float = 1e-12,
    max_iter: Optional[int] = None,
    callback: Optional[Callable[[float], None]] = None,
):
    """Solve A x = b (A symmetric positive definite) to a relative residual.

    Jacobi-preconditioned conjugate residuals, the residual-minimizing
    member of the CG family: the residual norm is non-increasing (exactly,
    in the 2-norm, whenever the diagonal is constant, as on the unit-square
    meshes here); callback receives it before the first and after every
    step.  A is anything with shape, ``@`` and ``diagonal()``.  Returns
    (x, CgReport); raises CgFailure on non-convergence (the report and last
    iterate are attached) and NumericsError on NaN or indefiniteness.
    """
    n = _order(A)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise DimensionError(f"rhs length {b.shape} does not match operator size {n}")
    if max_iter is None:
        max_iter = 10 * n
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return np.zeros_like(b), CgReport(0, 0.0, True)

    diag = A.diagonal()
    inv_diag = 1.0 / np.where(diag > 0, diag, 1.0)  # 1 where the diagonal is not positive
    x = np.zeros_like(b)
    r = b.copy()
    res = float(np.linalg.norm(r))
    if callback is not None:
        callback(res)
    if res / nb <= tol:
        return x, CgReport(0, res / nb, True)

    z = inv_diag * r
    p = z.copy()
    Az = A @ z
    Ap = Az.copy()
    rho = float(z @ Az)

    for k in range(1, max_iter + 1):
        if not np.isfinite(rho):
            raise NumericsError("NaN/Inf encountered in CG")
        if rho <= 0.0:
            raise NumericsError(f"CG breakdown: non-positive curvature {rho:.3e}")
        denom = float(Ap @ (inv_diag * Ap))
        if denom <= 0.0:
            raise NumericsError("CG breakdown: vanishing search direction")
        alpha = rho / denom
        x = x + alpha * p
        r = r - alpha * Ap
        res = float(np.linalg.norm(r))
        if callback is not None:
            callback(res)
        if not np.isfinite(res):
            raise NumericsError("NaN/Inf encountered in CG")
        if res / nb <= tol:
            return x, CgReport(k, res / nb, True)
        z = inv_diag * r
        Az = A @ z
        rho_new = float(z @ Az)
        beta = rho_new / rho
        p = z + beta * p
        Ap = Az + beta * Ap
        rho = rho_new

    raise CgFailure(CgReport(max_iter, res / nb, False), x)


def factor(A: sp.spmatrix):
    """SuperLU factorization of the symmetric matrix A, for reuse: ``factor(A).solve(b)``.

    The package's one factorization routine: ``solver`` falls back to it
    for every operator but the unit square's 5-point matrix.  Minimum degree
    on A^T + A (about half the fill of SuperLU's default COLAMD on the
    stiffness), diagonal pivots only and symmetric mode.  Panels of one column:
    with SuperLU's default of 10, the panel workspace raised the peak RSS of
    the L10 stiffness factorization 100 MB above the factors' own.  Panels
    of one are faster up to L8 (57 -> 42 ms at L7) and slower at L10
    (11-13 -> 15-16 s).  SuperLU gets A^T, which for a symmetric CSR matrix
    is the CSC form of A sharing A's arrays, where ``tocsc`` would copy them.
    Returns the SuperLU object; an exactly singular A raises NumericsError.
    """
    # Imported here: scipy.sparse.linalg adds ~7 MB and ~0.08 s to every
    # import of the package, and most entry points never factor.
    from scipy.sparse import linalg

    try:
        return linalg.splu(A.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           panel_size=1, options=dict(SymmetricMode=True))
    except RuntimeError as e:  # SuperLU: "Factor is exactly singular"
        raise NumericsError(f"sparse LU: {e}") from None


def _grid_side(A: sp.spmatrix) -> Optional[int]:
    """n when A is bit for bit the 5-point matrix kron(I, T) + kron(T, I) of
    an n x n grid, T = tridiag(-1, 2, -1), stored as float64 CSR; None
    otherwise.  O(nnz): the diagonals read here have 5 n^2 - 4 n nonzero
    positions, each holding at least one stored entry, so a matrix with just
    that many stored entries holds nothing else, explicit zeros included."""
    if getattr(A, "format", None) != "csr" or A.dtype != np.float64:
        return None
    N = A.shape[0]
    n = math.isqrt(N)
    if n < 1 or A.shape != (n * n, n * n) or A.nnz != 5 * N - 4 * n:
        return None
    side = np.full(N - 1, -1.0)
    side[n - 1::n] = 0.0  # no coupling across the ends of the grid's rows
    if not (np.all(A.diagonal(0) == 4.0)
            and np.array_equal(A.diagonal(1), side) and np.array_equal(A.diagonal(-1), side)
            and np.all(A.diagonal(n) == -1.0) and np.all(A.diagonal(-n) == -1.0)):
        return None
    return n


def _sine_solve(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """b -> A^-1 b for the 5-point matrix A of an n x n grid, by the discrete
    sine transform that diagonalizes it (Buzbee, Golub and Nielson, SIAM J.
    Numer. Anal. 7 (1970)): x = S ((S b S) / (lam_k + lam_l)) S (2 / (n+1))^2,
    S the DST-I matrix sin(pi j k / (n+1)) and lam_k = 2 - 2 cos(k pi / (n+1))."""
    # numpy.fft rather than scipy.fft, whose import costs ~0.07 s and ~5 MB.
    from numpy import fft

    lam = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * (np.pi / (n + 1)))
    weights = (2.0 / (n + 1)) ** 2 / (lam[:, None] + lam[None, :])

    def dst(X: np.ndarray) -> np.ndarray:
        """DST-I of each row: minus the imaginary part of the length-(2n + 2)
        real FFT of (0, row, 0, ..., 0), half that of the row's odd extension."""
        padded = np.zeros((n, 2 * n + 2))
        padded[:, 1:n + 1] = X
        return -fft.rfft(padded)[:, 1:n + 1].imag

    def solve(b: np.ndarray) -> np.ndarray:
        # dst(dst(X).T) = S X' S; applied twice, the transposes cancel.
        Y = dst(dst(np.reshape(b, (n, n))).T) * weights
        return dst(dst(Y).T).ravel()

    return solve


def solver(A: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    """A solve b -> A^-1 b of the symmetric matrix A, for reuse.

    The one constructor of the Dirichlet solves of the descent and the
    Poisson check.  When A is bit for bit the 5-point matrix of an n x n
    grid (the unit square's interior stiffness), two DST-I passes and a
    division, with no factor stored; otherwise ``factor(A).solve``.  The
    rule reads the matrix, never a mesh, so a permuted, perturbed or
    unstructured operator always takes the factorization.
    """
    n = _grid_side(A)
    return factor(A).solve if n is None else _sine_solve(n)


def _inverse_iteration(alpha: list, beta: list, pivots: list, tol: float) -> float:
    """Value of the inverse iteration of ``smallest_eig_constrained``, run
    from e1 on the Lanczos tridiagonal T (``alpha`` on the diagonal, ``beta``
    beside it); ``pivots`` are the positive pivots d of T = L D L'.

    T^-1 = L^-T D^-1 L^-1 is formed by row operations on the identity, and
    a step z = T^-1 y has the quotient z'Tz / z'z = z'y / z'z.  The stop
    rule and the step cap are those of the iteration on the full operator.
    """
    m = len(alpha)
    ell = np.divide(beta[:m - 1], pivots[:m - 1])  # L's subdiagonal
    inv = np.eye(m)
    for k in range(1, m):
        inv[k] -= ell[k - 1] * inv[k - 1]
    inv /= np.asarray(pivots)[:, None]
    for k in range(m - 2, -1, -1):
        inv[k] -= ell[k] * inv[k + 1]
    y = np.eye(m)[0]
    lam = alpha[0]
    for _ in range(MAX_INVERSE_ITERATIONS):
        z = np.einsum("ij,j->i", inv, y)  # einsum: no BLAS call
        zz = inner(z, z)
        lam_new = inner(z, y) / zz
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new
        lam = lam_new
        y = z / math.sqrt(zz)
    return lam


def smallest_eig_constrained(A: sp.spmatrix, B: sp.spmatrix, c: np.ndarray,
                             tol: float = 1e-6) -> float:
    """Value of the inverse iteration for the smallest generalized Rayleigh
    quotient x'Ax/x'Bx subject to x'Bc = 0.

    The iteration (shift 0, from a projected random start, stopping when
    the quotient moves by at most tol relative or after
    MAX_INVERSE_ITERATIONS steps) is run on the tridiagonal T of the
    Lanczos process for B^-1 A on {x'Bc = 0} in the B inner product: the
    steps take only solves with B (``solver(B)``, the sine transform on the
    unit square's stiffness), and A is never factored.  Lanczos stops when
    that value moves by at most 1e-12 relative between checks every 8
    steps, on an invariant subspace, or at n - 1 steps; reaching
    MAX_LANCZOS_STEPS first raises NumericsError.  The smallest eigenvalue
    of T, which is the exact constrained minimum once Lanczos has converged,
    is not what is returned: the iteration's value can sit above it (a
    step cap or a false plateau).  A non-positive pivot of T shows A is not
    positive definite on the subspace, and the start quotient, clipped to
    at most 0, is returned.  B must be symmetric positive definite.
    """
    c = np.asarray(c, dtype=np.float64)
    n = _order(A)
    if c.shape != (n,) or B.shape != A.shape:
        raise DimensionError("inconsistent dimensions in constrained eigensolve")
    if n < 2:
        raise DimensionError("constraint subspace is trivial for n < 2")
    for name, M in (("A", A), ("B", B)):
        if not np.isfinite(M.data).all():
            M = sp.coo_matrix(M)
            i = np.flatnonzero(~np.isfinite(M.data))[0]
            raise NumericsError(f"constrained eigensolve: non-finite entry "
                                f"{name}[{M.row[i]}, {M.col[i]}] = {M.data[i]}")
    bad = np.flatnonzero(~np.isfinite(c))
    if bad.size:
        raise NumericsError(f"constrained eigensolve: non-finite entry "
                            f"c[{bad[0]}] = {c[bad[0]]}")
    # Inner products go through assembly.inner, and the basis products
    # through einsum: BLAS would wake OpenBLAS's thread pool on long vectors.
    Bc = B @ c
    cBc = inner(c, Bc)
    if cBc <= 0.0:
        raise NumericsError("constraint vector is B-degenerate")

    def project(x: np.ndarray) -> np.ndarray:
        """The B-orthogonal projection onto {x'Bc = 0}."""
        return x - (inner(x, Bc) / cBc) * c

    rng = np.random.default_rng(0)
    x = project(rng.standard_normal(n))
    bnorm = math.sqrt(max(inner(x, B @ x), 0.0))
    if bnorm == 0.0:
        raise NumericsError("deflated start vector vanished")
    steps = min(n - 1, MAX_LANCZOS_STEPS)
    Q = np.empty((min(steps, 32), n))  # the B-orthonormal basis, by rows
    Q[0] = x / bnorm
    solve = solver(B)
    alpha, beta, pivots = [], [], []
    checked = None
    for m in range(1, steps + 1):
        q = Q[m - 1]
        Aq = A @ q
        alpha.append(inner(q, Aq))
        pivots.append(alpha[-1] - (beta[-1] ** 2 / pivots[-1] if beta else 0.0))
        if pivots[-1] <= 0.0:
            return min(alpha[0], 0.0)
        if m == n - 1:
            break
        if m % 8 == 0:
            value = _inverse_iteration(alpha, beta, pivots, tol)
            if checked is not None and abs(value - checked) <= 1e-12 * abs(value):
                return value
            checked = value
        if m == MAX_LANCZOS_STEPS:
            raise NumericsError(f"constrained eigensolve: no convergence in "
                                f"{MAX_LANCZOS_STEPS} Lanczos steps")
        # The constraint is imposed again after the reorthogonalization:
        # without it c's component grows from step to step.
        w = project(solve(Aq))
        for _ in range(2):
            h = np.einsum("ij,j->i", Q[:m], B @ w)
            w -= np.einsum("i,ij->j", h, Q[:m])
        w = project(w)
        b = math.sqrt(max(inner(w, B @ w), 0.0))
        if b <= 1e-12 * abs(alpha[-1]):  # an invariant subspace
            break
        beta.append(b)
        if m == len(Q):
            Q = np.concatenate([Q, np.empty((min(len(Q), steps - m), n))])
        Q[m] = w / b
    return _inverse_iteration(alpha, beta, pivots, tol)
