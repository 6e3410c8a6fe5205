"""Solvers for the Dirichlet systems; operators are scipy CSR matrices built by assembly."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .assembly import inner
from .errors import DimensionError, NumericsError

MAX_INVERSE_ITERATIONS = 200  # step cap of smallest_eig_constrained
# Constrained eigensolves of smaller order take one dense eigendecomposition of
# A in place of ``factor``: at these sizes the factorization's import of
# scipy.sparse.linalg (~0.1 s, ~9 MB and scipy's own OpenBLAS, whose worker
# spins once) costs far more than the solve.  15 is also 5 x LOBPCG's block
# size of 3, the smallest order at which LOBPCG takes a constraint block
# (Knyazev, SIAM J. Sci. Comput. 23, 2001).
DENSE_EIG_ORDER = 15


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

    The package's one factorization routine: the gap reads its pivots, and
    ``solver`` falls back to it for every operator but the unit square's
    5-point matrix.  Minimum degree on A^T + A (about half the fill of
    SuperLU's default COLAMD on the stiffness), diagonal pivots
    only and symmetric mode: where perm_r == perm_c, U's diagonal holds the
    pivots D of L D L', whose signs give A's inertia.  Panels of one column:
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


def smallest_eig_constrained(A: sp.spmatrix, B: sp.spmatrix, c: np.ndarray,
                             tol: float = 1e-6) -> float:
    """Smallest generalized Rayleigh quotient x'Ax/x'Bx subject to x'Bc = 0.

    Inverse iteration (shift 0) with the constraint re-imposed every step
    by B-orthogonal deflation of c, each step one exact solve with A; it
    stops when the quotient moves by at most tol relative, or after
    MAX_INVERSE_ITERATIONS steps.  The solves come from a single
    ``factor(A)``, or, below order DENSE_EIG_ORDER, from one dense
    ``eigh``: A = V diag(w) V', a solve being V ((V'b) / w).  Where A's
    inertia (the negative pivots, or the negative w) shows it is not
    positive definite on the constraint subspace, the gap is reported as
    non-positive; a singular A (or projected operator) raises NumericsError.
    """
    c = np.asarray(c, dtype=np.float64)
    n = _order(A)
    if c.shape != (n,) or B.shape != A.shape:
        raise DimensionError("inconsistent dimensions in constrained eigensolve")
    if n < 2:
        raise DimensionError("constraint subspace is trivial for n < 2")
    # Checked before factoring: SuperLU reports a NaN pivot as "exactly singular".
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
    # Inner products go through assembly.inner: BLAS ddot would wake
    # OpenBLAS's thread pool from 10 000 entries on.
    Bc = B @ c
    cBc = inner(c, Bc)
    if cBc <= 0.0:
        raise NumericsError("constraint vector is B-degenerate")

    def project(x: np.ndarray) -> np.ndarray:
        return x - (inner(x, Bc) / cBc) * c

    rng = np.random.default_rng(0)
    x = project(rng.standard_normal(n))
    Bx = B @ x
    bnorm = float(np.sqrt(max(inner(x, Bx), 0.0)))
    if bnorm == 0.0:
        raise NumericsError("deflated start vector vanished")
    x /= bnorm
    Bx /= bnorm
    lam = inner(x, A @ x)

    if n < DENSE_EIG_ORDER:
        w, V = np.linalg.eigh(A.toarray())
        if np.any(w == 0.0):
            raise NumericsError("dense eigendecomposition: A is exactly singular")
        negative = int(np.count_nonzero(w < 0.0))
        symmetric = True

        def solve(b: np.ndarray) -> np.ndarray:
            return V @ ((V.T @ b) / w)
    else:
        lu = factor(A)
        negative = int(np.count_nonzero(lu.U.diagonal() < 0.0))
        symmetric = np.array_equal(lu.perm_r, lu.perm_c)
        solve = lu.solve
    # [[A, Bc], [Bc', 0]] has the inertia of A plus that of -(Bc)'A^-1(Bc)
    # (Haynsworth), and that of A on {x'Bc = 0} plus one + and one -: A is
    # definite there iff it has no negative pivot (eigenvalue), or one with
    # (Bc)'A^-1(Bc) < 0.  SuperLU's pivots give A's inertia only where its
    # row and column permutations agree.
    definite = symmetric and (
        negative == 0 or (negative == 1 and inner(Bc, solve(Bc)) < 0.0))
    if not definite:
        return min(lam, 0.0)

    # A step solves A y - alpha c = project(B x) with y'Bc = 0:
    # y = z1 - ((Bc)'z1 / (Bc)'z2) z2, z1 = A^-1 project(B x), z2 = A^-1 c.
    # B x is carried over from the step before, as B y / |y|_B.
    z2 = solve(c)
    s = inner(Bc, z2)
    if s == 0.0:
        raise NumericsError("projected operator is singular on the constraint subspace")

    for _ in range(MAX_INVERSE_ITERATIONS):
        z1 = solve(project(Bx))
        y = project(z1 - (inner(Bc, z1) / s) * z2)
        By = B @ y
        ynorm = float(np.sqrt(max(inner(y, By), 0.0)))
        if ynorm == 0.0 or not np.isfinite(ynorm):
            return min(lam, 0.0)
        x = y / ynorm
        Bx = By / ynorm
        lam_new = inner(x, A @ x) / inner(x, Bx)
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new
        lam = lam_new
    return lam
