"""Symmetric sparse operators and solvers for the Dirichlet systems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, NumericsError


class SparseOperator:
    """Symmetric sparse matrix in compressed-row layout.

    Thin wrapper over a finalized ``scipy.sparse.csr_matrix``: duplicates
    summed, explicit zeros dropped, column indices sorted within rows.
    """

    def __init__(self, mat: sp.spmatrix):
        m = sp.csr_matrix(mat)
        if m.shape[0] != m.shape[1]:
            raise DimensionError(f"operator must be square, got {m.shape}")
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
        self._mat = m

    @classmethod
    def from_coo(cls, n: int, rows, cols, vals) -> "SparseOperator":
        return cls(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseOperator":
        return cls(sp.csr_matrix(np.asarray(a, dtype=np.float64)))

    @property
    def n(self) -> int:
        return self._mat.shape[0]

    @property
    def row_offsets(self) -> np.ndarray:
        return self._mat.indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self._mat.indices

    @property
    def values(self) -> np.ndarray:
        return self._mat.data

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._mat @ x

    __matmul__ = matvec

    def diagonal(self) -> np.ndarray:
        return self._mat.diagonal()

    def toarray(self) -> np.ndarray:
        return self._mat.toarray()

    def submatrix(self, idx: np.ndarray) -> "SparseOperator":
        return SparseOperator(self._mat[np.ix_(idx, idx)])

    def symmetry_defect(self) -> float:
        d = self._mat - self._mat.T
        return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())

    def add(self, other: "SparseOperator", beta: float = 1.0) -> "SparseOperator":
        return SparseOperator(self._mat + beta * other._mat)


@dataclass
class CgReport:
    iterations: int
    relative_residual: float
    converged: bool


class CgFailure(NumericsError):
    """CG did not reach the target residual; carries the report and best iterate."""

    def __init__(self, report: CgReport, x: np.ndarray):
        super().__init__(
            f"CG stalled at relative residual {report.relative_residual:.3e} "
            f"after {report.iterations} iterations"
        )
        self.report = report
        self.x = x


def _pcg(
    matvec: Callable[[np.ndarray], np.ndarray],
    diag: np.ndarray,
    b: np.ndarray,
    tol: float,
    max_iter: int,
    callback: Optional[Callable[[float], None]] = None,
):
    """Jacobi-preconditioned conjugate-residual iteration.

    Residual-minimizing member of the CG family for SPD systems: the
    residual norm is non-increasing (exactly, in the 2-norm, whenever the
    diagonal is constant, as on the structured meshes here).  Returns
    (x, CgReport) or raises CgFailure / NumericsError.
    """
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return np.zeros_like(b), CgReport(0, 0.0, True)

    inv_diag = np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1.0), 1.0)
    x = np.zeros_like(b)
    r = b.copy()
    res = float(np.linalg.norm(r))
    if callback is not None:
        callback(res)
    if res / nb <= tol:
        return x, CgReport(0, res / nb, True)

    z = inv_diag * r
    p = z.copy()
    Az = matvec(z)
    Ap = Az.copy()
    mAp = inv_diag * Ap
    rho = float(z @ Az)

    for k in range(1, max_iter + 1):
        if not np.isfinite(rho):
            raise NumericsError("NaN/Inf encountered in CG")
        if rho <= 0.0:
            raise NumericsError(f"CG breakdown: non-positive curvature {rho:.3e}")
        denom = float(Ap @ mAp)
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
        Az = matvec(z)
        rho_new = float(z @ Az)
        beta = rho_new / rho
        p = z + beta * p
        Ap = Az + beta * Ap
        mAp = inv_diag * Ap
        rho = rho_new

    raise CgFailure(CgReport(max_iter, res / nb, False), x)


def cg_solve(
    A: SparseOperator,
    b: np.ndarray,
    tol: float = 1e-12,
    max_iter: Optional[int] = None,
    callback: Optional[Callable[[float], None]] = None,
):
    """Solve A x = b (A symmetric positive definite) to a relative residual.

    Raises CgFailure on non-convergence (the report and best iterate are
    attached) and NumericsError on NaN or indefiniteness.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n,):
        raise DimensionError(f"rhs length {b.shape} does not match operator size {A.n}")
    if max_iter is None:
        max_iter = 10 * A.n
    return _pcg(A.matvec, A.diagonal(), b, tol, max_iter, callback=callback)


def factor(A: SparseOperator) -> Callable[[np.ndarray], np.ndarray]:
    """Sparse LU factorization of A, returned as its ``solve(b) -> x``.

    The minimum-degree ordering of A^T + A suits the symmetric stiffness
    pattern: about half the fill of SuperLU's default COLAMD ordering.
    """
    # Imported here: scipy.sparse.linalg adds ~7 MB and ~0.08 s to every
    # import of the package, and most entry points never factor.
    from scipy.sparse.linalg import splu

    return splu(A._mat.tocsc(), permc_spec="MMD_AT_PLUS_A").solve


def smallest_eig_constrained(
    A: SparseOperator,
    B: SparseOperator,
    c: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> float:
    """Smallest generalized Rayleigh quotient x'Ax/x'Bx subject to x'Bc = 0.

    Inverse iteration (shift 0) with the constraint re-imposed every step
    by B-orthogonal deflation of c.  A must be positive definite on the
    constraint subspace for the inner CG solves to succeed; a breakdown is
    reported as a non-positive gap.
    """
    c = np.asarray(c, dtype=np.float64)
    n = A.n
    if c.shape != (n,) or B.n != n:
        raise DimensionError("inconsistent dimensions in constrained eigensolve")
    if n < 2:
        raise DimensionError("constraint subspace is trivial for n < 2")
    Bc = B.matvec(c)
    cBc = float(c @ Bc)
    if cBc <= 0.0:
        raise NumericsError("constraint vector is B-degenerate")

    def project(x: np.ndarray) -> np.ndarray:
        return x - (float(x @ Bc) / cBc) * c

    def proj_matvec(x: np.ndarray) -> np.ndarray:
        return project(A.matvec(project(x)))

    diag = A.diagonal()
    diag = np.where(diag > 0, diag, 1.0)

    rng = np.random.default_rng(0)
    x = project(rng.standard_normal(n))
    bnorm = float(np.sqrt(max(x @ B.matvec(x), 0.0)))
    if bnorm == 0.0:
        raise NumericsError("deflated start vector vanished")
    x /= bnorm
    lam = float(x @ A.matvec(x))

    for _ in range(max_iter):
        rhs = project(B.matvec(x))
        try:
            y, _ = _pcg(proj_matvec, diag, rhs, tol=min(tol, 1e-8), max_iter=10 * n)
        except NumericsError:
            return min(lam, 0.0)
        y = project(y)
        ynorm = float(np.sqrt(max(y @ B.matvec(y), 0.0)))
        if ynorm == 0.0 or not np.isfinite(ynorm):
            return min(lam, 0.0)
        x = y / ynorm
        lam_new = float(x @ A.matvec(x)) / float(x @ B.matvec(x))
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new
        lam = lam_new
    return lam
