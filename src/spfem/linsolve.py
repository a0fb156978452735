"""Sparse symmetric storage, preconditioned CG, and a generalized
symmetric eigensolver for the lowest part of the spectrum."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError

DEFAULT_PCG_TOL = 1e-11
DEFAULT_EIG_TOL = 1e-9
DENSE_CUTOFF = 400


class SparseSymMatrix:
    """CSR-backed symmetric matrix over a fixed dof set."""

    def __init__(self, csr):
        csr = sp.csr_matrix(csr)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError("matrix must be square")
        csr.sum_duplicates()
        self.csr = csr

    @property
    def n(self):
        return self.csr.shape[0]

    def matvec(self, x):
        return self.csr @ x

    def __matmul__(self, x):
        return self.csr @ x

    def diagonal(self):
        return self.csr.diagonal()

    def toarray(self):
        return self.csr.toarray()

    def structurally_symmetric(self):
        return (self.csr != self.csr.T).nnz == 0

    def gershgorin_lower_bound(self):
        """min_i (a_ii - sum_{j != i} |a_ij|), a crude bound on the
        smallest eigenvalue."""
        diag = self.diagonal()
        abs_rowsum = np.asarray(np.abs(self.csr).sum(axis=1)).ravel()
        return float(np.min(diag - (abs_rowsum - np.abs(diag))))


@dataclass
class EigenResult:
    values: np.ndarray          # (L,), ascending
    vectors: np.ndarray         # (n, L), B-orthonormal columns
    residual_norms: np.ndarray  # (L,), ||A x - e B x|| / ||x||_B


def pcg_solve(A, b, tol=DEFAULT_PCG_TOL, max_iter=None):
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    Stops when ||A x - b|| <= tol * ||b||; raises ConvergenceError with
    the final residual if the iteration budget runs out.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float)
    n = A.n
    if max_iter is None:
        max_iter = max(1000, 10 * n)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)
    inv_diag = 1.0 / A.diagonal()
    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for it in range(max_iter):
        if np.linalg.norm(r) <= tol * bnorm:
            return x
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    resid = np.linalg.norm(A @ x - b)
    if resid <= tol * bnorm:
        return x
    raise ConvergenceError(
        f"PCG did not reach tol={tol:g} in {max_iter} iterations "
        f"(relative residual {resid / bnorm:.3e})",
        residual=resid / bnorm, iterations=max_iter)


def _rayleigh_ritz(A, B, X):
    """B-orthonormalize the block X and diagonalize A on its span."""
    G = X.T @ (B @ X)
    G = 0.5 * (G + G.T)
    c = sla.cholesky(G, lower=True)
    X = sla.solve_triangular(c, X.T, lower=True).T
    H = X.T @ (A @ X)
    H = 0.5 * (H + H.T)
    w, Q = sla.eigh(H)
    return w, X @ Q


def lowest_eigenpairs(A, B, L, tol=DEFAULT_EIG_TOL, seed=0,
                      dense_cutoff=DENSE_CUTOFF):
    """L algebraically smallest eigenpairs of A x = e B x.

    A is symmetric (possibly indefinite), B is SPD.  Small problems
    (n <= dense_cutoff, or L close to n) take a dense solve.  Otherwise
    the pencil is shifted by s = max(0, -gershgorin(A)) + 1, so that
    the shift-inverted operator orders the smallest eigenvalues first,
    and ARPACK starts from a standard normal vector drawn from ``seed``.
    Both paths end in a Rayleigh-Ritz step and a residual check on the
    unshifted pencil, so the reported values do not depend on the shift.
    """
    n = A.n
    if not 1 <= L <= n:
        raise ValueError(f"need 1 <= L <= {n}, got L={L}")

    dense = n <= dense_cutoff or L > n - 2
    if dense:
        w, X = sla.eigh(A.toarray(), B.toarray(), subset_by_index=[0, L - 1])
    else:
        s = max(0.0, -A.gershgorin_lower_bound()) + 1.0
        start = np.random.default_rng(seed).standard_normal(n)
        w, X = spla.eigsh(A.csr, k=L, M=B.csr, sigma=-s, which="LM",
                          mode="normal", v0=start, tol=1e-12)
        order = np.argsort(w)
        w, X = w[order], X[:, order]

    w, X = _rayleigh_ritz(A, B, X)

    resid = np.linalg.norm(A @ X - (B @ X) * w[None, :], axis=0)
    if np.any(resid > tol):
        raise ConvergenceError(
            f"eigensolver residuals exceed tol={tol:g}: max "
            f"{resid.max():.3e}", residual=resid)
    return EigenResult(values=w, vectors=X, residual_norms=resid)
