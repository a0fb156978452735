"""Sparse symmetric storage, preconditioned CG, and a generalized
symmetric eigensolver (dense, or LOBPCG with the caller's
preconditioner) for the lowest part of the spectrum."""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError

DEFAULT_PCG_TOL = 1e-11
DEFAULT_EIG_TOL = 1e-9
DENSE_CUTOFF = 400
# lobpcg can stall for hundreds of iterations on a cold block; restarting
# from the block it returns (dropping its search directions) every 40
# iterations recovers within one or two runs
LOBPCG_MAXITER = 40
LOBPCG_RUNS = 5


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

    def __matmul__(self, x):
        return self.csr @ x

    def diagonal(self):
        return self.csr.diagonal()

    def toarray(self):
        return self.csr.toarray()

    def structurally_symmetric(self):
        return (self.csr != self.csr.T).nnz == 0


@dataclass
class EigenResult:
    values: np.ndarray          # (L,), ascending
    vectors: np.ndarray         # (n, L), B-orthonormal columns
    residual_norms: np.ndarray  # (L,), ||A x - e B x|| / ||x||_B
    iterations: int             # LOBPCG iterations over all runs; 0 if dense


def pcg_solve(A, b, tol=DEFAULT_PCG_TOL, max_iter=None,
              preconditioner=None):
    """Preconditioned conjugate gradients for SPD systems, with
    ``preconditioner.solve`` (Jacobi when none is given).

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
    if preconditioner is not None:
        matvec = preconditioner.solve
    else:
        inv_diag = 1.0 / A.diagonal()

        def matvec(r):
            return inv_diag * r
    M = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    x, info = spla.cg(A.csr, b, rtol=tol, atol=0.0, maxiter=max_iter, M=M)
    if info == 0:
        return x
    # cg reports a budget exit even when its last step met the tolerance
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


def _residual_norms(A, B, w, X):
    return np.linalg.norm(A @ X - (B @ X) * w[None, :], axis=0)


def dense_path(n, L, dense_cutoff=DENSE_CUTOFF):
    """Whether ``lowest_eigenpairs`` takes the dense solve for L of n
    levels."""
    return n <= dense_cutoff or L > n - 2


def lowest_eigenpairs(A, B, L, tol=DEFAULT_EIG_TOL, seed=0,
                      dense_cutoff=DENSE_CUTOFF, preconditioner=None,
                      start=None, B_dense=None):
    """L algebraically smallest eigenpairs of A x = e B x.

    A is symmetric (possibly indefinite), B is SPD.  Small problems
    (``dense_path``) take a dense solve, against ``B_dense`` when the
    caller holds B densified.  Otherwise LOBPCG runs with the
    preconditioner ``preconditioner.solve``, or unpreconditioned when
    none is given; ``SpectrumSolver`` passes the exact inverse of the
    stiffness (``spectrum.SineInverse``).  Its start block is the
    columns of ``start`` (n, k), followed by standard normal columns
    drawn from ``seed`` up to L; ``SpectrumSolver`` passes its previous
    block, or on its first sparse solve the perturbed cube modes of
    ``spectrum.cube_start``.  LOBPCG is asked for tol/10; a block still
    above tol after the Rayleigh-Ritz step restarts from where it
    stopped, at most LOBPCG_RUNS runs in all.  Every LOBPCG iteration
    that takes a step applies the preconditioner (the identity when
    there is none) once, and those applications, summed over the runs,
    are the result's ``iterations``.  Both paths end in a Rayleigh-Ritz
    step and a residual check on the pencil itself.  A ValueError from
    lobpcg, such as a rank-deficient start block, becomes a
    ConvergenceError.
    """
    n = A.n
    if not 1 <= L <= n:
        raise ValueError(f"need 1 <= L <= {n}, got L={L}")

    iterations = 0
    if dense_path(n, L, dense_cutoff):
        if B_dense is None:
            B_dense = B.toarray()
        _, X = sla.eigh(A.toarray(), B_dense, subset_by_index=[0, L - 1])
        w, X = _rayleigh_ritz(A, B, X)
        resid = _residual_norms(A, B, w, X)
    else:
        def precondition(R):
            nonlocal iterations
            iterations += 1
            return R if preconditioner is None else preconditioner.solve(R)
        X = np.random.default_rng(seed).standard_normal((n, L))
        if start is not None:
            k = min(start.shape[1], L)
            X[:, :k] = start[:, :k]
        for _ in range(LOBPCG_RUNS):
            # lobpcg warns when it stops above its tolerance or solves
            # densely (n < 5L); the residual check below decides instead
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                try:
                    _, X = spla.lobpcg(A.csr, X, B=B.csr,
                                       M=precondition, tol=0.1 * tol,
                                       maxiter=LOBPCG_MAXITER, largest=False)
                except ValueError as exc:
                    # e.g. "Linearly dependent initial approximations"
                    # for a rank-deficient start block
                    raise ConvergenceError(f"lobpcg failed: {exc}") from exc
            w, X = _rayleigh_ritz(A, B, X)
            resid = _residual_norms(A, B, w, X)
            if np.all(resid <= tol):
                break

    if np.any(resid > tol):
        raise ConvergenceError(
            f"eigensolver residuals exceed tol={tol:g}: max "
            f"{resid.max():.3e}", residual=resid)
    return EigenResult(values=w, vectors=X, residual_norms=resid,
                       iterations=iterations)
