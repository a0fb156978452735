"""Sparse symmetric storage, preconditioned CG, and a generalized
symmetric eigensolver (dense, or LOBPCG preconditioned by a multigrid
V-cycle on the nested Kuhn meshes) for the lowest part of the
spectrum."""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError
from .mesh import interior_prolongation

DEFAULT_PCG_TOL = 1e-11
DEFAULT_EIG_TOL = 1e-9
DENSE_CUTOFF = 400
# lobpcg can stall for hundreds of iterations on a cold block; restarting
# from the block it returns (dropping its search directions) every 40
# iterations recovers within one or two runs
LOBPCG_MAXITER = 40
LOBPCG_RUNS = 5
# the V-cycle coarsens while the level has more dofs than MG_COARSE_SIZE;
# each level runs MG_SWEEPS Jacobi sweeps, weight MG_OMEGA, on either side
# of its coarse correction
MG_COARSE_SIZE = 1000
MG_SWEEPS = 2
MG_OMEGA = 2.0 / 3.0


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
    iterations: int             # LOBPCG iterations over all runs; 0 if dense


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
    jacobi = spla.LinearOperator((n, n), matvec=lambda r: inv_diag * r,
                                 dtype=float)
    x, info = spla.cg(A.csr, b, rtol=tol, atol=0.0, maxiter=max_iter,
                      M=jacobi)
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


class VCycle:
    """Symmetric multigrid V-cycle for an SPD matrix S, applied by
    ``solve`` to (n,) vectors or (n, k) blocks.

    Level 0 is S and level l + 1 is the Galerkin operator P^T S_l P of
    P = ``prolongations[l]``.  Every level but the coarsest runs
    MG_SWEEPS damped Jacobi sweeps from zero, the coarse correction, and
    MG_SWEEPS more sweeps, so the cycle is a symmetric operator; the
    coarsest level is solved with its SuperLU factor.  With no
    prolongations the cycle is that exact LU solve.
    """

    def __init__(self, S, prolongations):
        self.levels = []             # (S_l, MG_OMEGA / diag(S_l), P_l)
        for P in prolongations:
            self.levels.append((S, MG_OMEGA / S.diagonal(), P))
            S = (P.T @ S @ P).tocsr()
        self.coarse = spla.splu(S.tocsc(), permc_spec="MMD_AT_PLUS_A")
        self.sizes = [lvl[0].shape[0] for lvl in self.levels] + [S.shape[0]]

    def solve(self, b):
        return self._cycle(0, b)

    def _cycle(self, level, b):
        if level == len(self.levels):
            return self.coarse.solve(b)
        S, wdinv, P = self.levels[level]
        if b.ndim == 2:
            wdinv = wdinv[:, None]
        x = wdinv * b
        for _ in range(MG_SWEEPS - 1):
            x += wdinv * (b - S @ x)
        x += P @ self._cycle(level + 1, P.T @ (b - S @ x))
        for _ in range(MG_SWEEPS):
            x += wdinv * (b - S @ x)
        return x


def shifted_vcycle(A, B, m=None):
    """V-cycle for S = A + sB with s = max(0, -gershgorin(A)) + 1, the
    preconditioner of the iterative eigensolve for pencils near (A, B).

    A and B act on the interior dofs of the Kuhn mesh with m cells per
    axis; the hierarchy halves m while m is even and the level has more
    than MG_COARSE_SIZE dofs.  Odd m, small meshes and m=None build no
    level, and the cycle is the LU of S.
    """
    s = max(0.0, -A.gershgorin_lower_bound()) + 1.0
    S = A.csr + s * B.csr
    prolongations = []
    while m is not None and m % 2 == 0 and (m - 1) ** 3 > MG_COARSE_SIZE:
        prolongations.append(interior_prolongation(m))
        m //= 2
    return VCycle(S, prolongations)


def lowest_eigenpairs(A, B, L, tol=DEFAULT_EIG_TOL, seed=0,
                      dense_cutoff=DENSE_CUTOFF, preconditioner=None,
                      start=None, B_dense=None):
    """L algebraically smallest eigenpairs of A x = e B x.

    A is symmetric (possibly indefinite), B is SPD.  Small problems
    (``dense_path``) take a dense solve, against ``B_dense`` when the
    caller holds B densified.  Otherwise LOBPCG runs with the
    preconditioner ``preconditioner.solve`` (``shifted_vcycle(A, B)``
    when none is given, typically the V-cycle of a nearby reference
    pencil).  Its start block is the columns of ``start`` (n, k),
    followed by standard normal columns drawn from ``seed`` up to L;
    ``SpectrumSolver`` passes its previous block, or on its first sparse
    solve the perturbed cube modes of ``spectrum.cube_start``.
    LOBPCG is asked for tol/10; a block still above tol after the
    Rayleigh-Ritz step restarts from where it stopped, at most
    LOBPCG_RUNS runs in all.  Every LOBPCG iteration that takes a step
    applies the preconditioner once, and those applications, summed
    over the runs, are the result's ``iterations``.  Both paths end in a
    Rayleigh-Ritz step and a residual check on the pencil itself.  A
    ValueError from lobpcg, such as a rank-deficient start block,
    becomes a ConvergenceError.
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
        if preconditioner is None:
            preconditioner = shifted_vcycle(A, B)

        def precondition(R):
            nonlocal iterations
            iterations += 1
            return preconditioner.solve(R)
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
