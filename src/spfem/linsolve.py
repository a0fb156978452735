"""Sparse symmetric storage, preconditioned CG, and a generalized
symmetric eigensolver (dense, or LOBPCG with the caller's
preconditioner; either per symmetry class of the mesh when the caller
passes them) for the lowest part of the spectrum."""

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


@dataclass
class EigenResult:
    values: np.ndarray          # (L,), ascending
    vectors: np.ndarray         # (n, L), B-orthonormal columns
    residual_norms: np.ndarray  # (L,), ||A x - e B x|| / ||x||_B
    iterations: int             # preconditioner applications, summed over
                                # the runs and the classes; 0 if dense
    classes: int = 1            # symmetry classes of the solve kept: 6 or 1
    spare: np.ndarray = None    # (n, e): per class, the level computed
                                # past the L that its bound does not
                                # certify; the next solve's start for it


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
    """B-orthonormalize the block X and diagonalize A on its span: the
    Ritz values w, the Ritz vectors and their residual norms
    ||A x - w B x||, from the one product of X with each of A and B.
    With G = X^T B X = c c^T, the pencil on the span is the standard
    c^-1 X^T A X c^-T, whose eigenvectors Q give the Ritz vectors
    X c^-T Q: the triangle is applied to (L, L) blocks only."""
    AX = A @ X
    BX = B @ X
    G = X.T @ BX
    c = sla.cholesky(0.5 * (G + G.T), lower=True)
    H = sla.solve_triangular(c, X.T @ AX, lower=True)
    H = sla.solve_triangular(c, H.T, lower=True)
    w, Q = sla.eigh(0.5 * (H + H.T))
    Z = sla.solve_triangular(c, Q, lower=True, trans="T")
    resid = np.linalg.norm(AX @ Z - (BX @ Z) * w[None, :], axis=0)
    return w, X @ Z, resid


def dense_path(n, L, dense_cutoff=DENSE_CUTOFF):
    """Whether ``lowest_eigenpairs`` takes the dense solve for L of n
    levels."""
    return n <= dense_cutoff or L > n - 2


def _lobpcg(A, B, X, precondition, tol, constraints=None):
    """LOBPCG from the block X, B-orthogonal to the columns of
    ``constraints`` when given, asked for tol/10, then a Rayleigh-Ritz
    step; a block still above tol restarts from where it stopped, at
    most LOBPCG_RUNS runs in all.  Returns the Ritz values, vectors and
    residual norms of the last run."""
    for _ in range(LOBPCG_RUNS):
        # lobpcg warns when it stops above its tolerance or solves
        # densely (n < 5L); the residual check decides instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                _, X = spla.lobpcg(A, X, B=B, M=precondition, Y=constraints,
                                   tol=0.1 * tol, maxiter=LOBPCG_MAXITER,
                                   largest=False)
            except ValueError as exc:
                # e.g. "Linearly dependent initial approximations" for a
                # rank-deficient start block
                raise ConvergenceError(f"lobpcg failed: {exc}") from exc
        w, X, resid = _rayleigh_ritz(A, B, X)
        if np.all(resid <= tol):
            break
    return w, X, resid


def _class_starts(classes, start):
    """Per class, an orthonormal (n_c, k_c) start block in first-row
    coordinates: every column of ``start`` is given to the class that
    holds most of it, and the class's share k_c is the rank of its
    columns' first-row coordinates, for Eg and Eu each column's larger
    row read through the transfer to the first (a level and its partner
    give one column)."""
    rows = [[Q.T @ start for Q in r] for r in classes.rows]
    weight = np.array([sum(np.einsum("ij,ij->j", C, C) for C in coords)
                       for coords in rows])
    owner = np.argmax(weight, axis=0)
    starts = []
    for c, coords in enumerate(rows):
        cols = np.flatnonzero(owner == c)
        if len(cols) == 0:
            starts.append(np.empty((coords[0].shape[0], 0)))
            continue
        norms = np.array([np.einsum("ij,ij->j", C[:, cols], C[:, cols])
                          for C in coords])
        Z = np.take_along_axis(np.stack([C[:, cols] for C in coords]),
                               np.argmax(norms, axis=0)[None, None, :],
                               axis=0)[0]
        U, sv, _ = np.linalg.svd(Z, full_matrices=False)
        starts.append(U[:, :np.count_nonzero(sv > 1e-2 * sv[0])])
    return starts


def _class_lobpcg(A, L, tol, seed, precondition, start, classes, bounds):
    """LOBPCG per symmetry class of ``classes`` on the reduced pencil
    (Q^T A Q, Q^T M Q) of each class's first row Q, preconditioned by
    Q^T P Q for the full space's ``precondition`` P, each class from its
    share of ``start`` (``_class_starts``); a class without a share runs
    no LOBPCG.  A class c is then grown by one level, a LOBPCG on one
    column B-orthogonal to its levels from a ``seed`` draw, while its
    next level may lie below the highest merged level lambda_L: while
    max(its highest level, bounds[c][k_c]) < lambda_L, k_c its levels,
    the lowest such bound first.  So the merged set is the L lowest
    levels of the pencil.  Returns the merged values and vectors
    (``ClassSplit.merge``) and, per class, the first level it computed
    past them where the bound alone would not certify that class, in
    the full space: the next solve's start for it."""
    sizes = classes.sizes
    starts = _class_starts(classes, start)
    blocks = classes.blocks(A.csr, [c for c, Y in enumerate(starts)
                                    if Y.shape[1]])

    def solve(c, Y, constraints=None):
        if blocks[c] is None:
            blocks[c] = classes.blocks(A.csr, [c])[c]
        Q = classes.rows[c][0]
        return _lobpcg(blocks[c], classes.mass[c], Y,
                       lambda R: Q.T @ precondition(Q @ R), tol,
                       constraints)[:2]
    values, vectors = [], []
    for c, Y in enumerate(starts):
        w, Y = solve(c, Y) if Y.shape[1] else (np.empty(0), Y)
        values.append(w)
        vectors.append(Y)
    rng = np.random.default_rng(seed)
    while True:
        merged = np.sort(np.concatenate(
            [np.repeat(w, len(r)) for w, r in zip(values, classes.rows)]))
        top = merged[L - 1] if len(merged) >= L else np.inf
        nxt = [max(w[-1] if len(w) else -np.inf,
                   b[len(w)] if len(w) < len(b) else -np.inf)
               if len(w) < n_c else np.inf
               for w, b, n_c in zip(values, bounds, sizes)]
        c = int(np.argmin(nxt))
        if nxt[c] >= top:
            break
        held = vectors[c] if len(values[c]) else None
        w, y = solve(c, rng.standard_normal((sizes[c], 1)), held)
        values[c] = np.concatenate([values[c], w])
        vectors[c] = y if held is None else np.hstack([held, y])
    w, X = classes.merge(values, vectors, L)
    spare = []
    for c, (v, Y, b) in enumerate(zip(values, vectors, bounds)):
        held = np.count_nonzero(v <= w[-1]) if len(v) else 0
        if held < len(v) and (held >= len(b) or b[held] < w[-1]):
            spare.append(classes.rows[c][0] @ Y[:, held:held + 1])
    return w, X, np.hstack(spare) if spare else None


def lowest_eigenpairs(A, B, L, tol=DEFAULT_EIG_TOL, seed=0,
                      dense_cutoff=DENSE_CUTOFF, preconditioner=None,
                      start=None, classes=None, bounds=None):
    """L algebraically smallest eigenpairs of A x = e B x.

    A is symmetric (possibly indefinite), B is SPD.  ``classes`` is the
    mesh's ``symmetry.ClassSplit`` when the pencil keeps the mesh's
    symmetries (B must then be the mesh's mass matrix; ``SpectrumSolver``
    passes it), and then both paths solve each symmetry class apart.

    Small problems (``dense_path``) take a dense solve: one subset
    ``eigh`` per class block (``ClassSplit.eigenvectors``), or of the
    whole pencil.  Otherwise LOBPCG runs with the preconditioner
    ``preconditioner.solve``, or unpreconditioned when none is given;
    ``SpectrumSolver`` passes the exact inverse of the stiffness
    (``spectrum.SineInverse``).  Per class (``_class_lobpcg``), every
    column of ``start`` counts toward the share of the class that holds
    it, and ``bounds``, per class lower bounds of its first levels
    (``SpectrumSolver.class_bounds``; none: -inf), decide whether a
    class must grow past its share.  For the whole pencil, the start
    block is the leading columns of ``start`` (n, k), up to L, followed
    by standard normal columns drawn from ``seed`` when k < L.
    ``SpectrumSolver`` passes its previous block, or on its first sparse
    solve the Ritz vectors of the reference pencil on the grid modes
    (``spectrum.SpectrumSolver.mode_estimates``).  LOBPCG is asked for
    tol/10; a block still above tol after the Rayleigh-Ritz step
    restarts from where it stopped, at most LOBPCG_RUNS runs in all
    (``_lobpcg``).  Every LOBPCG iteration that takes a step applies the
    preconditioner (the identity when there is none) once, and those
    applications, summed over the runs and the classes, are the result's
    ``iterations``.  Every path ends in a Rayleigh-Ritz step and a
    residual check on the pencil itself; a class solve whose residuals
    exceed tol is replaced by a solve of the whole pencil (from the
    class solve's block on the sparse path), and the result's
    ``classes`` counts the classes of the solve it kept.  A ValueError
    from lobpcg, such as a rank-deficient start block, becomes a
    ConvergenceError.
    """
    n = A.n
    if not 1 <= L <= n:
        raise ValueError(f"need 1 <= L <= {n}, got L={L}")

    iterations, kept, spare = 0, 1, None

    def precondition(R):
        nonlocal iterations
        iterations += 1
        return R if preconditioner is None else preconditioner.solve(R)
    dense = dense_path(n, L, dense_cutoff)
    if classes is not None:
        if dense:
            X = classes.eigenvectors(A.csr, L)
        else:
            if bounds is None:
                bounds = [np.empty(0)] * len(classes.rows)
            _, X, spare = _class_lobpcg(
                A, L, tol, seed, precondition,
                np.empty((n, 0)) if start is None else start, classes,
                bounds)
        w, X, resid = _rayleigh_ritz(A, B, X)
        kept = len(classes.rows)
        if np.any(resid > tol):
            # the pencil keeps the mesh's symmetries too loosely for
            # tol: solve it whole
            start, kept, spare = X, 1, None
    if kept == 1:
        if dense:
            _, X = sla.eigh(A.toarray(), B.toarray(),
                            subset_by_index=[0, L - 1])
            w, X, resid = _rayleigh_ritz(A, B, X)
        else:
            X = np.empty((n, L))
            k = 0
            if start is not None:
                k = min(start.shape[1], L)
                X[:, :k] = start[:, :k]
            if k < L:
                X[:, k:] = np.random.default_rng(seed).standard_normal(
                    (n, L - k))
            w, X, resid = _lobpcg(A.csr, B.csr, X, precondition, tol)

    if np.any(resid > tol):
        raise ConvergenceError(
            f"eigensolver residuals exceed tol={tol:g}: max "
            f"{resid.max():.3e}", residual=resid)
    return EigenResult(values=w, vectors=X, residual_norms=resid,
                       iterations=iterations, classes=kept, spare=spare)
