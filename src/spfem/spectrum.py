"""Discrete Hamiltonian pencils and their lowest eigenpairs, and the
Laplacian eigenmodes of the unit cube they approach, read from one
table of complete shells of equal i^2 + j^2 + k^2 (``cube_shells``).

The Hamiltonian for a potential u + V0 is discretized as
A = (stiffness + weighted_mass(V0)) + weighted_mass(u) against the mass
matrix B, the bracket assembled once per solver, and
eigenfunctions are normalized in the L2 (mass-matrix) norm, which the
generalized eigensolver delivers directly.  The iterative eigensolve is
preconditioned by the exact inverse of the stiffness, which the grid
sine modes diagonalize (``SineInverse``: the kinetic-energy
preconditioner of LOBPCG, Knyazev, SIAM J. Sci. Comput. 23, 2001), and
its first block is the cube's lowest modes at the interior vertices
(``cube_start``).
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import fem
from .linsolve import (DEFAULT_EIG_TOL, DENSE_CUTOFF, SparseSymMatrix,
                       dense_path, lowest_eigenpairs)
from .quadrature import tet_rule

PI2 = math.pi ** 2
# relative size of the seeded perturbation added to every column of the
# cube-mode start block: the Kuhn mesh, V0 and the sine-transform
# preconditioner share the cube's symmetries, so an exact mode block
# would never reach a level of a symmetry class it lacks
START_NOISE = 1e-2


@dataclass(frozen=True)
class CubeMode:
    """Laplacian eigenmode sin(i pi x) sin(j pi y) sin(k pi z), unit
    L2 norm."""

    i: int
    j: int
    k: int

    @property
    def lam(self):
        return (self.i ** 2 + self.j ** 2 + self.k ** 2) * PI2

    def phi(self, points):
        points = np.asarray(points, dtype=float)
        return (2.0 * math.sqrt(2.0)
                * np.sin(self.i * math.pi * points[..., 0])
                * np.sin(self.j * math.pi * points[..., 1])
                * np.sin(self.k * math.pi * points[..., 2]))


def cube_shells(s_max):
    """Int arrays (s, i, j, k) of every mode with s = i^2 + j^2 + k^2 <=
    s_max, sorted by (s, i, j, k).  Each shell of equal s is complete:
    the table holds every mode of every shell up to s_max."""
    i = np.arange(1, math.isqrt(max(s_max - 2, 0)) + 1)
    ii, jj, kk = (a.ravel() for a in np.meshgrid(i, i, i, indexing="ij"))
    s = ii * ii + jj * jj + kk * kk
    keep = np.flatnonzero(s <= s_max)
    order = keep[np.argsort(s[keep], kind="stable")]
    return s[order], ii[order], jj[order], kk[order]


def cube_eigensequence(count):
    """First ``count`` modes sorted by eigenvalue, ties by (i, j, k)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    # the n^3 modes with indices up to n all lie in the shells up to 3 n^2
    n = math.ceil(count ** (1 / 3))
    _, I, J, K = (a[:count].tolist() for a in cube_shells(3 * n * n))
    return [CubeMode(*ijk) for ijk in zip(I, J, K)]


def sine_table(m):
    """(m - 1, m - 1) table S[i - 1, a - 1] = sin(i pi a / m), i, a =
    1..m-1: the grid sine modes along one axis.  S is symmetric and
    S S = (m / 2) I."""
    idx = np.arange(1, m)
    return np.sin(math.pi / m * np.outer(idx, idx))


class SineInverse:
    """Exact inverse of the interior P1 stiffness K of the Kuhn mesh with
    m cells per axis, applied by ``solve`` to (n,) vectors or (n, k)
    blocks: K is 1/m times the 7-point Laplacian of the (m - 1)^3
    interior grid (its diagonal couplings are exact zeros), so the grid
    sine modes diagonalize it with eigenvalues
    sum_d (2 - 2 cos(pi i_d / m)) / m.  The fast Poisson solver of
    Buzbee, Golub & Nielson (SIAM J. Numer. Anal. 7, 1970), with matrix
    products for the transforms.
    """

    def __init__(self, m):
        self.m = m
        self.S = sine_table(m)
        d = (2.0 - 2.0 * np.cos(math.pi / m * np.arange(1, m))) / m
        lam = d[:, None, None] + d[None, :, None] + d[None, None, :]
        # S S = (m / 2) I, so each pair of transforms is scaled by 2 / m
        self.scale = ((2.0 / m) ** 3 / lam).reshape(-1, 1)

    def _transform(self, x):
        """S along each grid axis of the (n, L) block x (z fastest)."""
        k, L = self.m - 1, x.shape[1]
        x = self.S @ x.reshape(k, -1)                  # along x
        x = self.S @ x.reshape(k, k, k * L)            # along y
        return (self.S @ x.reshape(k, k, k, L)).reshape(-1, L)   # along z

    def solve(self, b):
        x = self._transform(np.reshape(b, (len(b), -1)))
        x *= self.scale
        return self._transform(x).reshape(np.shape(b))


def grid_modes(m, L):
    """The lowest cube modes whose indices are all below m (an index m
    vanishes on the grid, and 2m - i aliases i), at the interior
    vertices of the Kuhn mesh with m cells per axis, through the end of
    the shell of equal i^2 + j^2 + k^2 that holds the L-th of them.
    Returns the (n_interior, hi) block and lo, the number of its columns
    below that last shell.

    Interior vertex (a, b, c)/m, a, b, c = 1..m-1, z fastest, holds
    2 sqrt(2) S[i, a] S[j, b] S[k, c] with the sine table
    S[i, a] = sin(i pi a / m) (``sine_table``).
    """
    shells, I, J, K = cube_shells(3 * (m - 1) ** 2)   # holds every grid mode
    grid = np.maximum(np.maximum(I, J), K) < m
    shells = shells[grid]
    lo = np.searchsorted(shells, shells[L - 1], side="left")
    hi = np.searchsorted(shells, shells[L - 1], side="right")
    I, J, K = (a[grid][:hi] - 1 for a in (I, J, K))
    S = sine_table(m)
    X = (2.0 * math.sqrt(2.0) * S[I][:, :, None, None]
         * S[J][:, None, :, None] * S[K][:, None, None, :])
    return X.reshape(hi, -1).T, lo


def cube_start(mesh, L, seed=0):
    """(n_interior, L) start block: the lowest L grid modes
    (``grid_modes``).  The columns that fall in the last shell of equal
    i^2 + j^2 + k^2 are random combinations of the whole shell, so a
    block that ends inside a shell picks no mode of it over another.
    Each column then gets a standard normal perturbation of START_NOISE
    times its norm.  Both draws come from ``seed``.
    """
    if not 1 <= L <= mesh.n_interior:
        raise ValueError(f"need 1 <= L <= {mesh.n_interior}, got L={L}")
    X, lo = grid_modes(mesh.m, L)
    hi = X.shape[1]
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [X[:, :lo], X[:, lo:] @ rng.standard_normal((hi - lo, L - lo))])
    noise = rng.standard_normal(X.shape)
    noise *= START_NOISE * np.linalg.norm(X, axis=0) \
        / np.linalg.norm(noise, axis=0)
    return X + noise


@dataclass
class SpectralSet:
    """Ascending eigenvalues with mass-normalized eigenfunctions."""

    eigenvalues: np.ndarray        # (L,)
    coefficients: np.ndarray       # (nv, L), boundary rows zero
    residual_norms: np.ndarray
    mesh: object = field(repr=False, default=None)
    iterations: int = 0            # LOBPCG iterations; 0 on the dense path

    @property
    def count(self):
        return len(self.eigenvalues)

    def eigenfunction(self, l):
        """FeField for the l-th (0-based) eigenfunction."""
        return fem.FeField(self.mesh, self.coefficients[:, l].copy())


def assemble_hamiltonian(mesh, u, V0, rule=None, stiffness=None, mass=None):
    """(A, B) pencil for the potential u + V0, assembled as the reference
    K + W(V0) plus W(u); u and V0 may be None for zero.  A caller that
    holds K or B passes them as ``stiffness`` and ``mass``."""
    rule = rule or tet_rule(2)
    A = stiffness if stiffness is not None else fem.assemble_stiffness(mesh)
    if V0 is not None:
        W = fem.assemble_weighted_mass(mesh, V0, rule)
        A = SparseSymMatrix(A.csr + W.csr)
    B = mass if mass is not None else fem.assemble_mass(mesh)
    return _add_potential(A, mesh, u, rule), B


def _add_potential(A, mesh, u, rule=None):
    """A + W(u) for a P1 potential u vanishing on the boundary (A itself
    when u is None)."""
    if u is None:
        return A
    if np.any(u.coeffs[mesh.boundary_mask] != 0.0):
        raise ValueError("potential field must vanish on the boundary")
    W = fem.assemble_weighted_mass(mesh, u, rule)
    return SparseSymMatrix(A.csr + W.csr)


class SpectrumSolver:
    """Eigenpair provider for one mesh and applied potential.

    The reference pencil (K + W(V0), B) is assembled when the solver is
    made, from the caller's K and B when given; every ``solve`` adds
    W(u) to it and runs one eigensolve.  ``preconditioner``, the exact
    inverse of K (``SineInverse``), preconditions every LOBPCG solve.
    The solver carries more state between calls: ``dense_mass``, B
    densified at the first dense solve; and ``block``, the last
    eigenvector block, from which the next solve starts (with
    seeded random columns appended when L grows, and its leading L
    columns taken when L shrinks).  The first sparse solve starts from
    ``cube_start``, the perturbed cube modes, seeded by ``seed``; the
    dense path needs no start block.  ``mode_estimates`` estimates the
    levels of the reference pencil before any solve.  Each ``solve``
    runs to its own ``tol`` when given, else to the solver's: the SCF
    loop asks for loose early sweeps and ``tol`` itself at the end.
    """

    def __init__(self, mesh, V0, tol=DEFAULT_EIG_TOL, seed=0,
                 dense_cutoff=DENSE_CUTOFF, stiffness=None, mass=None):
        self.mesh = mesh
        self.tol = tol
        self.seed = seed
        self.dense_cutoff = dense_cutoff
        self.reference = assemble_hamiltonian(mesh, None, V0,
                                              stiffness=stiffness, mass=mass)
        self.preconditioner = SineInverse(mesh.m)
        self.dense_mass = None
        self.block = None

    def solve(self, u, L, tol=None):
        """SpectralSet of the L lowest levels for the potential u + V0,
        with eigen residuals at most ``tol`` (default ``self.tol``)."""
        mesh = self.mesh
        A0, B = self.reference
        A = _add_potential(A0, mesh, u)
        if dense_path(A.n, L, self.dense_cutoff):
            if self.dense_mass is None:
                self.dense_mass = B.toarray()
        elif self.block is None:
            self.block = cube_start(mesh, L, self.seed)
        result = lowest_eigenpairs(A, B, L,
                                   tol=self.tol if tol is None else tol,
                                   seed=self.seed,
                                   dense_cutoff=self.dense_cutoff,
                                   preconditioner=self.preconditioner,
                                   start=self.block, B_dense=self.dense_mass)
        self.block = result.vectors
        coeffs = np.zeros((mesh.n_vertices, L))
        coeffs[mesh.interior_vertices] = result.vectors
        return SpectralSet(result.values, coeffs, result.residual_norms,
                           mesh=mesh, iterations=result.iterations)

    def mode_estimates(self, count):
        """Ritz values of the reference pencil on the span of the lowest
        ``count`` grid modes (``grid_modes``, through the end of their
        last shell), ascending: estimates of the lowest levels before
        any eigensolve, each an upper bound of its level, that split
        the cube's shells as the Kuhn mesh does.  The mode block is
        freed on return."""
        A0, B = self.reference
        X, _ = grid_modes(self.mesh.m, min(count, self.mesh.n_interior))
        return sla.eigh(X.T @ (A0 @ X), X.T @ (B @ X), eigvals_only=True)
