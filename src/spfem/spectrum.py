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
its first block is the Ritz vectors of the reference pencil on the
cube's lowest modes at the interior vertices
(``SpectrumSolver.mode_estimates``).  The dense eigensolve of a pencil
that keeps the mesh's symmetries takes the mesh's six symmetry classes
(``symmetry.class_split``), each class block apart.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import fem, symmetry
from .linsolve import (DEFAULT_EIG_TOL, DENSE_CUTOFF, dense_path,
                       lowest_eigenpairs)
from .quadrature import tet_rule

PI2 = math.pi ** 2
# relative size of the seeded perturbation added to every column of the
# first LOBPCG block, the Ritz vectors on the grid modes: the Kuhn mesh,
# V0 and the sine-transform preconditioner share the cube's symmetries,
# so an exact Ritz block would never reach a level of a symmetry class
# it lacks, nor the partner of a degenerate pair it cuts
START_NOISE = 1e-2
# relative asymmetry (``symmetry.asymmetry``) of the reference pencil and
# of the vertex values of u up to which the dense solve splits the pencil
# into its symmetry classes; the benchmarks' SCF iterates reach 7.1e-10
# (m = 8, N0 = 3000, where each sweep amplifies the rounding asymmetry
# about fivefold), and a tilted potential is of order one
SYMMETRY_TOL = 1e-8


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
    """(n_interior, hi) block of the lowest cube modes whose indices are
    all below m (an index m vanishes on the grid, and 2m - i aliases i),
    at the interior vertices of the Kuhn mesh with m cells per axis,
    through the end of the shell of equal i^2 + j^2 + k^2 that holds the
    L-th of them.

    Interior vertex (a, b, c)/m, a, b, c = 1..m-1, z fastest, holds
    2 sqrt(2) S[i, a] S[j, b] S[k, c] with the sine table
    S[i, a] = sin(i pi a / m) (``sine_table``).
    """
    shells, I, J, K = cube_shells(3 * (m - 1) ** 2)   # holds every grid mode
    grid = np.maximum(np.maximum(I, J), K) < m
    shells = shells[grid]
    hi = np.searchsorted(shells, shells[L - 1], side="right")
    I, J, K = (a[grid][:hi] - 1 for a in (I, J, K))
    S = sine_table(m)
    X = (2.0 * math.sqrt(2.0) * S[I][:, :, None, None]
         * S[J][:, None, :, None] * S[K][:, None, None, :])
    return X.reshape(hi, -1).T


@dataclass
class SpectralSet:
    """Ascending eigenvalues with mass-normalized eigenfunctions."""

    eigenvalues: np.ndarray        # (L,)
    coefficients: np.ndarray       # (nv, L), boundary rows zero
    residual_norms: np.ndarray
    mesh: object = field(repr=False, default=None)
    iterations: int = 0            # LOBPCG iterations; 0 on the dense path
    classes: int = 1               # symmetry classes solved apart: 6 or 1

    @property
    def count(self):
        return len(self.eigenvalues)


def assemble_hamiltonian(mesh, u, V0, rule=None, stiffness=None):
    """(A, B) pencil for the potential u + V0, assembled as the reference
    K + W(V0) plus W(u), with B the mass matrix; u and V0 may be None
    for zero.  A caller that holds K passes it as ``stiffness``."""
    rule = rule or tet_rule(2)
    A = stiffness if stiffness is not None else fem.assemble_stiffness(mesh)
    if V0 is not None:
        A = fem.pattern_sum(mesh, A, fem.assemble_weighted_mass(mesh, V0,
                                                                rule))
    return _add_potential(A, mesh, u, rule), fem.assemble_mass(mesh)


def _add_potential(A, mesh, u, rule=None):
    """A + W(u) for a P1 potential u vanishing on the boundary (A itself
    when u is None)."""
    if u is None:
        return A
    if np.any(u.coeffs[mesh.boundary_mask] != 0.0):
        raise ValueError("potential field must vanish on the boundary")
    return fem.pattern_sum(mesh, A, fem.assemble_weighted_mass(mesh, u, rule))


class SpectrumSolver:
    """Eigenpair provider for one mesh and applied potential.

    The reference pencil (K + W(V0), M), M the mass matrix, is
    assembled when the solver is made, from the caller's K when given;
    every ``solve`` adds W(u) to it and runs one eigensolve.
    ``preconditioner``, the exact inverse of K (``SineInverse``),
    preconditions every LOBPCG solve.  A dense solve takes the mesh's
    six symmetry classes (``symmetry.class_split``, built once per mesh)
    when the solver is ``symmetric`` and the vertex values of u are
    invariant under the mesh's symmetries to SYMMETRY_TOL, and the whole
    pencil otherwise or when the class solve misses the tolerance.
    ``symmetric`` is fixed when the solver is made: it holds when the
    mesh has at most ``dense_cutoff`` unknowns and the reference pencil
    keeps the symmetries to SYMMETRY_TOL (M always keeps them).
    The solver's state between calls is ``block``, the last eigenvector
    block, from which the next solve starts (with seeded random columns
    appended when L grows, and its leading L columns taken when L
    shrinks).  ``mode_estimates`` estimates the levels of the reference
    pencil before any solve and, while there is no block, keeps its
    perturbed Ritz vectors as the block, seeded by ``seed``, unless
    every solve takes the dense path, which needs no start block; a
    first sparse solve without a block calls it for L levels.  Each
    ``solve`` runs to its own ``tol`` when given, else to the solver's:
    the SCF loop asks for loose early sweeps and ``tol`` itself at the
    end.
    """

    def __init__(self, mesh, V0, tol=DEFAULT_EIG_TOL, seed=0,
                 dense_cutoff=DENSE_CUTOFF, stiffness=None):
        self.mesh = mesh
        self.tol = tol
        self.seed = seed
        self.dense_cutoff = dense_cutoff
        self.reference = assemble_hamiltonian(mesh, None, V0,
                                              stiffness=stiffness)
        self.preconditioner = SineInverse(mesh.m)
        self.symmetric = mesh.n_interior <= dense_cutoff and \
            symmetry.asymmetry(mesh.m, self.reference[0].csr) <= SYMMETRY_TOL
        self.block = None

    def solve(self, u, L, tol=None):
        """SpectralSet of the L lowest levels for the potential u + V0,
        with eigen residuals at most ``tol`` (default ``self.tol``)."""
        mesh = self.mesh
        A0, B = self.reference
        A = _add_potential(A0, mesh, u)
        classes = None
        if dense_path(A.n, L, self.dense_cutoff):
            if self.symmetric and (u is None or symmetry.asymmetry(
                    mesh.m, u.interior()) <= SYMMETRY_TOL):
                classes = symmetry.class_split(mesh)
        else:
            if self.block is None:
                self.mode_estimates(L)
            if self.block.shape[1] > L:
                self.block = self.block[:, :L].copy()
        result = lowest_eigenpairs(A, B, L,
                                   tol=self.tol if tol is None else tol,
                                   seed=self.seed,
                                   dense_cutoff=self.dense_cutoff,
                                   preconditioner=self.preconditioner,
                                   start=self.block, classes=classes)
        self.block = result.vectors
        coeffs = np.zeros((mesh.n_vertices, L))
        coeffs[mesh.interior_vertices] = result.vectors
        return SpectralSet(result.values, coeffs, result.residual_norms,
                           mesh=mesh, iterations=result.iterations,
                           classes=result.classes)

    def mode_estimates(self, count):
        """Ritz values of the reference pencil on the span of the lowest
        ``count`` grid modes (``grid_modes``, through the end of their
        last shell), ascending: estimates of the lowest levels before
        any eigensolve, each an upper bound of its level, that split
        the cube's shells as the Kuhn mesh does.  A solver without a
        ``block`` that can take the sparse path (more than
        ``dense_cutoff`` unknowns) keeps the B-orthonormal Ritz vectors
        as its block, each column plus a standard normal draw from
        ``seed`` scaled to START_NOISE of its norm."""
        if count < 1:
            raise ValueError("count must be >= 1")
        A0, B = self.reference
        X = grid_modes(self.mesh.m, min(count, self.mesh.n_interior))
        w, V = sla.eigh(X.T @ (A0 @ X), X.T @ (B @ X))
        if self.block is None and self.mesh.n_interior > self.dense_cutoff:
            X = X @ V
            noise = np.random.default_rng(self.seed).standard_normal(X.shape)
            noise *= START_NOISE * np.linalg.norm(X, axis=0) \
                / np.linalg.norm(noise, axis=0)
            X += noise
            self.block = X
        return w
