"""Discrete Hamiltonian pencils and their lowest eigenpairs, and the
Laplacian eigenmodes of the unit cube they approach.

The Hamiltonian for a potential u + V0 is discretized as
A = (stiffness + weighted_mass(V0)) + weighted_mass(u) against the mass
matrix B, the bracket assembled once per solver, and
eigenfunctions are normalized in the L2 (mass-matrix) norm, which the
generalized eigensolver delivers directly.  The iterative eigensolve is
preconditioned by one multigrid V-cycle per solver on the shifted
reference pencil, and its first block is the cube's lowest modes at the
interior vertices (``cube_start``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .linsolve import (DEFAULT_EIG_TOL, DENSE_CUTOFF, SparseSymMatrix,
                       dense_path, lowest_eigenpairs, shifted_vcycle)
from .quadrature import tet_rule

PI2 = math.pi ** 2
# relative size of the seeded perturbation added to every column of the
# cube-mode start block: the Kuhn mesh, V0 and the V-cycle share the
# cube's symmetries, so an exact mode block would never reach a level
# of a symmetry class it lacks
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


def cube_eigensequence(count):
    """First ``count`` modes sorted by eigenvalue, ties by (i, j, k)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    bound = 4
    while True:
        modes = [(i * i + j * j + k * k, (i, j, k))
                 for i in range(1, bound + 1)
                 for j in range(1, bound + 1)
                 for k in range(1, bound + 1)]
        modes.sort()
        if len(modes) >= count:
            s_count = modes[count - 1][0]
            # complete iff no mode with an index beyond the bound can
            # undercut the count-th eigenvalue
            if s_count < (bound + 1) ** 2 + 2:
                break
        bound *= 2
    return [CubeMode(*ijk) for _, ijk in modes[:count]]


def cube_start(mesh, L, seed=0):
    """(n_interior, L) start block: the lowest L cube modes whose indices
    are all below m (an index m vanishes on the grid, and 2m - i aliases
    i), at the interior vertices.  The columns that fall in the last
    shell of equal i^2 + j^2 + k^2 are random combinations of the whole
    shell, so a block that ends inside a shell picks no mode of it
    over another.  Each column then gets a standard normal perturbation
    of START_NOISE times its norm.  Both draws come from ``seed``.

    Interior vertex (a, b, c)/m, a, b, c = 1..m-1, z fastest, holds
    2 sqrt(2) S[i, a] S[j, b] S[k, c] with the sine table
    S[i, a] = sin(i pi a / m).
    """
    m = mesh.m
    if not 1 <= L <= mesh.n_interior:
        raise ValueError(f"need 1 <= L <= {mesh.n_interior}, got L={L}")
    count = L
    while True:
        modes = [mode for mode in cube_eigensequence(count)
                 if max(mode.i, mode.j, mode.k) < m]
        shells = np.array([mode.i ** 2 + mode.j ** 2 + mode.k ** 2
                           for mode in modes])
        # the shell of the L-th mode is complete once a later one follows
        if len(modes) == mesh.n_interior or (
                len(modes) > L and shells[-1] > shells[L - 1]):
            break
        count *= 2
    lo = np.searchsorted(shells, shells[L - 1], side="left")
    hi = np.searchsorted(shells, shells[L - 1], side="right")
    idx = np.arange(1, m)
    S = np.sin(math.pi / m * np.outer(idx, idx))     # S[i - 1, a - 1]
    I, J, K = (np.array([getattr(mode, ax) for mode in modes[:hi]]) - 1
               for ax in "ijk")
    X = (2.0 * math.sqrt(2.0) * S[I][:, :, None, None]
         * S[J][:, None, :, None] * S[K][:, None, None, :])
    X = X.reshape(hi, -1).T
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
    W(u) to it and runs one eigensolve.  The solver carries more state
    between calls: ``dense_mass``, B densified at the first dense
    solve; ``factor``, the V-cycle (``shifted_vcycle``) of the shifted
    reference pencil K + W(V0) + sB, built at the first sparse solve and
    used as the LOBPCG preconditioner for every u; and ``block``, the
    last eigenvector block, from which the next solve starts (with
    seeded random columns appended when L grows, and its leading L
    columns taken when L shrinks).  The first sparse solve starts from
    ``cube_start``, the perturbed cube modes, seeded by ``seed``; the
    dense path needs no start block.  Each ``solve`` runs to its own
    ``tol`` when given, else to the solver's: the SCF loop asks for
    loose early sweeps and ``tol`` itself at the end.
    """

    def __init__(self, mesh, V0, tol=DEFAULT_EIG_TOL, seed=0,
                 dense_cutoff=DENSE_CUTOFF, stiffness=None, mass=None):
        self.mesh = mesh
        self.tol = tol
        self.seed = seed
        self.dense_cutoff = dense_cutoff
        self.reference = assemble_hamiltonian(mesh, None, V0,
                                              stiffness=stiffness, mass=mass)
        self.dense_mass = None
        self.factor = None
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
        else:
            if self.factor is None:
                self.factor = shifted_vcycle(A0, B, mesh.m)
            if self.block is None:
                self.block = cube_start(mesh, L, self.seed)
        result = lowest_eigenpairs(A, B, L,
                                   tol=self.tol if tol is None else tol,
                                   seed=self.seed,
                                   dense_cutoff=self.dense_cutoff,
                                   preconditioner=self.factor,
                                   start=self.block, B_dense=self.dense_mass)
        self.block = result.vectors
        coeffs = np.zeros((mesh.n_vertices, L))
        coeffs[mesh.interior_vertices] = result.vectors
        return SpectralSet(result.values, coeffs, result.residual_norms,
                           mesh=mesh)
