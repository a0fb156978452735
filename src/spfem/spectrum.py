"""Discrete Hamiltonian pencils and their lowest eigenpairs.

The Hamiltonian for a potential u + V0 is discretized as
A = stiffness + weighted_mass(u + V0) against the mass matrix B, and
eigenfunctions are normalized in the L2 (mass-matrix) norm, which the
generalized eigensolver delivers directly.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .linsolve import (DEFAULT_EIG_TOL, DENSE_CUTOFF, SparseSymMatrix,
                       dense_path, lowest_eigenpairs, shifted_factor)
from .quadrature import tet_rule


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


def assemble_hamiltonian(mesh, u, V0, rule=None):
    """(A, B) pencil for the potential u + V0; u may be None for zero."""
    rule = rule or tet_rule(2)
    if u is not None and np.any(u.coeffs[mesh.boundary_mask] != 0.0):
        raise ValueError("potential field must vanish on the boundary")
    A = assemble_stiffness_cached(mesh)
    terms = []
    if u is not None:
        terms.append((1.0, u))
    if V0 is not None:
        terms.append((1.0, V0))
    if terms:
        W = fem.assemble_weighted_mass(mesh, fem.LinearCombination(terms), rule)
        A = SparseSymMatrix(A.csr + W.csr)
    return A, assemble_mass_cached(mesh)


# Stiffness and mass depend only on the mesh; cache them on the mesh
# object so repeated spectral solves in one study reuse the assembly.
def assemble_stiffness_cached(mesh):
    K = getattr(mesh, "_stiffness", None)
    if K is None:
        K = fem.assemble_stiffness(mesh)
        mesh._stiffness = K
    return K


def assemble_mass_cached(mesh):
    M = getattr(mesh, "_mass", None)
    if M is None:
        M = fem.assemble_mass(mesh)
        mesh._mass = M
    return M


class SpectrumSolver:
    """Eigenpair provider for one mesh and applied potential.

    Every ``solve`` assembles the pencil for u + V0 and runs one
    eigensolve.  The solver carries two pieces of state between calls
    on the iterative path: ``factor``, the LU of the shifted reference
    pencil K + W(V0) + sB, built at the first sparse solve and used as
    the LOBPCG preconditioner for every u, and ``block``, the last
    eigenvector block, from which the next solve starts (with seeded
    random columns appended when L grows).
    """

    def __init__(self, mesh, V0, tol=DEFAULT_EIG_TOL, seed=0,
                 dense_cutoff=DENSE_CUTOFF):
        self.mesh = mesh
        self.V0 = V0
        self.tol = tol
        self.seed = seed
        self.dense_cutoff = dense_cutoff
        self.factor = None
        self.block = None

    def solve(self, u, L):
        """SpectralSet of the L lowest levels for the potential u + V0."""
        mesh = self.mesh
        A, B = assemble_hamiltonian(mesh, u, self.V0)
        if self.factor is None and not dense_path(A.n, L, self.dense_cutoff):
            self.factor = shifted_factor(
                *assemble_hamiltonian(mesh, None, self.V0))
        result = lowest_eigenpairs(A, B, L, tol=self.tol, seed=self.seed,
                                   dense_cutoff=self.dense_cutoff,
                                   factor=self.factor, start=self.block)
        self.block = result.vectors
        coeffs = np.zeros((mesh.n_vertices, L))
        coeffs[mesh.interior_vertices] = result.vectors
        return SpectralSet(result.values, coeffs, result.residual_norms,
                           mesh=mesh)
