"""Discrete Hamiltonian pencils and their lowest eigenpairs.

The Hamiltonian for a potential u + V0 is discretized as
A = (stiffness + weighted_mass(V0)) + weighted_mass(u) against the mass
matrix B, the bracket assembled once per solver, and
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
    """(A, B) pencil for the potential u + V0, assembled as the reference
    K + W(V0) plus W(u); u and V0 may be None for zero."""
    rule = rule or tet_rule(2)
    A = fem.assemble_stiffness(mesh)
    if V0 is not None:
        W = fem.assemble_weighted_mass(mesh, V0, rule)
        A = SparseSymMatrix(A.csr + W.csr)
    return _add_potential(A, mesh, u, rule), fem.assemble_mass(mesh)


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

    The reference pencil (K + W(V0), B) is assembled at the first
    ``solve``; every ``solve`` adds W(u) to it and runs one eigensolve.
    The solver carries two more pieces of state between calls on the
    iterative path: ``factor``, the LU of the shifted reference pencil
    K + W(V0) + sB, built at the first sparse solve and used as the
    LOBPCG preconditioner for every u, and ``block``, the last
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
        self.reference = None
        self.factor = None
        self.block = None

    def solve(self, u, L):
        """SpectralSet of the L lowest levels for the potential u + V0."""
        mesh = self.mesh
        if self.reference is None:
            self.reference = assemble_hamiltonian(mesh, None, self.V0)
        A0, B = self.reference
        A = _add_potential(A0, mesh, u)
        if self.factor is None and not dense_path(A.n, L, self.dense_cutoff):
            self.factor = shifted_factor(A0, B)
        result = lowest_eigenpairs(A, B, L, tol=self.tol, seed=self.seed,
                                   dense_cutoff=self.dense_cutoff,
                                   factor=self.factor, start=self.block)
        self.block = result.vectors
        coeffs = np.zeros((mesh.n_vertices, L))
        coeffs[mesh.interior_vertices] = result.vectors
        return SpectralSet(result.values, coeffs, result.residual_norms,
                           mesh=mesh)
