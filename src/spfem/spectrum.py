"""Discrete Hamiltonian pencils and their lowest eigenpairs.

The Hamiltonian for a potential u + V0 is discretized as
A = (stiffness + weighted_mass(V0)) + weighted_mass(u) against the mass
matrix B, the bracket assembled once per solver, and
eigenfunctions are normalized in the L2 (mass-matrix) norm, which the
generalized eigensolver delivers directly.  The iterative eigensolve is
preconditioned by one multigrid V-cycle per solver on the shifted
reference pencil.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .linsolve import (DEFAULT_EIG_TOL, DENSE_CUTOFF, SparseSymMatrix,
                       dense_path, lowest_eigenpairs, shifted_vcycle)
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
    seeded random columns appended when L grows).
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

    def solve(self, u, L):
        """SpectralSet of the L lowest levels for the potential u + V0."""
        mesh = self.mesh
        A0, B = self.reference
        A = _add_potential(A0, mesh, u)
        if dense_path(A.n, L, self.dense_cutoff):
            if self.dense_mass is None:
                self.dense_mass = B.toarray()
        elif self.factor is None:
            self.factor = shifted_vcycle(A0, B, mesh.m)
        result = lowest_eigenpairs(A, B, L, tol=self.tol, seed=self.seed,
                                   dense_cutoff=self.dense_cutoff,
                                   preconditioner=self.factor,
                                   start=self.block, B_dense=self.dense_mass)
        self.block = result.vectors
        coeffs = np.zeros((mesh.n_vertices, L))
        coeffs[mesh.interior_vertices] = result.vectors
        return SpectralSet(result.values, coeffs, result.residual_norms,
                           mesh=mesh)
