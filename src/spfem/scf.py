"""Discrete Poisson solves and the fixed-point self-consistency loop.

The discrete solution is the fixed point u = A(u) with
A(u) = K^{-1} (load(n[u]) - load(n_D)).  The doping load b_D =
load(n_D) does not depend on u and is assembled once per solve.  Each
sweep solves the spectral problem for the current potential, rebuilds
occupations and density, and solves K V = load(density) - b_D;
optional damping blends consecutive iterates.
Sweeps share one spectral solver (its preconditioner and last
eigenvector block), which shares the loop's stiffness and mass
matrices, and start their level budget at the previous level count.
The loop stops on a relative H1 increment and never raises on plain
non-convergence (the report carries the flag), while structural
failures such as truncation overflow propagate as exceptions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .linsolve import DEFAULT_EIG_TOL, DEFAULT_PCG_TOL, pcg_solve
from .mesh import mesh_size
from .occupancy import build_density, determine_occupation
from .quadrature import tet_rule
from .spectrum import SpectrumSolver


@dataclass
class ScfConfig:
    tol_rel: float = 1e-8
    max_iter: int = 200
    damping: float = 1.0
    L_max: int = 512
    eig_tol: float = DEFAULT_EIG_TOL
    seed: int = 0

    def __post_init__(self):
        if self.tol_rel <= 0:
            raise ValueError("tol_rel must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.L_max < 1:
            raise ValueError("L_max must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class ScfModel:
    """Applied potential, doping profile, and occupation parameters."""

    V0: object
    n_D: object
    params: object


@dataclass
class IterationRecord:
    iteration: int
    increment_h1: float
    fermi_level: float
    level_count: int
    occupation_error: float       # |sum occupations - N0|
    density_integral_error: float  # |int density - N0|


@dataclass
class ScfReport:
    potential: fem.FeField
    density: object
    occupation: object
    iterations: list = field(default_factory=list)
    converged: bool = False
    self_consistency_h1: float = float("nan")


def poisson_solve(mesh, load, tol=DEFAULT_PCG_TOL, stiffness=None):
    """Galerkin solution of the Dirichlet Poisson problem for an
    assembled interior load vector (``fem.assemble_load`` of the
    right-hand side)."""
    K = stiffness if stiffness is not None else fem.assemble_stiffness(mesh)
    x = pcg_solve(K, load, tol=tol)
    return fem.FeField.from_interior(mesh, x)


def _h1(K, M, vec):
    return math.sqrt(max(vec @ (K @ vec) + vec @ (M @ vec), 0.0))


def fixed_point_solve(mesh, model, cfg=None, V_init=None):
    """Run the self-consistency iteration and return an ScfReport."""
    cfg = cfg or ScfConfig()
    p = model.params
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    rule = tet_rule(4)
    h = mesh_size(mesh)
    solver = SpectrumSolver(mesh, model.V0, tol=cfg.eig_tol, seed=cfg.seed,
                            stiffness=K, mass=M)
    doping = fem.assemble_load(mesh, model.n_D, rule)

    def occupation_at(u, L0):
        spectral, occ = determine_occupation(
            mesh, lambda L: solver.solve(u, L), p, h, L_max=cfg.L_max,
            L0=L0)
        return spectral, occ, build_density(spectral, occ)

    def potential_of(density):
        load = fem.assemble_load(mesh, density, rule) - doping
        return poisson_solve(mesh, load, stiffness=K)

    V = V_init if V_init is not None else fem.FeField.zero(mesh)
    records = []
    converged = False
    L0 = None   # each level budget starts where the previous one ended
    for k in range(1, cfg.max_iter + 1):
        spectral, occ, density = occupation_at(V, L0)
        L0 = spectral.count
        V_raw = potential_of(density)
        V_new = (1.0 - cfg.damping) * V + cfg.damping * V_raw
        diff = V_new.interior() - V.interior()
        inc = _h1(K, M, diff)
        records.append(IterationRecord(
            iteration=k,
            increment_h1=inc,
            fermi_level=occ.fermi_level,
            level_count=occ.level_count,
            occupation_error=abs(float(np.sum(occ.occupations)) - p.N0),
            density_integral_error=abs(density.integral() - p.N0),
        ))
        V = V_new
        if inc <= cfg.tol_rel * (1.0 + _h1(K, M, V.interior())):
            converged = True
            break

    # final state: density and self-consistency residual at the last iterate
    spectral, occ, density = occupation_at(V, L0)
    V_mapped = potential_of(density)
    self_res = _h1(K, M, V.interior() - V_mapped.interior())
    return ScfReport(potential=V, density=density, occupation=occ,
                     iterations=records, converged=converged,
                     self_consistency_h1=self_res)
