"""Discrete Poisson solves and the fixed-point self-consistency loop.

The discrete solution is the fixed point u = A(u) with
A(u) = K^{-1} (load(n[u]) - load(n_D)).  The doping load b_D =
load(n_D) does not depend on u and is assembled once per solve.  Each
sweep solves the spectral problem for the current potential, rebuilds
occupations and density, and solves K V = load(density) - b_D.
The sweep's operators take the P1 data they are given in closed form,
as stencils on the interior grid: the weighted mass W(u) of the iterate
(``fem.assemble_weighted_mass`` of an ``FeField``), added to the
reference pencil's data, and the density's Gram, load and integral
(``occupancy.DensityField``).  No element quadrature of the iterate or
of its density runs in the loop; b_D and W(V0), of analytic fields,
are the solve's only quadratures.
The next iterate is Anderson-mixed (Walker & Ni, SIAM J. Numer. Anal.
49, 2011; Pulay's DIIS) on the interior potential vector over the last
``ANDERSON_DEPTH`` sweeps, with ``damping`` as the mixing weight; the
first sweep, with no history, is the damped update
(1 - damping) V + damping A(V).  Plain Picard iteration needs A to be
a contraction; Anderson mixing only needs I - A' to be invertible near
the fixed point, which is what the error theory assumes.
Sweeps share one spectral solver (its last eigenvector block), which
shares the loop's stiffness matrix and holds the mass matrix the loop
reads back.
Each sweep's eigenproblem is solved only as accurately and as wide as
the iteration needs.  Inexact Newton theory (Dembo, Eisenstat &
Steihaug, SIAM J. Numer. Anal. 19, 1982) keeps the outer convergence
when the inner accuracy is proportional to the outer residual, so a
sweep's eigen tolerance is ``EIG_FORCING`` times the previous H1
increment, clipped to [eig_tol, ``EIG_TOL_MAX``] (``sweep_eig_tol``);
the first sweep, from an unrelated start, gets ``EIG_TOL_MAX``.  A
sweep's level budget reaches ``need``, the first level more than
window + 1 above the Fermi level, and ends at the first relative gap
above ``LEVEL_GAP`` at or after it (``level_budget``): the top columns
of a LOBPCG block converge at a rate set by the relative gap to the
first level outside it (Knyazev, SIAM J. Sci. Comput. 23, 2001), and
the Kuhn mesh splits each shell of the cube's spectrum into clusters a
few per cent apart.  Each later sweep applies the rule to
its predecessor's levels; the levels beyond ``need`` carry occupation
exactly 0.  The first sweep applies it to estimates: the Ritz values
of the reference pencil on the span of twice as many grid modes of the
cube as there are continuum levels s pi^2 to the window's end
(``estimated_level_budget``), so it does not double up from a guess;
on the sparse path its eigensolve starts from the Ritz vectors of the
same projection, perturbed (``SpectrumSolver.mode_estimates``).
The loop stops on a relative H1 increment, only on a sweep whose
eigen residuals meet eig_tol, and never raises on plain
non-convergence (the report carries the flag), while structural
failures such as truncation overflow propagate as exceptions.  The
final-state solve, whose density the report returns, runs at eig_tol.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import InfeasibleOccupationError
from .linsolve import DEFAULT_EIG_TOL, DEFAULT_PCG_TOL, pcg_solve
from .mesh import mesh_size
from .occupancy import (build_density, determine_occupation, solve_fermi,
                        truncation_bound)
from .quadrature import tet_rule
from .spectrum import SineInverse, SpectrumSolver, cube_eigensequence

# number of previous sweeps whose differences enter the Anderson step
ANDERSON_DEPTH = 5
# a sweep's eigen tolerance is EIG_FORCING times the previous H1
# increment, at most EIG_TOL_MAX and at least the configured eig_tol
EIG_TOL_MAX = 1e-5
EIG_FORCING = 1e-3
# a level budget ends at a level more than LEVEL_GAP (relative) below
# the next one, so that no block ends inside a cluster: at m = 16 the
# splits within a shell measured 1.8-3.3 %, the gaps between clusters
# 7.8-16 %
LEVEL_GAP = 0.04


@dataclass
class ScfConfig:
    tol_rel: float = 1e-8
    max_iter: int = 200
    damping: float = 1.0      # mixing weight beta of the Anderson step
    L_max: int = 512
    eig_tol: float = DEFAULT_EIG_TOL
    seed: int = 0

    def __post_init__(self):
        for name in ("tol_rel", "eig_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
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
    increment_ratio: float        # increment_h1 over the previous one
                                  # (NaN on sweep 1 or after a zero one)
    fermi_level: float
    level_count: int
    occupation_error: float       # |sum occupations - N0|
    density_integral_error: float  # |int density - N0|
    eig_tol: float                # tolerance of the sweep's eigensolves
    levels: int                   # levels the sweep's eigensolve computed
    eig_solves: int               # eigensolves of the sweep: 1 + doublings
    eig_iterations: int           # LOBPCG iterations of those eigensolves


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
    right-hand side): CG preconditioned by the exact inverse of the
    stiffness (``SineInverse``), which meets ``tol`` in one step and
    keeps CG's residual check."""
    K = stiffness if stiffness is not None else fem.assemble_stiffness(mesh)
    x = pcg_solve(K, load, tol=tol, preconditioner=SineInverse(mesh.m))
    return fem.FeField.from_interior(mesh, x)


def sweep_eig_tol(eig_tol, increment):
    """Eigen tolerance of a sweep whose predecessor moved the potential
    by ``increment`` in H1 (math.inf for the first sweep):
    EIG_FORCING * increment, clipped to [eig_tol, EIG_TOL_MAX]."""
    return max(eig_tol, min(EIG_TOL_MAX, EIG_FORCING * increment))


def level_budget(lam, fermi, window):
    """Level budget for the ascending levels ``lam``: up to ``need``,
    the first level more than window + 1 above ``fermi``, then on to the
    first relative gap above LEVEL_GAP at or after it; all of lam when
    no such gap follows, None when no level lies past window + 1."""
    beyond = np.flatnonzero(lam - fermi > window + 1.0)
    if beyond.size == 0:
        return None
    need = int(beyond[0]) + 1
    gap = np.diff(lam[need - 1:]) > LEVEL_GAP * np.abs(lam[need:])
    return need + int(np.argmax(gap)) if gap.any() else len(lam)


def estimated_level_budget(solver, p, h, cap):
    """Level budget of the first sweep: ``level_budget`` of the
    ``solver``'s mode estimates (``SpectrumSolver.mode_estimates``),
    taken from twice as many grid modes as the ``level_budget`` of the
    continuum levels s pi^2; the same call leaves the solver its first
    start block.  None (``determine_occupation``'s default)
    when the window does not fit in ``cap`` continuum levels or in the
    estimates, or when a Fermi-Dirac sum over them cannot hold N0."""
    window = truncation_bound(h, p)

    def budget(lam):
        try:
            return level_budget(lam, solve_fermi(lam, p, window), window)
        except InfeasibleOccupationError:
            return None
    continuum = budget(np.array([mode.lam
                                 for mode in cube_eigensequence(cap)]))
    if continuum is None:
        return None
    return budget(solver.mode_estimates(2 * continuum))


def _h1(K, M, vec):
    return math.sqrt(max(vec @ (K @ vec) + vec @ (M @ vec), 0.0))


class _Anderson:
    """Anderson mixing of the iterates x -> g = A(x) of a fixed-point map
    over the last ``ANDERSON_DEPTH`` steps, with mixing weight beta.

    Each step returns x + beta f - (dX + beta dF) gamma, f = g - x, where
    dX, dF hold the differences of consecutive x and f and gamma is the
    least-squares solution of dF gamma = f; the first step, with no
    history, is (1 - beta) x + beta g.
    """

    def __init__(self, beta):
        self.beta = beta
        self.history = deque(maxlen=ANDERSON_DEPTH)   # (dx, df) pairs
        self.last = None                              # (x, f)

    def step(self, x, g):
        f = g - x
        if self.last is not None:
            self.history.append((x - self.last[0], f - self.last[1]))
        self.last = (x, f)
        x_new = (1.0 - self.beta) * x + self.beta * g
        if self.history:
            dX, dF = (np.column_stack(d) for d in zip(*self.history))
            gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
            x_new -= (dX + self.beta * dF) @ gamma
        return x_new


def fixed_point_solve(mesh, model, cfg=None, V_init=None):
    """Run the self-consistency iteration and return an ScfReport.

    ``V_init`` is a start potential with zero boundary values."""
    cfg = cfg or ScfConfig()
    p = model.params
    K = fem.assemble_stiffness(mesh)
    rule = tet_rule(4)
    h = mesh_size(mesh)
    solver = SpectrumSolver(mesh, model.V0, tol=cfg.eig_tol, seed=cfg.seed,
                            stiffness=K)
    M = solver.reference[1]
    doping = fem.assemble_load(mesh, model.n_D, rule)

    def occupation_at(u, L0, tol):
        iterations = []       # per eigensolve

        def solve(L):
            spectral = solver.solve(u, L, tol)
            iterations.append(spectral.iterations)
            return spectral
        spectral, occ = determine_occupation(mesh, solve, p, h,
                                             L_max=cfg.L_max, L0=L0)
        return spectral, occ, build_density(spectral, occ), iterations

    def potential_of(density):
        load = fem.assemble_load(mesh, density, rule) - doping
        return poisson_solve(mesh, load, stiffness=K)

    V = V_init if V_init is not None else fem.FeField.zero(mesh)
    records = []
    converged = False
    # the first level budget comes from estimates of the levels, each
    # later one from the previous sweep's levels
    L0 = estimated_level_budget(solver, p, h,
                                min(cfg.L_max, mesh.n_interior))
    prev = math.inf   # H1 increment of the previous sweep
    mixer = _Anderson(cfg.damping)
    for k in range(1, cfg.max_iter + 1):
        tol = sweep_eig_tol(cfg.eig_tol, prev)
        spectral, occ, density, iterations = occupation_at(V, L0, tol)
        L0 = level_budget(spectral.eigenvalues, occ.fermi_level, occ.window)
        x = V.interior()
        x_new = mixer.step(x, potential_of(density).interior())
        inc = _h1(K, M, x_new - x)
        records.append(IterationRecord(
            iteration=k,
            increment_h1=inc,
            increment_ratio=inc / prev if 0 < prev < math.inf else math.nan,
            fermi_level=occ.fermi_level,
            level_count=occ.level_count,
            occupation_error=abs(float(np.sum(occ.occupations)) - p.N0),
            density_integral_error=abs(density.integral() - p.N0),
            eig_tol=tol,
            levels=spectral.count,
            eig_solves=len(iterations),
            eig_iterations=sum(iterations),
        ))
        V = fem.FeField.from_interior(mesh, x_new)
        # a loose sweep may not stop the loop, though the dense path
        # meets eig_tol whatever it was asked for
        exact = np.max(spectral.residual_norms) <= cfg.eig_tol
        if exact and inc <= cfg.tol_rel * (1.0 + _h1(K, M, x_new)):
            converged = True
            break
        prev = inc

    # final state: density and self-consistency residual at the last iterate
    spectral, occ, density, _ = occupation_at(V, L0, cfg.eig_tol)
    V_mapped = potential_of(density)
    self_res = _h1(K, M, V.interior() - V_mapped.interior())
    return ScfReport(potential=V, density=density, occupation=occ,
                     iterations=records, converged=converged,
                     self_consistency_h1=self_res)
