"""Discrete Poisson solves and the fixed-point self-consistency loop.

The discrete solution is the fixed point u = A(u) with
A(u) = K^{-1} (load(n[u]) - load(n_D)).  The doping load b_D =
load(n_D) does not depend on u and is assembled once per solve.  Each
sweep solves the spectral problem for the current potential, rebuilds
occupations and density, and solves K V = load(density) - b_D.
The next iterate is Anderson-mixed (Walker & Ni, SIAM J. Numer. Anal.
49, 2011; Pulay's DIIS) on the interior potential vector over the last
``ANDERSON_DEPTH`` sweeps, with ``damping`` as the mixing weight; the
first sweep, with no history, is the damped update
(1 - damping) V + damping A(V).  Plain Picard iteration needs A to be
a contraction; Anderson mixing only needs I - A' to be invertible near
the fixed point, which is what the error theory assumes.
Sweeps share one spectral solver (its preconditioner and last
eigenvector block), which shares the loop's stiffness and mass
matrices.
Each sweep's eigenproblem is solved only as accurately and as wide as
the iteration needs.  Inexact Newton theory (Dembo, Eisenstat &
Steihaug, SIAM J. Numer. Anal. 19, 1982) keeps the outer convergence
when the inner accuracy is proportional to the outer residual, so a
sweep's eigen tolerance is ``EIG_FORCING`` times the previous H1
increment, clipped to [eig_tol, ``EIG_TOL_MAX``] (``sweep_eig_tol``);
the first sweep, from an unrelated start, gets ``EIG_TOL_MAX``.  The
first sweep's level budget is the count of continuum levels s pi^2
that reach one unit past the window, to the end of their shell
(``first_level_budget``), so it does not double up from a guess; its
eigensolve starts from the cube modes themselves (``SpectrumSolver``).
The level budget of each later sweep is ``LEVEL_MARGIN`` times the
levels of its predecessor that reach one unit past the window, moved
up to the next relative gap above ``LEVEL_GAP`` (``next_level_budget``);
the levels beyond carry occupation exactly 0.
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
from .spectrum import SpectrumSolver, cube_eigensequence

# number of previous sweeps whose differences enter the Anderson step
ANDERSON_DEPTH = 5
# a sweep's eigen tolerance is EIG_FORCING times the previous H1
# increment, at most EIG_TOL_MAX and at least the configured eig_tol
EIG_TOL_MAX = 1e-5
EIG_FORCING = 1e-3
# the next level budget is LEVEL_MARGIN times the levels reaching the
# end of the cutoff, so the spectrum may drift without a budget doubling,
# extended to the next level more than LEVEL_GAP above its predecessor
# (relative), so that no block ends inside a cluster
LEVEL_MARGIN = 1.25
LEVEL_GAP = 0.02


@dataclass
class ScfConfig:
    tol_rel: float = 1e-8
    max_iter: int = 200
    damping: float = 1.0      # mixing weight beta of the Anderson step
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
    increment_ratio: float        # increment_h1 over the previous one
                                  # (NaN on sweep 1 or after a zero one)
    fermi_level: float
    level_count: int
    occupation_error: float       # |sum occupations - N0|
    density_integral_error: float  # |int density - N0|
    eig_tol: float                # tolerance of the sweep's eigensolves
    levels: int                   # levels the sweep's eigensolve computed
    eig_solves: int               # eigensolves of the sweep: 1 + doublings


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


def sweep_eig_tol(eig_tol, increment):
    """Eigen tolerance of a sweep whose predecessor moved the potential
    by ``increment`` in H1 (math.inf for the first sweep):
    EIG_FORCING * increment, clipped to [eig_tol, EIG_TOL_MAX]."""
    return max(eig_tol, min(EIG_TOL_MAX, EIG_FORCING * increment))


def first_level_budget(p, h, cap):
    """Level budget of the first sweep from the continuum spectrum
    s pi^2 of the cube: the levels up to the first one more than
    window + 1 above their Fermi level, up to the end of its degenerate
    cluster.  The discrete levels lie above the continuum ones, so the
    count errs high.  None (``determine_occupation``'s default) when the
    window does not fit in ``cap`` levels."""
    lam = np.array([mode.lam for mode in cube_eigensequence(cap)])
    window = truncation_bound(h, p)
    try:
        fermi = solve_fermi(lam, p, window)
    except InfeasibleOccupationError:
        return None
    beyond = np.flatnonzero(lam - fermi > window + 1.0)
    if beyond.size == 0:
        return None
    return int(np.searchsorted(lam, lam[beyond[0]], side="right"))


def next_level_budget(spectral, occ):
    """Level budget for the next sweep: LEVEL_MARGIN times the levels up
    to the first one more than window + 1 above the Fermi level, which
    ``determine_occupation`` guarantees among the computed ones, moved
    up to the next relative gap above LEVEL_GAP, and at most the levels
    computed now."""
    lam = spectral.eigenvalues
    beyond = lam - occ.fermi_level > occ.window + 1.0
    need = int(np.argmax(beyond)) + 1
    L = math.ceil(LEVEL_MARGIN * need)
    if L >= spectral.count:
        return spectral.count
    gap = np.diff(lam[L - 1:]) > LEVEL_GAP * np.abs(lam[L:])
    return L + int(np.argmax(gap)) if gap.any() else spectral.count


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
    M = fem.assemble_mass(mesh)
    rule = tet_rule(4)
    h = mesh_size(mesh)
    solver = SpectrumSolver(mesh, model.V0, tol=cfg.eig_tol, seed=cfg.seed,
                            stiffness=K, mass=M)
    doping = fem.assemble_load(mesh, model.n_D, rule)

    def occupation_at(u, L0, tol):
        budgets = []

        def solve(L):
            budgets.append(L)
            return solver.solve(u, L, tol)
        spectral, occ = determine_occupation(mesh, solve, p, h,
                                             L_max=cfg.L_max, L0=L0)
        return spectral, occ, build_density(spectral, occ), len(budgets)

    def potential_of(density):
        load = fem.assemble_load(mesh, density, rule) - doping
        return poisson_solve(mesh, load, stiffness=K)

    V = V_init if V_init is not None else fem.FeField.zero(mesh)
    records = []
    converged = False
    # the first level budget comes from the continuum spectrum, each
    # later one is trimmed from the previous sweep
    L0 = first_level_budget(p, h, min(cfg.L_max, mesh.n_interior))
    prev = math.inf   # H1 increment of the previous sweep
    mixer = _Anderson(cfg.damping)
    for k in range(1, cfg.max_iter + 1):
        tol = sweep_eig_tol(cfg.eig_tol, prev)
        spectral, occ, density, solves = occupation_at(V, L0, tol)
        L0 = next_level_budget(spectral, occ)
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
            eig_solves=solves,
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
