"""Occupation statistics: distribution functions, the smooth cutoff,
Fermi-level conservation solve, truncation of the level series, and the
resulting electron density field.

The cutoff is exactly 1 below the window edge and exactly 0 one unit
above it, so occupations vanish identically past a finite index and the
density is always a finite sum of squared eigenfunctions.  The density
field keeps the occupation-weighted Gram of its eigenvectors once per
interior vertex and Kuhn step (``fem.step_gram``); its load and its
integral are closed forms in that Gram, with no quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import ConvergenceError, InfeasibleOccupationError, \
    TruncationOverflowError

BOLTZMANN = "boltzmann"
FERMI_DIRAC = "fermi_dirac"

FERMI_REL_TOL = 1e-12


@dataclass(frozen=True)
class DistributionParams:
    """Occupation model: kind, amplitude f0, decay rate mu, electron
    count N0."""

    kind: str = BOLTZMANN
    f0: float = 1.0
    mu: float = 0.1
    N0: float = 100.0

    def __post_init__(self):
        if self.kind not in (BOLTZMANN, FERMI_DIRAC):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        for name in ("f0", "mu", "N0"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


def _fermi_dirac(x):
    """1 / (1 + exp(x)), without overflow for large |x|."""
    return np.exp(-np.logaddexp(0.0, x))


def distribution(p, t):
    """Occupation weight at energy offset t; positive and decreasing."""
    t = np.asarray(t, dtype=float)
    if p.kind == BOLTZMANN:
        out = p.f0 * np.exp(-p.mu * t)
    else:
        out = p.f0 * _fermi_dirac(p.mu * t)
    return out if out.ndim else float(out)


def _bump(s):
    """exp(-1/s) continued by 0 for s <= 0; smooth at 0."""
    with np.errstate(divide="ignore"):
        return np.exp(-1.0 / np.maximum(s, 0.0))


def cutoff_chi(M, t):
    """Smooth cutoff: 1 for t <= M, 0 for t >= M + 1, decreasing between."""
    t = np.asarray(t, dtype=float)
    a = _bump(M + 1.0 - t)
    b = _bump(t - M)
    out = a / (a + b)
    return out if out.ndim else float(out)


def truncated_distribution(p, M, t):
    """Cutoff-weighted occupation; identically 0 for t >= M + 1."""
    return cutoff_chi(M, t) * distribution(p, t)


def truncation_bound(h, p):
    """Energy window 2|ln h|/mu tied to the mesh size."""
    if not 0.0 < h < 1.0:
        raise ValueError(f"mesh size must lie in (0, 1), got {h}")
    return 2.0 * abs(math.log(h)) / p.mu


def solve_fermi(eigenvalues, p, M=np.inf):
    """Fermi level making the truncated occupations sum to N0.

    The occupation sum increases with the level y.  At
    y = min(eps) - ln(f0 L / N0) / mu - 10 each of the L terms is below
    (N0 / L) e^(-10 mu), for either distribution and any cutoff, so that
    end brackets the root from below without a search; one evaluation
    checks it.  The upper end grows until the sum reaches N0, which a
    Fermi-Dirac sum near saturation f0 L needs.  Bisection narrows the
    bracket to width 1e-2; then each step is the secant through the last
    two iterates, or a bisection step when that secant's slope is not
    positive or its root leaves the bracket.  No derivative is used.
    """
    eps = np.asarray(eigenvalues, dtype=float)
    L = len(eps)
    if L == 0:
        raise ValueError("need at least one eigenvalue")
    bad = np.flatnonzero(~np.isfinite(eps))
    if bad.size:
        raise ConvergenceError(
            f"eigenvalue {bad[0]} is not finite ({float(eps[bad[0]])!r}); "
            "no Fermi level can be bracketed")
    if p.kind == FERMI_DIRAC and p.f0 * L <= p.N0:
        raise InfeasibleOccupationError(
            f"occupation sum saturates at f0*L = {p.f0 * L:g} < N0 = {p.N0:g}")

    def excess(y):
        return float(np.sum(truncated_distribution(p, M, eps - y))) - p.N0

    lo = eps.min() - math.log(p.f0 * L / p.N0) / p.mu - 10.0
    hi = eps.max() + math.log(p.N0 / p.f0) / p.mu + 10.0
    g_lo = excess(lo)
    if g_lo > 0.0:
        raise ConvergenceError("failed to bracket the Fermi level from below")
    width = max(hi - lo, 1.0)
    for _ in range(200):
        g_hi = excess(hi)
        if g_hi >= 0.0:
            break
        hi += width
        width *= 2.0
    else:
        raise InfeasibleOccupationError(
            f"occupation sum never reaches N0 = {p.N0:g} "
            "(too few levels or cutoff too tight)")

    tol = FERMI_REL_TOL * p.N0
    y0, g0, y1, g1 = lo, g_lo, hi, g_hi
    steps = 0
    while not abs(g1) <= tol:  # a NaN sum is not converged
        y = 0.5 * (lo + hi)
        if hi - lo <= 1e-2:
            steps += 1
            if steps > 300:
                raise ConvergenceError("Fermi solve stalled",
                                       residual=abs(g1) / p.N0)
            if (g1 - g0) * (y1 - y0) > 0.0:
                secant = y1 - g1 * (y1 - y0) / (g1 - g0)
                if lo < secant < hi:
                    y = secant
        g = excess(y)
        if g < 0.0:
            lo = y
        else:
            hi = y
        y0, g0, y1, g1 = y1, g1, y, g
    return float(y1)


@dataclass
class OccupationState:
    """Truncation window, Fermi level, per-level occupations, and the
    1-based index of the first identically-zero occupation."""

    window: float
    fermi_level: float
    occupations: np.ndarray
    level_count: int


def determine_occupation(mesh, solve, p, h, L_max=512, L0=None):
    """Compute eigenpairs and occupations with a block-doubling level
    budget.

    ``solve`` maps a level count L to a SpectralSet.  The budget starts
    at ``L0``, by default max(16, ceil((2|ln h|)^{3/2})).  The SCF loop
    passes its own (``scf.level_budget``): the levels that reach the
    window and the end of their cluster, counted on the first sweep from
    estimates of the levels (``scf.estimated_level_budget``) and after
    it from the previous sweep's levels.  It doubles while the
    levels cannot hold N0 (a Fermi-Dirac sum saturates at f0 L) and
    until the topmost computed level sits more than one unit beyond the
    truncation window, at which point the tail occupations vanish
    identically and the partial Fermi solve is exact.  At the cap either
    shortfall raises.

    The eigenvalues may come from a loose eigensolve.  For B-normalized
    vectors a residual r moves an eigenvalue by at most
    r / sqrt(lambda_min(M)), M the mass matrix: at r = 1e-5 that is
    1.4e-3 for m = 16 (lambda_min(M) = 4.97e-5) and 2.0e-3 for m = 20
    (2.53e-5), far below the one-unit width of the cutoff.  A level
    misjudged by that much at the end of the cutoff has an occupation
    factor of order exp(-500).
    """
    M = truncation_bound(h, p)
    required = M + 1.0
    cap = min(L_max, mesh.n_interior)
    if L0 is None:
        L0 = max(16, math.ceil((2.0 * abs(math.log(h))) ** 1.5))
    L = min(cap, L0)

    while True:
        spectral = solve(L)
        try:
            fermi = solve_fermi(spectral.eigenvalues, p, M)
        except InfeasibleOccupationError:
            # too few levels to hold N0 (Fermi-Dirac saturation)
            if L >= cap:
                raise
            L = min(2 * L, cap)
            continue
        tail_offset = float(spectral.eigenvalues[-1] - fermi)
        if tail_offset > required:
            break
        if L >= cap:
            raise TruncationOverflowError(
                f"window {required:.6g} not reachable with {L} levels "
                f"(reached offset {tail_offset:.6g}; cap {cap})",
                achieved_window=tail_offset, required_window=required,
                levels=L)
        L = min(2 * L, cap)

    occ = truncated_distribution(p, M, spectral.eigenvalues - fermi)
    zero = np.flatnonzero(occ == 0.0)
    level_count = int(zero[0]) + 1
    state = OccupationState(window=M, fermi_level=fermi,
                            occupations=occ, level_count=level_count)
    return spectral, state


class DensityField:
    """Electron density: occupation-weighted sum of squared
    eigenfunctions, piecewise quadratic on the mesh.

    The density is a quadratic form of the vertex-pair Gram
    sum_l f_l psi_l(x_i) psi_l(x_j), which is nonzero only where i and j
    share an element.  The field keeps it, when it is made, as the step
    Gram ``gram`` (``fem.step_gram``: one value per interior vertex and
    Kuhn step; the eigenfunctions vanish on the boundary) and as its
    gather ``pairs`` onto the interior assembly pattern.  The load
    (``fem.assemble_load``) and the integral are closed forms in
    ``gram``; quadrature values (dumps, error functionals) come from the
    4x4 element Grams G = sum_l f_l c_l c_l^T gathered from ``pairs``,
    at O(16) per point whatever the number of levels.
    """

    def __init__(self, spectral, occupations, level_count):
        occupations = np.asarray(occupations, dtype=float)
        n_active = min(level_count - 1, len(occupations), spectral.count)
        self.spectral = spectral
        self.occupations = occupations
        self.level_count = level_count
        self.n_active = n_active
        self.mesh = spectral.mesh
        self.gram = fem.step_gram(self.mesh,
                                  spectral.coefficients[:, :n_active],
                                  occupations[:n_active])
        self.pairs = fem.pattern_pairs(self.mesh, self.gram)

    def element_values(self, mesh, rule, slabs=None):
        """(nb, nq) density at the quadrature points of the x-slabs
        ``slabs`` (all by default), P^T G P per point."""
        if mesh is not self.mesh:
            raise ValueError("density evaluated on a foreign mesh")
        return fem.element_gram(mesh, self.pairs, slabs) \
            @ fem.basis_products(rule).T

    def integral(self):
        """Exact integral: sum over the Kuhn steps s of the mass
        matrix's per-step value times the sum of the step Gram at s."""
        return float(self.gram.sum(axis=0) @ fem.mass_steps(self.mesh))

    def evaluate(self, points):
        """Density at points of the closed unit cube.

        In a Kuhn cell the descending order a, b, c of the fractional
        coordinates f picks the simplex: its vertices are the cell
        corner followed by unit steps along a, b and c, with barycentric
        weights 1 - f_a, f_a - f_b, f_b - f_c and f_c.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if np.any((points < 0.0) | (points > 1.0)):
            raise ValueError("points must lie in the closed unit cube")
        m = self.mesh.m
        cells = np.minimum((points * m).astype(int), m - 1)
        frac = points * m - cells
        order = np.argsort(-frac, axis=1, kind="stable")
        f = np.take_along_axis(frac, order, axis=1)
        lam = -np.diff(f, axis=1, prepend=1.0, append=0.0)   # (np, 4)
        strides = np.array([(m + 1) ** 2, m + 1, 1])
        path = np.cumsum(np.column_stack([cells @ strides, strides[order]]),
                         axis=1)                             # (np, 4)
        coeffs = self.spectral.coefficients[:, :self.n_active]
        psi = np.einsum("pa,pal->pl", lam, coeffs[path])
        out = (psi * psi) @ self.occupations[:self.n_active]
        return out if len(out) > 1 else float(out[0])


def build_density(spectral, occ):
    """DensityField for a consistent spectral/occupation pair."""
    if len(occ.occupations) > spectral.count:
        raise ValueError("occupation list longer than available spectrum")
    return DensityField(spectral, occ.occupations, occ.level_count)
