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
(``SpectrumSolver.mode_estimates``).  Both eigensolves of a pencil
that keeps the mesh's symmetries take the mesh's six symmetry classes
(``symmetry.class_split``), each class block apart: the dense one, and
LOBPCG, which certifies each class's cut with the class's own min-max
bound (``SpectrumSolver.class_bounds``).
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
# first whole-pencil LOBPCG block, the Ritz vectors on the grid modes,
# of a solver whose reference pencil lacks the mesh's symmetries; a
# pencil that keeps them is solved per class from unperturbed class
# Ritz vectors, which cannot miss a class or a partner (the class path
# grows a class its block lacks), and without the noise its first
# sweeps took no more preconditioner applications (98 against 102 on
# benchmark 1 at m = 16, mu = 0.04)
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


def _first_modes(count):
    """``cube_shells`` through the ``count``-th mode, cut after it."""
    if count < 1:
        raise ValueError("count must be >= 1")
    # the n^3 modes with indices up to n all lie in the shells up to 3 n^2
    n = math.ceil(count ** (1 / 3))
    return [a[:count] for a in cube_shells(3 * n * n)]


def cube_eigensequence(count):
    """First ``count`` modes sorted by eigenvalue, ties by (i, j, k)."""
    _, I, J, K = (a.tolist() for a in _first_modes(count))
    return [CubeMode(*ijk) for ijk in zip(I, J, K)]


def cube_levels(count):
    """(count,) eigenvalues of ``cube_eigensequence(count)``, ascending,
    from one ``cube_shells`` call.  By the min-max principle the i-th
    level of a conforming P1 pencil (K + W, M) whose weight W is at
    least f M is at least cube_levels[i - 1] + f (Babuska & Osborn,
    Eigenvalue Problems, Handbook of Numerical Analysis II, 1991)."""
    return _first_modes(count)[0] * PI2


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
    """Ascending eigenvalues with mass-normalized eigenfunctions, the
    potential floor of their pencil, a number f with W >= f M for the
    pencil's weighted mass W, and ``bounds``, lower bounds of the
    pencil's first L + 1 levels, computed or not, and of no more than it
    has (``SpectrumSolver.level_bounds``)."""

    eigenvalues: np.ndarray        # (L,)
    coefficients: np.ndarray       # (nv, L), boundary rows zero
    residual_norms: np.ndarray
    mesh: object = field(repr=False, default=None)
    iterations: int = 0            # LOBPCG iterations; 0 on the dense path
    classes: int = 1               # symmetry classes solved apart, by
                                   # the dense solve or LOBPCG: 6 or 1
    floor: float = -math.inf       # W >= floor M; -inf: no bound known
    bounds: np.ndarray = None      # (min(L + 1, n_interior),)

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


class _Floored:
    """The analytic field V as its weighted mass W(V) evaluates it, one
    block of quadrature points at a time, and ``floor``, the smallest
    value of those blocks: for a rule with positive weights that is
    exact for P1 x P1 (``tet_rule(2)``), W(V) >= floor M."""

    def __init__(self, field):
        self.field = field
        self.floor = math.inf

    def element_values(self, mesh, rule, slabs=None):
        values = fem.values_on_elements(self.field, mesh, rule, slabs)
        self.floor = min(self.floor, float(values.min()))
        return values


class SpectrumSolver:
    """Eigenpair provider for one mesh and applied potential.

    The reference pencil (K + W(V0), M), M the mass matrix, is
    assembled when the solver is made, from the caller's K when given;
    every ``solve`` adds W(u) to it and runs one eigensolve.
    ``preconditioner``, the exact inverse of K (``SineInverse``),
    preconditions every LOBPCG solve.  Both the dense solve and LOBPCG
    take the mesh's six symmetry classes (``symmetry.class_split``,
    built once per mesh) when the solver is ``symmetric`` and the vertex
    values of u are invariant under the mesh's symmetries to
    SYMMETRY_TOL, and the whole pencil otherwise or when the class
    solve misses the tolerance.  ``symmetric`` is fixed when the solver
    is made: it holds when the reference pencil keeps the symmetries to
    SYMMETRY_TOL (M always keeps them).
    ``floor``, the smallest value of V0 at the points of the reference
    pencil's rule (0 without V0, the smallest vertex value of a P1 V0),
    comes with it; a solve's ``SpectralSet.floor`` adds min(0, smallest
    vertex value of u), as a P1 weight is at least its smallest vertex
    value everywhere, and its ``bounds`` are ``level_bounds`` at that
    floor; a class LOBPCG solve certifies each class's cut with
    ``class_bounds`` at that floor.
    The solver's state between calls is ``block``, the last eigenvector
    block, from which the next solve starts (with seeded random columns
    appended when L grows, and its leading L columns taken when L
    shrinks); ``spare``, the levels the last class solve computed past
    the block because their class's bound could not certify its cut,
    which the next solve starts those classes with; and ``continuum``
    and ``class_continuum``, the cube's levels that ``level_bounds`` and
    ``class_bounds`` have needed so far.  ``mode_estimates`` estimates
    the levels of the reference pencil before any solve and, while
    there is no block, keeps its Ritz vectors as the block, per class
    for a ``symmetric`` solver and else perturbed and seeded by
    ``seed``, unless every solve takes the dense path, which needs no
    start block; a first sparse solve without a block calls it for L
    levels.  Each
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
        # the floor of V0 is taken from the one evaluation of V0 that
        # W(V0) makes; a P1 V0 takes the closed form instead, and it is
        # at least its smallest vertex value everywhere
        V = V0
        if V0 is None or isinstance(V0, fem.FeField):
            self.floor = 0.0 if V0 is None else float(V0.coeffs.min())
        else:
            V = _Floored(V0)
        self.reference = assemble_hamiltonian(mesh, None, V, tet_rule(2),
                                              stiffness=stiffness)
        if V is not V0:
            self.floor = V.floor
        self.preconditioner = SineInverse(mesh.m)
        self.symmetric = symmetry.stencil_asymmetry(
            mesh, self.reference[0].csr) <= SYMMETRY_TOL
        self.block = None
        self.spare = None
        self.continuum = np.empty(0)
        self.class_continuum = None

    def solve(self, u, L, tol=None):
        """SpectralSet of the L lowest levels for the potential u + V0,
        with eigen residuals at most ``tol`` (default ``self.tol``)."""
        mesh = self.mesh
        A0, B = self.reference
        A = _add_potential(A0, mesh, u)
        floor = self.floor
        if u is not None:
            floor += min(0.0, float(u.coeffs.min()))
        classes = bounds = start = None
        if self.symmetric and (u is None or symmetry.asymmetry(
                mesh.m, u.interior()) <= SYMMETRY_TOL):
            classes = symmetry.class_split(mesh)
        if not dense_path(A.n, L, self.dense_cutoff):
            if self.block is None:
                self.mode_estimates(L)
            start = self.block[:, :L]
            if self.spare is not None:
                start = np.hstack([start, self.spare])
            if classes is not None:
                bounds = self.class_bounds(L + 1, floor)
        result = lowest_eigenpairs(A, B, L,
                                   tol=self.tol if tol is None else tol,
                                   seed=self.seed,
                                   dense_cutoff=self.dense_cutoff,
                                   preconditioner=self.preconditioner,
                                   start=start, classes=classes,
                                   bounds=bounds)
        self.block = result.vectors
        self.spare = result.spare
        coeffs = np.zeros((mesh.n_vertices, L))
        coeffs[mesh.interior_vertices] = result.vectors
        return SpectralSet(result.values, coeffs, result.residual_norms,
                           mesh=mesh, iterations=result.iterations,
                           classes=result.classes, floor=floor,
                           bounds=self.level_bounds(L + 1, floor))

    def level_bounds(self, count, floor=None):
        """(min(count, n_interior),) lower bounds mu_i + f of the first
        ``count`` levels of a pencil (K + W, M) on the solver's mesh with
        W >= f M, f = ``floor`` (the reference pencil's by default): the
        cube's levels (``cube_levels``, the i-th a lower bound of the
        i-th P1 level by min-max), plus the floor.  The levels are
        tabulated in ``continuum``, to twice the count that outgrows
        it."""
        count = min(count, self.mesh.n_interior)
        if len(self.continuum) < count:
            self.continuum = cube_levels(min(2 * count, self.mesh.n_interior))
        return self.continuum[:count] + (self.floor if floor is None
                                         else floor)

    def class_bounds(self, count, floor=None):
        """Per symmetry class of the mesh (the order of
        ``symmetry.CLASSES``), lower bounds mu_{c,i} + f of its first
        min(count, n_c) levels, as ``level_bounds`` gives them for the
        whole pencil: the cube's levels in the class
        (``symmetry.class_levels``, one row of Eg and Eu) plus the
        floor.  They are tabulated in ``class_continuum``, from twice
        the modes that the count needs."""
        need = np.minimum(count, symmetry.class_split(self.mesh).sizes)
        table = self.class_continuum
        modes = 24 * count
        while table is None or any(len(t) < k for t, k in zip(table, need)):
            table = symmetry.class_levels(modes)
            modes *= 2
        self.class_continuum = table
        f = self.floor if floor is None else floor
        return [t[:k] + f for t, k in zip(table, need)]

    def mode_estimates(self, count):
        """Ritz values of the reference pencil on the span of the lowest
        ``count`` grid modes (``grid_modes``, through the end of their
        last shell), ascending: estimates of the lowest levels before
        any eigensolve, each an upper bound of its level, that split
        the cube's shells as the Kuhn mesh does.  A solver without a
        ``block`` that can take the sparse path (more than
        ``dense_cutoff`` unknowns) keeps the B-orthonormal Ritz vectors
        as its block: for a ``symmetric`` solver those of each class on
        its part of the span, merged as ``ClassSplit.merge`` merges
        levels, and else those of the whole span, each column plus a
        standard normal draw from ``seed`` scaled to START_NOISE of its
        norm."""
        if count < 1:
            raise ValueError("count must be >= 1")
        A0, B = self.reference
        X = grid_modes(self.mesh.m, min(count, self.mesh.n_interior))
        keep = self.block is None and self.mesh.n_interior > self.dense_cutoff
        if keep and self.symmetric:
            # the modes' span is invariant, so each class holds its part
            # of it: the columns of the span's projection whose Gram
            # eigenvalue is 1, as the modes are orthogonal with norm m^3/2
            split = symmetry.class_split(self.mesh)
            values, vectors = [], []
            for rows in split.rows:
                Z = rows[0].T @ X
                g, V = sla.eigh(Z.T @ Z)
                Z = Z @ V[:, g > 0.5 * self.mesh.m ** 3]
                QZ = rows[0] @ Z
                w, V = sla.eigh(QZ.T @ (A0 @ QZ), QZ.T @ (B @ QZ))
                values.append(w)
                vectors.append(Z @ V)
            w, X = split.merge(values, vectors, X.shape[1])
        else:
            w, V = sla.eigh(X.T @ (A0 @ X), X.T @ (B @ X))
            X = X @ V
        if keep:
            if not self.symmetric:
                noise = np.random.default_rng(self.seed).standard_normal(
                    X.shape)
                noise *= START_NOISE * np.linalg.norm(X, axis=0) \
                    / np.linalg.norm(noise, axis=0)
                X += noise
            self.block = X
        return w
