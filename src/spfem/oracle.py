"""Analytic ground truth on the unit cube: the continuum Fermi level,
the exact density series, and manufactured problems whose exact
potential is known in closed form.  The Laplacian eigenpairs
(``CubeMode``, ``cube_eigensequence``) live in ``spectrum``, whose
solver starts from them, and are re-exported here.

The Fermi-Dirac level and the density series stop at a shell of one
mode table (``cube_shells``), with a tail bound summed from positive
terms only, so each is accurate to a requested relative tolerance.

Every mode sin(i pi x) sin(j pi y) sin(k pi z) is a product of one
sine per axis, so the density series is a contraction of one n^3
coefficient tensor (n the largest mode index) with three per-axis
tables of sin^2.  The points come as per-axis tables
(``mesh.PointAxes``): along each axis a few cells with a few offsets
each, and point kinds that fix one offset per axis; the points are
every triple of cells with every kind.  The contraction runs one axis
at a time: over i once per (x cell, x offset), over j once per (x cell,
y cell, (x, y) offset pair) and over k in one batched product per point
kind, so the cost per point is O(n) and no table is gathered per point.
On a mesh the series is a field-like object: ``element_values`` takes
the tables of a block of x-slabs in closed form from
``Mesh.point_axes`` (a coordinate is (cell + offset) / m over the
rule's few Kuhn offsets per axis, and a cell holds 6 nq point kinds),
and nothing is sorted.  Arbitrary points are one cell whose offsets
are their distinct coordinates, from ``np.unique`` over blocks of
points, and whose kinds are the points themselves; distinct points
make it a pointwise product.  Blocks of pairs, of kinds and of points
are sized in table entries (``SERIES_CHUNK_ENTRIES``), so the gathered
tables stay bounded however large n is.

The benchmarks' applied potentials are products of one function per
axis as well (sin sin sin and g g g), and their gradients and
Laplacians sums of such products.  ``AxisField`` writes them as
elementwise arithmetic on (x, y, z), which on a block of a mesh runs on
the per-axis tables broadcast together, to the floats of the pointwise
evaluation; no physical point is built for them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .fem import ScalarFunction, values_on_elements
from .mesh import PointAxes
from .occupancy import BOLTZMANN, FERMI_REL_TOL, distribution, solve_fermi
from .spectrum import (PI2, CubeMode, cube_eigensequence,  # noqa: F401
                       cube_shells)

# entries of the largest table in one block of the density series
SERIES_CHUNK_ENTRIES = 1 << 19
# largest truncation shell of either series (tail tables reach 4x it)
SHELL_MAX = 4096


def _axis_sum(mu):
    """sum_{i >= 1} exp(-mu pi^2 i^2), summed to machine tail."""
    total = 0.0
    i = 1
    while True:
        term = math.exp(-mu * PI2 * i * i)
        total += term
        if term <= 1e-18 * max(total, 1e-300):
            return total
        i += 1


def _shell_tail(mu, s_max, level):
    """Bound on sum exp(mu (level - s pi^2)) over the modes s > s_max:
    the shells in (s_max, 4 s_max] term by term, the rest by
    exp(-mu pi^2 s) <= exp(-2 mu pi^2 s_max) exp(-mu pi^2 s / 2), which
    sums to a cube of ``_axis_sum(mu / 2)``.  The level sits in the
    exponents, so no factor exp(mu level) overflows."""
    s = cube_shells(4 * s_max)[0]
    s = s[np.searchsorted(s, s_max, side="right"):]
    with np.errstate(over="ignore"):
        return float(np.sum(np.exp(mu * (level - PI2 * s)))
                     + np.exp(mu * (level - 2.0 * PI2 * s_max))
                     * _axis_sum(0.5 * mu) ** 3)


def continuous_fermi(p):
    """Fermi level of the continuum spectrum.

    Boltzmann admits the closed form mu^{-1} ln(N0 / (f0 Z)) with Z the
    cube partition sum; the Fermi-Dirac level is ``solve_fermi`` over
    the shells up to s_max, which doubles until the Boltzmann majorant
    of the dropped modes (``_shell_tail``) is within FERMI_REL_TOL N0.
    """
    if p.kind == BOLTZMANN:
        Z = _axis_sum(p.mu) ** 3
        return math.log(p.N0 / (p.f0 * Z)) / p.mu

    tol = FERMI_REL_TOL * p.N0
    s_max = 12
    while s_max <= SHELL_MAX:
        lams = cube_shells(s_max)[0] * PI2
        # past f0 L = 2 N0 the level lies below the top mode
        if p.f0 * len(lams) > 2.0 * p.N0:
            y = solve_fermi(lams, p)
            if p.f0 * _shell_tail(p.mu, s_max, y) <= tol:
                return y
        s_max *= 2
    raise NumericsError("continuum Fermi series cannot certify tolerance")


class SeriesDensity:
    """Exact electron density as a certified truncated mode series."""

    def __init__(self, p, rel_tol=1e-8):
        if rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        self.params = p
        self.rel_tol = rel_tol
        self.fermi_level = continuous_fermi(p)
        self._select_modes()

    def _select_modes(self):
        p = self.params
        budget = self.rel_tol * p.N0
        level = self.fermi_level
        s_max = 12
        # a dropped mode is at most 8 f0 exp(mu (level - lambda)) anywhere
        while 8.0 * p.f0 * _shell_tail(p.mu, s_max, level) > budget:
            s_max *= 2
            if s_max > SHELL_MAX:
                raise NumericsError("density series cannot certify tolerance")
        self._take_shells(s_max)

    def _take_shells(self, s_max):
        """Keep every mode with i^2 + j^2 + k^2 <= s_max, as mode arrays
        and as the coefficient tensor coeffs[i-1, j-1, k-1] = 8 w."""
        self.s_max = s_max
        s, self.modes_i, self.modes_j, self.modes_k = cube_shells(s_max)
        self.lambdas = s * PI2
        self.weights = np.asarray(
            distribution(self.params, self.lambdas - self.fermi_level))
        n = int(max(self.modes_i.max(), self.modes_j.max(),
                    self.modes_k.max()))
        self.coeffs = np.zeros((n, n, n))
        self.coeffs[self.modes_i - 1, self.modes_j - 1,
                    self.modes_k - 1] = 8.0 * self.weights

    def __call__(self, points):
        """The series at points (..., 3), or flat at the points of a
        ``PointAxes``."""
        if isinstance(points, PointAxes):
            return self._contract(points)
        points = np.asarray(points, dtype=float)
        flat = points.reshape(-1, 3)
        out = np.empty(len(flat))
        # in blocks of points, so that each table of a block, n^2 entries
        # per distinct x or pair, holds at most SERIES_CHUNK_ENTRIES
        n = len(self.coeffs)
        step = max(1, SERIES_CHUNK_ENTRIES // (n * n))
        for start in range(0, len(flat), step):
            out[start:start + step] = self._contract(
                _distinct_axes(flat[start:start + step]))
        return out.reshape(points.shape[:-1])

    def element_values(self, mesh, rule, slabs=None):
        """(nb, nq) series at the quadrature points of the x-slabs
        ``slabs`` (all by default), on the tables of ``Mesh.point_axes``."""
        return self(mesh.point_axes(rule, slabs)).reshape(
            -1, len(rule.weights))

    def _contract(self, axes):
        """sum_ijk coeffs[ijk] sin^2(i pi x) sin^2(j pi y) sin^2(k pi z)
        at the points of ``axes``, flat in their order, contracted one
        axis at a time: over i once per (x cell, x offset), over j once
        per (x cell, y cell, pair kind), the kinds' distinct (x, y)
        offset pairs, and over k in one batched product per point kind,
        of its pair's (x cell, y cell) table with its z offset's z cell
        table.  Pair kinds and point kinds go in blocks that gather at
        most SERIES_CHUNK_ENTRIES entries."""
        n = len(self.coeffs)
        freq = np.arange(1, n + 1) * math.pi
        tx, ty, tz = (np.sin(c[..., None] * freq) ** 2 for c in axes.coords)
        (ncx, nox), (ncy, noy), ncz = tx.shape[:2], ty.shape[:2], len(tz)
        jx, jy, jz = axes.kinds
        over_i = (tx.reshape(-1, n) @ self.coeffs.reshape(n, n * n)) \
            .reshape(ncx, nox, n, n)
        pairs, pair_of = np.unique(jx * noy + jy, return_inverse=True)
        kx, ky = np.divmod(pairs, noy)
        over_ij = np.empty((len(pairs), ncx * ncy, n))
        step = max(1, SERIES_CHUNK_ENTRIES // (ncx * n * n))
        for start in range(0, len(pairs), step):
            block = slice(start, start + step)
            over_ij[block] = np.matmul(
                ty[:, ky[block], None].transpose(1, 2, 0, 3),
                over_i[:, kx[block]].transpose(1, 0, 2, 3)).reshape(
                    -1, ncx * ncy, n)
        tz = tz.transpose(1, 2, 0)                      # (noz, n, ncz)
        out = np.empty((ncx * ncy, ncz, len(jz)))
        step = max(1, SERIES_CHUNK_ENTRIES // (ncx * ncy * n))
        for start in range(0, len(jz), step):
            block = slice(start, start + step)
            out[..., block] = np.matmul(over_ij[pair_of[block]],
                                        tz[jz[block]]).transpose(1, 2, 0)
        return out.ravel()


def _distinct_axes(flat):
    """``PointAxes`` of points (np, 3) as one cell whose offsets are their
    distinct coordinates, found by sorting, and whose point kinds are the
    points themselves."""
    coords, kinds = zip(*[np.unique(flat[:, d], return_inverse=True)
                          for d in range(3)])
    return PointAxes([c[None] for c in coords], np.stack(kinds))


def _mode_by_mode(series, points):
    """The density series at points (..., 3), summed one mode at a time
    from the mode arrays: the definition, apart from the separable
    contraction of ``SeriesDensity``."""
    flat = points.reshape(-1, 3)
    freq = np.arange(1, len(series.coeffs) + 1)[:, None] * math.pi
    sx2, sy2, sz2 = (np.sin(freq * flat[None, :, d]) ** 2 for d in range(3))
    out = np.zeros(len(flat))
    for w, i, j, k in zip(series.weights, series.modes_i, series.modes_j,
                          series.modes_k):
        out += (8.0 * w) * sx2[i - 1] * sy2[j - 1] * sz2[k - 1]
    return out.reshape(points.shape[:-1])


def exact_density(p, x, rel_tol=1e-8):
    """Exact density at point(s) x, certified to rel_tol * ||n||_L2."""
    return SeriesDensity(p, rel_tol)(x)


class AxisField(ScalarFunction):
    """A benchmark field written as elementwise arithmetic on its three
    coordinates: ``fn(x, y, z)``, and ``grad(x, y, z)`` with the three
    components stacked on a last axis.  At points (..., 3) the
    coordinates are the points' columns.  On the quadrature points of a
    block of x-slabs they are the per-axis tables of ``Mesh.point_axes``,
    broadcast together: a function of one coordinate runs once per
    (cell, point kind) of its axis, and only the products and sums run
    once per point, in the same order, so to the same floats."""

    def __init__(self, fn, grad=None):
        super().__init__(lambda p: fn(p[..., 0], p[..., 1], p[..., 2]))
        if grad is not None:
            self.grad = lambda p: grad(p[..., 0], p[..., 1], p[..., 2])
        self._xyz = fn
        self._grad_xyz = grad

    def element_values(self, mesh, rule, slabs=None):
        return self._xyz(*mesh.point_axes(rule, slabs).grid()).reshape(
            -1, len(rule.weights))

    def element_gradients(self, mesh, rule, slabs=None):
        return self._grad_xyz(*mesh.point_axes(rule, slabs).grid()).reshape(
            -1, len(rule.weights), 3)


def _example1_fields():
    """V0, its gradient and its Laplacian, as functions of (x, y, z)."""
    pi = math.pi

    def v0(x, y, z):
        return np.sin(pi * x) * np.sin(pi * y) * np.sin(pi * z)

    def v0_grad(x, y, z):
        sx, sy, sz = (np.sin(pi * t) for t in (x, y, z))
        cx, cy, cz = (np.cos(pi * t) for t in (x, y, z))
        return pi * np.stack([cx * sy * sz, sx * cy * sz, sx * sy * cz],
                             axis=-1)

    def lap_v0(x, y, z):
        return -3.0 * PI2 * v0(x, y, z)

    return v0, v0_grad, lap_v0


def _example2_fields():
    """V0, its gradient and its Laplacian, as functions of (x, y, z)."""
    def g(t):
        return np.exp(t * (1.0 - t)) - 1.0

    def gp(t):
        return (1.0 - 2.0 * t) * np.exp(t * (1.0 - t))

    def gpp(t):
        return np.exp(t * (1.0 - t)) * ((1.0 - 2.0 * t) ** 2 - 2.0)

    def v0(x, y, z):
        return g(x) * g(y) * g(z)

    def v0_grad(x, y, z):
        gx, gy, gz = g(x), g(y), g(z)
        px, py, pz = gp(x), gp(y), gp(z)
        return np.stack([px * gy * gz, gx * py * gz, gx * gy * pz], axis=-1)

    def lap_v0(x, y, z):
        gx, gy, gz = g(x), g(y), g(z)
        qx, qy, qz = gpp(x), gpp(y), gpp(z)
        return qx * gy * gz + gx * qy * gz + gx * gy * qz

    return v0, v0_grad, lap_v0


class DopingProfile:
    """n_D = n - lap V0 for the series n and the applied potential V0, as
    a field-like object: on a mesh both parts run on the per-axis tables
    of ``Mesh.point_axes``."""

    def __init__(self, series, laplacian_V0):
        self.series = series
        self.laplacian_V0 = laplacian_V0

    def __call__(self, points):
        return self.series(points) - self.laplacian_V0(points)

    def element_values(self, mesh, rule, slabs=None):
        return (self.series.element_values(mesh, rule, slabs)
                - values_on_elements(self.laplacian_V0, mesh, rule, slabs))


@dataclass
class ManufacturedProblem:
    """Exact solution set for one benchmark configuration.

    The exact potential is the negative of the applied one, so the
    effective Hamiltonian potential cancels and the spectrum reduces to
    the explicit Laplacian modes; the doping profile is back-computed
    as (exact density) - (Laplacian of the applied potential).
    """

    example: int
    params: object
    V0: ScalarFunction
    laplacian_V0: ScalarFunction
    V_exact: ScalarFunction
    n_exact: SeriesDensity
    n_D: DopingProfile

    def residual_check(self, points):
        """|(-lap V_exact) - n + n_D| with n from a finer series: certified
        to 1e-10 and reaching at least twice the shell of ``n_exact``,
        summed mode by mode (``_mode_by_mode``), so it shares neither the
        truncation nor the summation of ``n_exact``; bounded by the
        series tails plus rounding."""
        fine = SeriesDensity(self.params, 1e-10)
        fine._take_shells(max(fine.s_max, 2 * self.n_exact.s_max))
        pts = np.asarray(points, dtype=float)
        return np.abs(self.laplacian_V0(pts) - _mode_by_mode(fine, pts)
                      + self.n_D(pts))


def manufactured_problem(example, p, rel_tol=1e-8):
    """Benchmark problem 1 (sine applied potential) or 2 (exponential
    bump applied potential)."""
    if example == 1:
        v0, v0_grad, lap_v0 = _example1_fields()
    elif example == 2:
        v0, v0_grad, lap_v0 = _example2_fields()
    else:
        raise ValueError(f"example must be 1 or 2, got {example}")

    series = SeriesDensity(p, rel_tol)
    lap_V0 = AxisField(lap_v0)

    def v_exact(x, y, z):
        return -v0(x, y, z)

    def v_exact_grad(x, y, z):
        return -v0_grad(x, y, z)

    return ManufacturedProblem(
        example=example,
        params=p,
        V0=AxisField(v0, v0_grad),
        laplacian_V0=lap_V0,
        V_exact=AxisField(v_exact, v_exact_grad),
        n_exact=series,
        n_D=DopingProfile(series, lap_V0),
    )
