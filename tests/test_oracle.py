import math
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from spfem import fem
from spfem.mesh import Mesh, build_structured_mesh
from spfem.occupancy import DistributionParams
from spfem.oracle import (SeriesDensity, _shell_tail, continuous_fermi,
                          cube_eigensequence, exact_density,
                          manufactured_problem)
from spfem.quadrature import tet_rule
from spfem.spectrum import SpectrumSolver, cube_shells

PI2 = math.pi ** 2
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_first_modes():
    modes = cube_eigensequence(4)
    assert (modes[0].i, modes[0].j, modes[0].k) == (1, 1, 1)
    assert modes[0].lam == pytest.approx(3 * PI2)
    assert sorted((m.i, m.j, m.k) for m in modes[1:4]) == \
        [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert all(m.lam == pytest.approx(6 * PI2) for m in modes[1:4])


def test_sequence_against_brute_force():
    modes = cube_eigensequence(10)
    # shells 3, 6, 6, 6, 9, 9, 9 fill the first seven slots, so the
    # tenth mode belongs to the 11 pi^2 shell (brute force below agrees)
    assert modes[9].lam == pytest.approx(11 * PI2)
    brute = sorted((i * i + j * j + k * k, (i, j, k))
                   for i in range(1, 7) for j in range(1, 7)
                   for k in range(1, 7))
    for mode, (s, ijk) in zip(modes, brute):
        assert (mode.i, mode.j, mode.k) == ijk
        assert mode.lam == pytest.approx(s * PI2)
    # completeness: the first 60 modes coincide with the brute-force
    # enumeration (which is complete for shells below 6^2 + 2)
    lams = [m.lam for m in cube_eigensequence(60)]
    expected = [s * PI2 for s, _ in brute[:60]]
    assert brute[59][0] < 38
    assert lams == pytest.approx(expected)
    # the shell table up to 37 is the brute-force list in the same
    # order, each shell whole
    table = cube_shells(37)
    assert [(s, (i, j, k)) for s, i, j, k in zip(*table)] == \
        [entry for entry in brute if entry[0] <= 37]


def test_continuous_fermi_boltzmann(params):
    z1 = sum(math.exp(-params.mu * PI2 * i * i) for i in range(1, 80))
    closed = math.log(params.N0 / (params.f0 * z1 ** 3)) / params.mu
    assert continuous_fermi(params) == pytest.approx(closed, rel=1e-13)
    # scaling N0 by e^{mu c} shifts the level by exactly c
    scaled = DistributionParams(N0=params.N0 * math.exp(params.mu * 3.0))
    assert continuous_fermi(scaled) == pytest.approx(
        continuous_fermi(params) + 3.0, rel=1e-12)


def test_continuous_fermi_fermi_dirac():
    from scipy.special import expit

    fd = DistributionParams(kind="fermi_dirac", f0=2.0, mu=0.5, N0=50.0)
    level = continuous_fermi(fd)
    lam = np.array([m.lam for m in cube_eigensequence(4096)])
    total = float(np.sum(fd.f0 * expit(-fd.mu * (lam - level))))
    assert total == pytest.approx(fd.N0, rel=1e-9)


# the continuum Fermi-Dirac level in a capped child interpreter, so a
# search that does not stop fails this test instead of exhausting memory
_FERMI_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from spfem.occupancy import DistributionParams
from spfem.oracle import continuous_fermi
f0, mu, N0 = map(float, sys.argv[1:])
print(repr(continuous_fermi(DistributionParams("fermi_dirac", f0, mu, N0))))
"""


@pytest.mark.parametrize("f0, mu, N0", [(1.0, 0.1, 100.0),
                                        (2.0, 0.1, 100.0)])
def test_continuous_fermi_fermi_dirac_certifies(f0, mu, N0):
    from scipy.special import expit

    done = subprocess.run(
        [sys.executable, "-c", _FERMI_CHILD, str(f0), str(mu), str(N0)],
        cwd=SRC, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    level = float(done.stdout)
    lam = np.array([m.lam for m in cube_eigensequence(20000)])
    total = float(np.sum(f0 * expit(-mu * (lam - level))))
    assert total == pytest.approx(N0, rel=1e-9)


@pytest.mark.parametrize("s_max", [12, 24, 48, 96])
@pytest.mark.parametrize("mu", [0.02, 0.04, 0.1, 0.5, 1.0])
def test_shell_tail_bounds_the_dropped_modes(mu, s_max):
    # the level at the truncation shell keeps every term representable
    level = PI2 * s_max
    s = cube_shells(16 * s_max)[0]
    brute = float(np.sum(np.exp(mu * (level - PI2 * s[s > s_max]))))
    bound = _shell_tail(mu, s_max, level)
    assert bound >= brute * (1.0 - 1e-12)
    assert bound <= 1.2 * brute


def test_exact_density_properties(params):
    series = SeriesDensity(params, 1e-8)
    # conservation, term by term: included weights plus a certified tail
    assert abs(series.weights.sum() - params.N0) <= 1e-8 * params.N0
    # boundary values vanish
    edge = np.array([[0.0, 0.3, 0.7], [1.0, 0.5, 0.5], [0.2, 0.0, 0.9]])
    np.testing.assert_allclose(series(edge), 0.0, atol=1e-20)
    # two tolerances agree at the center
    center = np.array([0.5, 0.5, 0.5])
    a = exact_density(params, center, 1e-8)
    b = exact_density(params, center, 1e-10)
    assert a == pytest.approx(b, rel=1e-9)
    with pytest.raises(ValueError):
        exact_density(params, center, -1.0)


def test_exact_density_quadrature_integral(params, mesh16):
    rule = tet_rule(5)
    series = SeriesDensity(params, 1e-8)
    vals = fem.values_on_elements(series, mesh16, rule)
    integral = (vals @ rule.weights) @ mesh16.volumes
    assert integral == pytest.approx(params.N0, rel=5e-3)
    assert vals.min() >= 0.0


@pytest.mark.parametrize("example", [1, 2])
def test_residual_self_check(example, params):
    problem = manufactured_problem(example, params)
    rng = np.random.default_rng(42)
    pts = 0.05 + 0.9 * rng.random((20, 3))
    resid = problem.residual_check(pts)
    n = problem.n_exact(pts)
    assert np.all(resid <= 1e-6 * (1.0 + np.abs(n)))


@pytest.mark.parametrize("example", [1, 2])
def test_fermi_dirac_residual_is_measured(example):
    # at the defaults the 1e-8 and 1e-10 Fermi-Dirac series stop at the
    # same shell; the check's series reaches twice as far and is summed
    # mode by mode, so it reads the rounding of n_exact, not 0
    fd = DistributionParams(kind="fermi_dirac")
    problem = manufactured_problem(example, fd)
    pts = 0.05 + 0.9 * np.random.default_rng(42).random((100, 3))
    resid = problem.residual_check(pts)
    n = problem.n_exact(pts)
    assert resid.max() > 0.0
    assert np.all(resid <= 1e-6 * (1.0 + np.abs(n)))
    # the terms past n_exact's shell are far below rounding
    assert resid.max() <= 1e-13 * n.max()


def test_example1_laplacian_and_sign(params):
    problem = manufactured_problem(1, params)
    center = np.array([0.5, 0.5, 0.5])
    assert problem.laplacian_V0(center) == pytest.approx(-3 * PI2)
    # exact potential is the negative of the applied one
    pts = np.random.default_rng(0).random((10, 3))
    np.testing.assert_allclose(problem.V_exact(pts), -problem.V0(pts),
                               atol=1e-15)
    np.testing.assert_allclose(problem.V_exact.grad(pts),
                               -problem.V0.grad(pts), atol=1e-15)


def test_example2_laplacian_against_finite_differences(params):
    problem = manufactured_problem(2, params)
    # g''(1/2) = -2 e^{1/4} appears on the diagonal of the product rule
    g_half = math.exp(0.25) - 1.0
    gpp_half = -2.0 * math.exp(0.25)
    center = np.array([0.5, 0.5, 0.5])
    assert problem.laplacian_V0(center) == pytest.approx(
        3.0 * gpp_half * g_half ** 2, rel=1e-12)
    # independent check: central differences at random interior points
    rng = np.random.default_rng(1)
    pts = 0.2 + 0.6 * rng.random((8, 3))
    eps = 1e-5
    lap_fd = np.zeros(len(pts))
    for d in range(3):
        up, dn = pts.copy(), pts.copy()
        up[:, d] += eps
        dn[:, d] -= eps
        lap_fd += (problem.V0(up) - 2 * problem.V0(pts) + problem.V0(dn)) \
            / eps ** 2
    np.testing.assert_allclose(problem.laplacian_V0(pts), lap_fd,
                               rtol=1e-4, atol=1e-6)


def test_doping_consistency(params):
    problem = manufactured_problem(1, params)
    pts = 0.1 + 0.8 * np.random.default_rng(2).random((6, 3))
    np.testing.assert_allclose(
        problem.n_D(pts),
        problem.n_exact(pts) - problem.laplacian_V0(pts), atol=1e-12)


def test_invalid_example(params):
    with pytest.raises(ValueError):
        manufactured_problem(3, params)


def test_nonpositive_series_tolerance_is_an_argument_error(params):
    with pytest.raises(ValueError, match="rel_tol"):
        manufactured_problem(1, params, rel_tol=0.0)


def _per_mode_reference(series, flat):
    """The series at (N, 3) points summed one mode at a time, with a
    compensated (Neumaier) running sum: a plain one drifts by about
    1e-13 of the maximum over the 85 565 modes at mu = 1e-3."""
    imax = int(max(series.modes_i.max(), series.modes_j.max(),
                   series.modes_k.max()))
    freq = np.arange(1, imax + 1)[:, None] * math.pi
    sx2, sy2, sz2 = (np.sin(freq * flat[None, :, d]) ** 2 for d in range(3))
    total = np.zeros(len(flat))
    carry = np.zeros(len(flat))
    for w, i, j, k in zip(series.weights, series.modes_i, series.modes_j,
                          series.modes_k):
        term = (8.0 * w) * sx2[i - 1] * sy2[j - 1] * sz2[k - 1]
        new = total + term
        # terms are >= 0: the larger addend loses (larger - new) + smaller
        carry += (np.maximum(total, term) - new) + np.minimum(total, term)
        total = new
    return total + carry


def test_chunked_series_matches_one_shot(mesh16):
    # the separable contraction sums in another order than the modes,
    # so it matches the per-mode sum to rounding, not bit for bit:
    # random points (pointwise), the degree-4 quadrature points of the
    # m = 16 mesh (grouped by distinct coordinates and (x, y) pairs),
    # and random points at n = 55, several blocks of distinct pairs
    wide = SeriesDensity(DistributionParams(mu=0.04))
    cases = [(wide, np.random.default_rng(2).random((2, 20000, 3))),
             (wide, mesh16.physical_points(tet_rule(4))),
             (SeriesDensity(DistributionParams(mu=1e-3)),
              np.random.default_rng(3).random((500, 3)))]
    assert len(cases[2][0].coeffs) == 55
    for series, pts in cases:
        ref = _per_mode_reference(series, pts.reshape(-1, 3))
        got = series(pts)
        assert got.shape == pts.shape[:-1]
        np.testing.assert_allclose(got.ravel(), ref, rtol=0,
                                   atol=1e-13 * ref.max())


def test_series_memory_is_bounded_by_block_entries():
    # at n = 55 the (x, y) tables of 20 000 distinct points, evaluated
    # at once, would take 20 000 * 55^2 * 8 B = 484 MB
    series = SeriesDensity(DistributionParams(mu=1e-3))
    pts = np.random.default_rng(4).random((20000, 3))
    tracemalloc.start()
    try:
        series(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_slab_series_memory_is_bounded_by_block_entries(mesh16):
    # at n = 55 a block of five m = 16 slabs at the degree-5 rule has
    # 5280 (x, y) pairs, whose n^2 tables gathered at once take 128 MB
    series = SeriesDensity(DistributionParams(mu=1e-3))
    zero = fem.FeField.zero(mesh16)
    rule = tet_rule(5)
    assert len(fem.slab_blocks(mesh16, rule)) == 4
    tracemalloc.start()
    try:
        fem.l2_norm_error(mesh16, zero, series, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20


def _pointwise_v0(example, pts):
    """V0, grad V0 and lap V0 at points (..., 3), each product formed
    left to right over the axes as the benchmarks define them."""
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    if example == 1:
        sx, sy, sz = np.sin(math.pi * x), np.sin(math.pi * y), \
            np.sin(math.pi * z)
        cx, cy, cz = np.cos(math.pi * x), np.cos(math.pi * y), \
            np.cos(math.pi * z)
        v0 = sx * sy * sz
        return (v0, math.pi * np.stack([cx * sy * sz, sx * cy * sz,
                                        sx * sy * cz], axis=-1),
                -3.0 * PI2 * v0)
    e = [np.exp(t * (1.0 - t)) for t in (x, y, z)]
    g = [ei - 1.0 for ei in e]
    gp = [(1.0 - 2.0 * t) * ei for t, ei in zip((x, y, z), e)]
    gpp = [ei * ((1.0 - 2.0 * t) ** 2 - 2.0) for t, ei in zip((x, y, z), e)]
    return (g[0] * g[1] * g[2],
            np.stack([gp[0] * g[1] * g[2], g[0] * gp[1] * g[2],
                      g[0] * g[1] * gp[2]], axis=-1),
            gpp[0] * g[1] * g[2] + g[0] * gpp[1] * g[2]
            + g[0] * g[1] * gpp[2])


@pytest.mark.parametrize("example", [1, 2])
def test_benchmark_fields_keep_their_pointwise_floats(example, mesh8):
    # the fields' arithmetic keeps the benchmarks' product order, so
    # their floats do not move with the evaluation path
    problem = manufactured_problem(example, DistributionParams())
    rng = np.random.default_rng(5)
    for pts in (rng.random((500, 3)), mesh8.physical_points(tet_rule(5))):
        v0, grad, lap = _pointwise_v0(example, pts)
        np.testing.assert_array_equal(problem.V0(pts), v0)
        np.testing.assert_array_equal(problem.V0.grad(pts), grad)
        np.testing.assert_array_equal(problem.laplacian_V0(pts), lap)
        np.testing.assert_array_equal(problem.V_exact(pts), -v0)
        np.testing.assert_array_equal(problem.V_exact.grad(pts), -grad)


@pytest.mark.parametrize("example", [1, 2])
def test_axis_fields_are_their_pointwise_values(example):
    # on the per-axis tables every product and sum runs in the pointwise
    # order, so the benchmark fields are bit for bit their values at the
    # physical points, on every block of slabs
    problem = manufactured_problem(example, DistributionParams())
    fields = [(problem.V0, False), (problem.V0, True),
              (problem.laplacian_V0, False), (problem.V_exact, False),
              (problem.V_exact, True)]
    for m in (1, 3, 5, 16):
        mesh = build_structured_mesh(m)
        for degree in (2, 4, 5):
            rule = tet_rule(degree)
            for slabs in [range(m), range(0, 1), range(m - 1, m),
                          range(m // 2, m)]:
                pts = mesh.physical_points(rule, slabs)
                for field, gradient in fields:
                    if gradient:
                        got = field.element_gradients(mesh, rule, slabs)
                        expected = field.grad(pts)
                    else:
                        got = field.element_values(mesh, rule, slabs)
                        expected = field(pts)
                    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("example", [1, 2])
def test_reference_pencil_and_floor_are_the_pointwise_ones(example, mesh8):
    # W(V0) and the solver's floor, from the per-axis tables, are those
    # of V0 evaluated at the physical points
    V0 = manufactured_problem(example, DistributionParams()).V0
    pointwise = fem.ScalarFunction(lambda p: V0(p))
    rule = tet_rule(2)
    np.testing.assert_array_equal(
        fem.assemble_weighted_mass(mesh8, V0, rule).csr.data,
        fem.assemble_weighted_mass(mesh8, pointwise, rule).csr.data)
    assert SpectrumSolver(mesh8, V0).floor == \
        float(V0(mesh8.physical_points(rule)).min())


@pytest.mark.parametrize("example", [1, 2])
def test_benchmark_passes_build_no_physical_points(example, monkeypatch):
    # the reference pencil, the doping load and the error functionals
    # evaluate the benchmark fields on per-axis tables only
    problem = manufactured_problem(example, DistributionParams())
    mesh = build_structured_mesh(4)
    fh = fem.FeField.interpolate(mesh, problem.V_exact, dirichlet=True)

    def refuse(*args, **kwargs):
        raise AssertionError("physical points built")

    monkeypatch.setattr(Mesh, "physical_points", refuse)
    SpectrumSolver(mesh, problem.V0)
    fem.assemble_load(mesh, problem.n_D, tet_rule(4))
    fem.h1_error(mesh, fh, problem.V_exact)
    fem.l2_norm_error(mesh, fh, problem.n_exact)
