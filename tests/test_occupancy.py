import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import per_electron
from spfem import fem
from spfem.errors import (ConvergenceError, InfeasibleOccupationError,
                          TruncationOverflowError)
from spfem.mesh import build_structured_mesh, mesh_size
from spfem.occupancy import (FERMI_REL_TOL, DistributionParams,
                             OccupationState, build_density, cutoff_chi,
                             determine_occupation, distribution,
                             solve_fermi, truncated_distribution,
                             truncation_bound)
from spfem.oracle import (continuous_fermi, cube_eigensequence,
                          manufactured_problem)
from spfem.quadrature import tet_rule
from spfem.scf import level_budget
from spfem.spectrum import SpectrumSolver


def test_params_validation():
    with pytest.raises(ValueError):
        DistributionParams(mu=-1.0)
    with pytest.raises(ValueError):
        DistributionParams(f0=0.0)
    with pytest.raises(ValueError):
        DistributionParams(kind="gauss")


def test_distribution_values():
    p = DistributionParams(f0=1.0, mu=0.1)
    assert distribution(p, 0.0) == pytest.approx(1.0)
    assert distribution(p, 10.0) == pytest.approx(math.exp(-1.0))
    fd = DistributionParams(kind="fermi_dirac", f0=2.0, mu=1.0)
    assert distribution(fd, 0.0) == pytest.approx(1.0)
    t = np.linspace(-30, 30, 200)
    for params in (p, fd):
        v = distribution(params, t)
        assert np.all(v > 0)
        assert np.all(np.diff(v) < 0)


def test_cutoff_values_and_monotonicity():
    M = 10.0
    assert cutoff_chi(M, M) == 1.0
    assert cutoff_chi(M, M + 1.0) == 0.0
    assert cutoff_chi(M, M - 5.0) == 1.0
    assert cutoff_chi(M, M + 5.0) == 0.0
    assert cutoff_chi(M, M + 0.5) == pytest.approx(0.5, abs=1e-14)
    assert cutoff_chi(M, M + 0.25) > cutoff_chi(M, M + 0.75)
    t = np.linspace(M - 1, M + 2, 400)
    chi = cutoff_chi(M, t)
    assert np.all(np.diff(chi) <= 1e-15)


def _chi_by_definition(M, t):
    def bump(s):
        return math.exp(-1.0 / s) if s > 0.0 else 0.0
    a, b = bump(M + 1.0 - t), bump(t - M)
    return a / (a + b)


@pytest.mark.parametrize("M", [0.0, 10.0, 460.5])
def test_cutoff_matches_its_definition(M):
    offsets = [-3.0, -1.0, -1e-9, 0.0, 1e-300, 1e-9, 0.01, 0.3, 0.5, 0.7,
               0.99, 1.0 - 1e-9, 1.0, 1.0 + 1e-300, 1.0 + 1e-9, 2.0, 5.0]
    t = np.array([M + d for d in offsets] + [-M, M / 2, 0.0, -0.0])
    chi = cutoff_chi(M, t)
    for ti, ci in zip(t, chi):
        assert ci == pytest.approx(_chi_by_definition(M, ti),
                                   rel=1e-15, abs=0.0), ti
        assert cutoff_chi(M, float(ti)) == ci
    assert cutoff_chi(M, M) == 1.0
    assert cutoff_chi(M, M + 1.0) == 0.0
    # an infinite window keeps every finite offset
    assert np.all(cutoff_chi(math.inf, t) == 1.0)


def test_truncated_distribution():
    p = DistributionParams(f0=1.0, mu=0.1)
    M = 10.0
    assert truncated_distribution(p, M, M - 1.0) == distribution(p, M - 1.0)
    assert truncated_distribution(p, M, M + 2.0) == 0.0
    assert truncated_distribution(p, M, M + 0.5) == pytest.approx(
        0.5 * math.exp(-1.05), rel=1e-12)
    t = np.linspace(-5, 15, 300)
    f = distribution(p, t)
    fM = truncated_distribution(p, M, t)
    assert np.all(fM <= f + 1e-16)
    assert np.all(fM[t <= M] == f[t <= M])


def test_truncation_bound():
    p = DistributionParams(mu=0.1)
    assert truncation_bound(0.1, p) == pytest.approx(20 * math.log(10))
    assert truncation_bound(math.exp(-1.0), DistributionParams(mu=2.0)) \
        == pytest.approx(1.0)
    slow = DistributionParams(mu=2.2e-3, f0=4.4e-6)
    assert truncation_bound(0.25, slow) == pytest.approx(
        2 * math.log(4) / 2.2e-3, rel=1e-12)
    with pytest.raises(ValueError):
        truncation_bound(1.0, p)
    with pytest.raises(ValueError):
        truncation_bound(-0.5, p)


def test_fermi_closed_forms():
    p = DistributionParams(f0=1.0, mu=0.1, N0=100.0)
    assert solve_fermi([10.0], p) == pytest.approx(
        10.0 + math.log(100.0) / 0.1, abs=1e-9)
    assert solve_fermi([5.0, 5.0], p) == pytest.approx(
        5.0 + math.log(50.0) / 0.1, abs=1e-9)


def test_fermi_matches_continuum_partition_sum():
    p = DistributionParams()
    lam = np.array([m.lam for m in cube_eigensequence(200)])
    level = solve_fermi(lam, p)
    # independent closed form from the one-dimensional partition sum
    z1 = sum(math.exp(-p.mu * math.pi ** 2 * i * i) for i in range(1, 60))
    closed = math.log(p.N0 / (p.f0 * z1 ** 3)) / p.mu
    assert level == pytest.approx(closed, abs=1e-6)
    assert continuous_fermi(p) == pytest.approx(closed, abs=1e-12)


def test_fermi_conservation_tolerance():
    p = DistributionParams()
    lam = np.array([m.lam for m in cube_eigensequence(64)])
    M = 80.0
    level = solve_fermi(lam, p, M)
    total = float(np.sum(truncated_distribution(p, M, lam - level)))
    assert abs(total - p.N0) <= 1e-12 * p.N0


_spectra = st.lists(
    st.tuples(st.floats(-50.0, 500.0), st.integers(1, 4)),
    min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(levels=_spectra, shuffle=st.randoms(use_true_random=False),
       sort=st.booleans(), fermi_dirac=st.booleans(),
       f0_exp=st.floats(-4.0, 3.0), mu_exp=st.floats(-2.7, 1.0),
       N0_exp=st.floats(-2.0, 5.0),
       M=st.one_of(st.just(math.inf), st.floats(0.5, 200.0)))
def test_fermi_conserves_or_raises(levels, shuffle, sort, fermi_dirac,
                                   f0_exp, mu_exp, N0_exp, M):
    # degenerate clusters: each drawn level repeated 1 to 4 times
    eps = [lam for lam, count in levels for _ in range(count)]
    if sort:
        eps.sort()
    else:
        shuffle.shuffle(eps)
    p = DistributionParams(kind="fermi_dirac" if fermi_dirac
                           else "boltzmann", f0=10.0 ** f0_exp,
                           mu=10.0 ** mu_exp, N0=10.0 ** N0_exp)
    with np.errstate(over="ignore"):
        try:
            y = solve_fermi(eps, p, M)
        except (InfeasibleOccupationError, ConvergenceError):
            return
        total = float(np.sum(truncated_distribution(
            p, M, np.asarray(eps) - y)))
    assert abs(total - p.N0) <= FERMI_REL_TOL * p.N0


def test_fermi_infeasible():
    fd = DistributionParams(kind="fermi_dirac", f0=1.0, mu=1.0, N0=100.0)
    with pytest.raises(InfeasibleOccupationError):
        solve_fermi([1.0, 2.0, 3.0], fd)


@pytest.mark.parametrize("eigenvalues,index", [
    ([np.nan, 1.0, 2.0], 0), ([1.0, np.inf], 1), ([-np.inf, 1.0], 0)])
def test_fermi_rejects_non_finite_eigenvalues(params, eigenvalues, index):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError,
                           match=f"eigenvalue {index} is not finite"):
            solve_fermi(eigenvalues, params)


def test_determine_occupation_conserves(mesh8, params):
    solver = SpectrumSolver(mesh8, None)
    spectral, occ = determine_occupation(
        mesh8, lambda L: solver.solve(None, L), params, mesh_size(mesh8))
    assert abs(occ.occupations.sum() - params.N0) <= 1e-10 * params.N0
    assert 1 <= occ.level_count <= spectral.count
    # occupations: positive then identically zero, nonincreasing
    o = occ.occupations
    assert np.all(o[:occ.level_count - 1] > 0)
    assert np.all(o[occ.level_count - 1:] == 0.0)
    assert np.all(np.diff(o) <= 1e-16)
    # topmost computed level lies strictly beyond the window
    assert spectral.eigenvalues[-1] - occ.fermi_level > occ.window + 1.0


def test_saturated_budget_doubles_until_levels_hold_N0():
    # Fermi-Dirac occupations saturate at f0 per level: 16 levels hold at
    # most 32 < N0 electrons, so the budget doubles; at m = 4 even all 27
    # interior levels hold only 54
    fd = DistributionParams(kind="fermi_dirac", f0=2.0, mu=0.1, N0=100.0)
    mesh = build_structured_mesh(8)
    solver = SpectrumSolver(mesh, None)
    spectral, occ = determine_occupation(
        mesh, lambda L: solver.solve(None, L), fd, mesh_size(mesh))
    assert spectral.count > 50
    assert abs(occ.occupations.sum() - fd.N0) <= 1e-10 * fd.N0
    small = build_structured_mesh(4)
    small_solver = SpectrumSolver(small, None)
    with pytest.raises(InfeasibleOccupationError):
        determine_occupation(small, lambda L: small_solver.solve(None, L),
                             fd, mesh_size(small))


def test_window_monotone_under_refinement(params):
    counts = []
    for m in (4, 8):
        mesh = build_structured_mesh(m)
        solver = SpectrumSolver(mesh, None)
        _, occ = determine_occupation(
            mesh, lambda L: solver.solve(None, L), params, mesh_size(mesh))
        counts.append(occ.level_count)
    assert counts[1] >= counts[0]


def test_fermi_one_sided_and_second_order(params):
    exact = continuous_fermi(params)
    gaps = {}
    for m in (4, 8):
        mesh = build_structured_mesh(m)
        solver = SpectrumSolver(mesh, None)
        _, occ = determine_occupation(
            mesh, lambda L: solver.solve(None, L), params, mesh_size(mesh))
        gaps[m] = occ.fermi_level - exact
        assert gaps[m] >= -1e-10
    assert 2.5 <= gaps[4] / gaps[8] <= 5.5


def test_every_interior_level_kept_at_m3():
    # at m = 3 and this mu the window reaches the last of the 8 interior
    # levels, whose occupation is exactly zero: a valid state
    mesh = build_structured_mesh(3)
    p = DistributionParams(mu=0.021544346900318832)
    solver = SpectrumSolver(mesh, None)
    spectral, occ = determine_occupation(
        mesh, lambda L: solver.solve(None, L), p, mesh_size(mesh))
    assert occ.level_count == mesh.n_interior == 8
    assert abs(occ.occupations.sum() - p.N0) <= 1e-10 * p.N0
    density = build_density(spectral, occ)
    assert abs(density.integral() - p.N0) <= 1e-10 * p.N0


def test_truncation_overflow_slow_decay():
    mesh = build_structured_mesh(4)
    slow = DistributionParams(mu=2.2e-3, f0=4.4e-6)
    solver = SpectrumSolver(mesh, None)
    with pytest.raises(TruncationOverflowError) as err:
        determine_occupation(mesh, lambda L: solver.solve(None, L), slow,
                             mesh_size(mesh), L_max=64)
    assert err.value.required_window > err.value.achieved_window
    assert err.value.levels <= 64


def test_carried_level_budget_matches_default(mesh8, params):
    # the SCF starts each budget at the previous level count; a larger
    # start only adds levels beyond the window, with zero occupation
    solver = SpectrumSolver(mesh8, None)
    (s_def, occ_def), (s_64, occ_64) = [
        determine_occupation(mesh8, lambda L: solver.solve(None, L),
                             params, mesh_size(mesh8), L0=L0)
        for L0 in (None, 64)]
    assert s_def.count < s_64.count == 64
    assert occ_64.fermi_level == pytest.approx(occ_def.fermi_level,
                                               rel=1e-12)
    assert occ_64.level_count == occ_def.level_count
    np.testing.assert_allclose(occ_64.occupations[:s_def.count],
                               occ_def.occupations, rtol=1e-12)
    assert np.all(occ_64.occupations[s_def.count:] == 0.0)


def test_trimmed_level_budget_matches_default(mesh8, params):
    # the SCF trims the next budget to the levels reaching the end of
    # the cutoff, up to a gap; the levels it drops have zero occupation
    solver = SpectrumSolver(mesh8, None)
    s_def, occ_def = determine_occupation(
        mesh8, lambda L: solver.solve(None, L), params, mesh_size(mesh8))
    L0 = level_budget(s_def.eigenvalues, occ_def.fermi_level, occ_def.window)
    assert L0 < 16 == s_def.count
    s_trim, occ_trim = determine_occupation(
        mesh8, lambda L: solver.solve(None, L), params, mesh_size(mesh8),
        L0=L0)
    assert s_trim.count == L0
    assert occ_trim.fermi_level == pytest.approx(occ_def.fermi_level,
                                                 rel=1e-12)
    assert occ_trim.level_count == occ_def.level_count
    np.testing.assert_allclose(occ_trim.occupations,
                               occ_def.occupations[:L0], rtol=1e-12)
    assert np.all(occ_def.occupations[L0:] == 0.0)


def _benchmark2_bounded_budgets(mesh8, params):
    """Benchmark 2 on mesh8: the solver, and the SCF's next level budget
    from a default determination with and without the lower bounds of
    the levels (the guard-level budget 10 and the trimmed 7)."""
    solver = SpectrumSolver(mesh8, manufactured_problem(2, params).V0)
    s_def, occ = determine_occupation(
        mesh8, lambda L: solver.solve(None, L), params, mesh_size(mesh8))
    return solver, [level_budget(s_def.eigenvalues, occ.fermi_level,
                                 occ.window, b) for b in (None, s_def.bounds)]


def test_all_occupied_levels_end_at_the_first_uncomputed(mesh8, params):
    # every one of the 7 computed levels is occupied and the bound
    # certifies the 8th: the first zero is the first level not computed
    solver, (_, trimmed) = _benchmark2_bounded_budgets(mesh8, params)
    spectral, occ = determine_occupation(
        mesh8, lambda L: solver.solve(None, L), params, mesh_size(mesh8),
        L0=trimmed)
    assert spectral.count == trimmed == 7
    assert np.all(occ.occupations > 0.0)
    assert occ.level_count == spectral.count + 1
    density = build_density(spectral, occ)
    assert density.n_active == spectral.count
    assert density.integral() == pytest.approx(params.N0, rel=1e-12)


def test_bounded_level_budget_matches_guard_levels(mesh8, params):
    # the budget trimmed by the bound drops only levels of zero
    # occupation: the same state as the guard-level budget's
    solver, (guard, trimmed) = _benchmark2_bounded_budgets(mesh8, params)
    assert (guard, trimmed) == (10, 7)
    (s_guard, occ_guard), (s_trim, occ_trim) = [
        determine_occupation(mesh8, lambda L: solver.solve(None, L),
                             params, mesh_size(mesh8), L0=L0)
        for L0 in (guard, trimmed)]
    assert (s_guard.count, s_trim.count) == (guard, trimmed)
    assert occ_trim.level_count == occ_guard.level_count
    assert occ_trim.fermi_level == pytest.approx(occ_guard.fermi_level,
                                                 rel=1e-12)
    np.testing.assert_allclose(occ_trim.occupations,
                               occ_guard.occupations[:trimmed], rtol=1e-12)
    assert np.all(occ_guard.occupations[trimmed:] == 0.0)
    assert build_density(s_trim, occ_trim).integral() == pytest.approx(
        build_density(s_guard, occ_guard).integral(), rel=1e-12)


def test_density_integral_and_single_level(mesh8, params):
    solver = SpectrumSolver(mesh8, None)
    spectral, occ = determine_occupation(
        mesh8, lambda L: solver.solve(None, L), params, mesh_size(mesh8))
    density = build_density(spectral, occ)
    assert density.integral() == pytest.approx(params.N0, rel=1e-9)

    # single occupied level: density is N0 psi_1^2
    single = OccupationState(window=occ.window, fermi_level=0.0,
                             occupations=np.array([params.N0, 0.0]),
                             level_count=2)
    dens1 = build_density(spectral, single)
    rule = tet_rule(2)
    psi = _psi_values(spectral, rule, 1)[..., 0]
    np.testing.assert_allclose(dens1.element_values(mesh8, rule),
                               params.N0 * psi ** 2, atol=1e-12)


def test_density_nonnegative_at_quadrature_points(mesh8, params):
    solver = SpectrumSolver(mesh8, None)
    spectral, occ = determine_occupation(
        mesh8, lambda L: solver.solve(None, L), params, mesh_size(mesh8))
    density = build_density(spectral, occ)
    vals = density.element_values(mesh8, tet_rule(5))
    assert vals.min() >= 0.0


def test_density_point_evaluation_consistent(mesh8, params):
    solver = SpectrumSolver(mesh8, None)
    spectral, occ = determine_occupation(
        mesh8, lambda L: solver.solve(None, L), params, mesh_size(mesh8))
    density = build_density(spectral, occ)
    rule = tet_rule(2)
    pts = mesh8.physical_points(rule)
    vals = density.element_values(mesh8, rule)
    sample = [(0, 0), (17, 3), (101, 1)]
    for elem, q in sample:
        assert density.evaluate(pts[elem, q]) == pytest.approx(
            vals[elem, q], rel=1e-10)
    # one batch of mesh vertices, points on the y = z Kuhn faces and
    # points on the face x = 1, against a search over the cell's six
    # elements with a dense barycentric solve per element; the tilted
    # potential makes a density that no axis permutation leaves unchanged
    tilt = fem.ScalarFunction(lambda p: 40.0 * p[..., 0] + 15.0 * p[..., 1])
    tilted = build_density(
        SpectrumSolver(mesh8, tilt).solve(None, 3),
        OccupationState(window=0.0, fermi_level=0.0,
                        occupations=np.array([params.N0, 1.0, 0.0]),
                        level_count=3))
    rng = np.random.default_rng(2)
    a, b = rng.random((2, 40))
    batch = np.concatenate([
        mesh8.vertices[::23],
        np.column_stack([a, b, b]),
        np.column_stack([np.ones(40), a, b]),
        [[1.0, 1.0, 1.0], [1.0, 0.5, 0.5]]])
    for field in (density, tilted):
        np.testing.assert_allclose(field.evaluate(batch),
                                   [_density_by_search(field, x)
                                    for x in batch],
                                   rtol=1e-10, atol=1e-12 * params.N0)
    # quadrature values from the occupation Gram against the per-level
    # sum of f_l psi_l^2 they replace
    for field in (density, tilted):
        occupations = field.occupations[:field.n_active]
        for degree in (2, 4, 5):
            rule = tet_rule(degree)
            psi = _psi_values(field.spectral, rule, field.n_active)
            np.testing.assert_allclose(
                field.element_values(mesh8, rule),
                np.einsum("nql,l->nq", psi * psi, occupations), rtol=1e-13)


def _psi_values(spectral, rule, levels):
    """(nt, nq, levels) eigenfunction values at quadrature points."""
    local = spectral.coefficients[spectral.mesh.element_vertices(), :levels]
    return np.einsum("qa,nal->nql", rule.points, local)


def _density_by_search(density, x):
    mesh = density.mesh
    m = mesh.m
    cell = np.minimum((x * m).astype(int), m - 1)
    base = ((cell[0] * m + cell[1]) * m + cell[2]) * 6
    for tet in mesh.element_vertices()[base:base + 6]:
        corner = mesh.vertices[tet[0]]
        lam123 = np.linalg.solve((mesh.vertices[tet[1:]] - corner).T,
                                 x - corner)
        lam = np.concatenate([[1.0 - lam123.sum()], lam123])
        if np.all(lam >= -1e-12):
            psi = lam @ density.spectral.coefficients[tet, :density.n_active]
            return float((psi * psi) @ density.occupations[:density.n_active])
    raise AssertionError(f"point {x} not located in its cell")


def test_density_invariant_under_degenerate_rotation(mesh8, params):
    rule = tet_rule(5)
    densities = []
    for seed in (3, 4):
        solver = SpectrumSolver(mesh8, None, seed=seed, dense_cutoff=0)
        spectral, occ = determine_occupation(
            mesh8, lambda L: solver.solve(None, L), params, mesh_size(mesh8))
        densities.append(build_density(spectral, occ))
    diff = fem.l2_norm_error(mesh8, densities[0], densities[1], rule)
    assert diff <= 1e-6


@pytest.mark.parametrize("base", [
    DistributionParams(),
    # f0 = 0.02 per electron: 50 levels hold one electron, feasible on
    # the m = 8 mesh
    DistributionParams("fermi_dirac", f0=2.0, mu=0.1, N0=100.0),
], ids=["boltzmann", "fermi_dirac"])
def test_per_electron_scaling_identity(mesh8, base):
    # acceptance criteria 1 and 2 run at (f0/N0, N0 = 1) as the N0 = 100
    # model divided by N0; that must keep the Fermi level and the kept
    # levels and scale every occupation by 1/N0
    per_electron_params = per_electron(base)
    solver = SpectrumSolver(mesh8, None)
    h = mesh_size(mesh8)
    _, occ = determine_occupation(
        mesh8, lambda L: solver.solve(None, L), base, h)
    _, per = determine_occupation(
        mesh8, lambda L: solver.solve(None, L), per_electron_params, h)
    assert per.window == occ.window
    assert per.fermi_level == pytest.approx(occ.fermi_level, rel=1e-12)
    assert per.level_count == occ.level_count
    np.testing.assert_allclose(base.N0 * per.occupations, occ.occupations,
                               rtol=1e-12, atol=0.0)
