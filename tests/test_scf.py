import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from conftest import Combination, sine_product
from spfem import fem, scf
from spfem.mesh import build_structured_mesh, mesh_size
from spfem.occupancy import (BOLTZMANN, FERMI_DIRAC, DistributionParams,
                             build_density,
                             determine_occupation, solve_fermi,
                             truncation_bound)
from spfem.oracle import manufactured_problem
from spfem.quadrature import tet_rule
from spfem.scf import (EIG_TOL_MAX, LEVEL_GAP, ScfConfig, ScfModel, _Anderson,
                       estimated_level_budget, fixed_point_solve,
                       level_budget, poisson_solve, sweep_eig_tol)
from spfem.spectrum import SpectrumSolver, cube_eigensequence

PI = math.pi


def _poisson(mesh, rhs, **kwargs):
    """Poisson solve for a field right-hand side, loaded at degree 4 as
    in the SCF loop."""
    return poisson_solve(mesh, fem.assemble_load(mesh, rhs, tet_rule(4)),
                         **kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        ScfConfig(tol_rel=0.0)
    with pytest.raises(ValueError):
        ScfConfig(damping=1.5)
    with pytest.raises(ValueError):
        ScfConfig(max_iter=0)


def test_poisson_zero_rhs(mesh4):
    u = _poisson(mesh4, fem.ScalarFunction.constant(0.0))
    assert np.all(u.coeffs == 0.0)


def test_poisson_linearity(mesh4):
    g1 = sine_product()
    g2 = fem.ScalarFunction(lambda p: p[..., 1] ** 2)
    u1 = _poisson(mesh4, g1, tol=1e-13)
    u2 = _poisson(mesh4, g2, tol=1e-13)
    combo = Combination([(2.0, g1), (-3.0, g2)])
    u = _poisson(mesh4, combo, tol=1e-13)
    np.testing.assert_allclose(u.coeffs, 2.0 * u1.coeffs - 3.0 * u2.coeffs,
                               atol=1e-9)


@pytest.mark.parametrize("m", [7, 12])
def test_poisson_solve_matches_sparse_direct(m, monkeypatch):
    # the sine-transform preconditioner is K's exact inverse, so CG meets
    # its tolerance in one step
    mesh = build_structured_mesh(m)
    pcg = scf.pcg_solve
    monkeypatch.setattr(scf, "pcg_solve",
                        lambda *a, **kw: pcg(*a, max_iter=1, **kw))
    load = fem.assemble_load(mesh, sine_product(), tet_rule(4))
    u = poisson_solve(mesh, load)
    K = fem.assemble_stiffness(mesh)
    ref = spla.spsolve(K.csr.tocsc(), load)
    np.testing.assert_allclose(u.interior(), ref,
                               rtol=0, atol=1e-12 * np.abs(ref).max())


def test_poisson_manufactured_first_order():
    s = sine_product()
    rhs = fem.ScalarFunction(lambda p: 3 * PI ** 2 * math.sqrt(8) * s(p))
    exact = fem.ScalarFunction(lambda p: math.sqrt(8) * s(p),
                               grad=lambda p: math.sqrt(8) * s.grad(p))
    errs = []
    for m in (4, 8, 16):
        mesh = build_structured_mesh(m)
        u = _poisson(mesh, rhs)
        errs.append(fem.h1_error(mesh, u, exact))
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine == pytest.approx(2.0, abs=0.25)


def test_manufactured_fixed_point_converges_immediately(mesh4, params):
    problem = manufactured_problem(1, params)
    solver = SpectrumSolver(mesh4, problem.V0)
    zero = fem.FeField.zero(mesh4)
    spectral, occ = determine_occupation(
        mesh4, lambda L: solver.solve(zero, L), params, mesh_size(mesh4))
    doping = build_density(spectral, occ)  # makes u = 0 the exact fixed point
    report = fixed_point_solve(mesh4, ScfModel(problem.V0, doping, params))
    assert report.converged
    assert len(report.iterations) <= 2
    assert report.iterations[0].increment_h1 <= 1e-10


def test_vanishing_amplitude_gives_zero_potential(mesh4):
    tiny = DistributionParams(f0=1e-12, N0=1e-12)
    problem = manufactured_problem(1, tiny)
    report = fixed_point_solve(
        mesh4, ScfModel(problem.V0, fem.ScalarFunction.constant(0.0), tiny))
    assert report.converged
    K = fem.assemble_stiffness(mesh4)
    M = fem.assemble_mass(mesh4)
    v = report.potential.interior()
    assert math.sqrt(v @ (K @ v) + v @ (M @ v)) <= 1e-6


@pytest.mark.parametrize("m", [4, 8])
def test_benchmark1_scf_behavior(m, params, example1_study):
    rows, reports = example1_study
    report = reports[(4, 8, 16).index(m)]
    assert report.converged
    # increments decrease monotonically after the first two sweeps
    incs = [r.increment_h1 for r in report.iterations]
    assert all(a > b for a, b in zip(incs[2:], incs[3:]))
    # every sweep conserves the electron count
    for rec in report.iterations:
        assert rec.occupation_error <= 1e-10 * params.N0
        assert rec.density_integral_error <= 1e-9 * params.N0
    # self-consistency of the converged potential
    K = fem.assemble_stiffness(report.potential.mesh)
    Mm = fem.assemble_mass(report.potential.mesh)
    v = report.potential.interior()
    norm = math.sqrt(v @ (K @ v) + v @ (Mm @ v))
    assert report.self_consistency_h1 <= 2e-8 * (1.0 + norm)


def test_damped_iteration_converges(mesh4, params):
    problem = manufactured_problem(1, params)
    cfg = ScfConfig(damping=0.5)
    report = fixed_point_solve(
        mesh4, ScfModel(problem.V0, problem.n_D, params), cfg)
    assert report.converged


def test_non_convergence_is_flagged_not_raised(mesh4, params):
    problem = manufactured_problem(1, params)
    cfg = ScfConfig(max_iter=2)
    report = fixed_point_solve(
        mesh4, ScfModel(problem.V0, problem.n_D, params), cfg)
    assert not report.converged
    assert len(report.iterations) == 2
    first, second = report.iterations
    assert math.isnan(first.increment_ratio)
    assert second.increment_ratio == (second.increment_h1
                                      / first.increment_h1)


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_anderson_step_without_history_is_the_damped_update(mesh4, beta):
    rng = np.random.default_rng(0)
    n = len(mesh4.interior_vertices)
    x = rng.standard_normal(n)
    g = rng.standard_normal(n)
    damped = (1.0 - beta) * x + beta * g
    step = _Anderson(beta).step(x, g)
    assert np.array_equal(step, damped)


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_anderson_reaches_the_fixed_point_where_picard_diverges(beta):
    # x -> G x + c with spectral radius 1.5 (also 1.25 once damped) and
    # I - G invertible; G has four distinct eigenvalues, so the mixed
    # iteration needs only a few sweeps
    n = 30
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    G = Q @ np.diag(np.resize([1.5, -1.2, 0.6, 0.0], n)) @ Q.T
    c = rng.standard_normal(n)
    fixed = np.linalg.solve(np.eye(n) - G, c)

    x = np.zeros(n)
    for _ in range(30):
        x = (1.0 - beta) * x + beta * (G @ x + c)
    assert np.linalg.norm(x - fixed) > 1e2 * np.linalg.norm(fixed)

    x, mixer = np.zeros(n), _Anderson(beta)
    for _ in range(30):
        x = mixer.step(x, G @ x + c)
    assert np.linalg.norm(x - fixed) <= 1e-10 * np.linalg.norm(fixed)


# Boltzmann (f0 = 1) and Fermi-Dirac (f0 = 2 N0) over both benchmarks,
# N0 and mu: the damped Picard loop runs 60 sweeps without converging
# on every case with N0 >= 3000 and on Fermi-Dirac N0 = 1000, mu = 0.04
CONVERGENCE_MAP = [(kind, ex, N0, mu)
                   for kind in (BOLTZMANN, FERMI_DIRAC) for ex in (1, 2)
                   for N0 in (1000.0, 3000.0, 10000.0) for mu in (0.1, 0.04)]


@pytest.mark.parametrize("kind,example,N0,mu", CONVERGENCE_MAP)
def test_convergence_map(mesh4, kind, example, N0, mu):
    f0 = 1.0 if kind == BOLTZMANN else 2.0 * N0
    p = DistributionParams(kind, f0=f0, mu=mu, N0=N0)
    problem = manufactured_problem(example, p)
    report = fixed_point_solve(mesh4, ScfModel(problem.V0, problem.n_D, p),
                               ScfConfig(max_iter=30))
    assert report.converged
    for rec in report.iterations:
        assert rec.occupation_error <= 1e-10 * N0
        assert rec.density_integral_error <= 1e-9 * N0


def test_solve_leaves_no_state_on_the_mesh(params):
    mesh = build_structured_mesh(4)
    before = set(vars(mesh))
    problem = manufactured_problem(1, params)
    fixed_point_solve(mesh, ScfModel(problem.V0, problem.n_D, params))
    assert set(vars(mesh)) == before


def test_sweep_tolerance_rule():
    eig_tol = ScfConfig().eig_tol
    assert sweep_eig_tol(eig_tol, math.inf) == EIG_TOL_MAX
    increments = np.concatenate([[0.0], np.logspace(-16, 4, 201), [math.inf]])
    tols = [sweep_eig_tol(eig_tol, inc) for inc in increments]
    assert all(eig_tol <= t <= EIG_TOL_MAX for t in tols)
    assert all(a <= b for a, b in zip(tols, tols[1:]))
    assert tols[0] == eig_tol and tols[-1] == EIG_TOL_MAX


def _h1_norm(K, M, v):
    return math.sqrt(v @ (K @ v) + v @ (M @ v))


@pytest.mark.parametrize("example", [1, 2])
def test_inexact_sweeps_keep_the_fixed_point(example, params, monkeypatch):
    # m = 12: 1331 dofs, the sparse eigen path
    mesh = build_structured_mesh(12)
    problem = manufactured_problem(example, params)
    model = ScfModel(problem.V0, problem.n_D, params)
    cfg = ScfConfig()
    report = fixed_point_solve(mesh, model, cfg)
    assert report.converged
    assert report.iterations[0].eig_tol == EIG_TOL_MAX
    assert report.iterations[-1].eig_tol == cfg.eig_tol
    assert max(report.density.spectral.residual_norms) <= cfg.eig_tol
    for rec in report.iterations:
        assert rec.occupation_error <= 1e-10 * params.N0
        assert rec.density_integral_error <= 1e-9 * params.N0
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    v = report.potential.interior()
    norm = _h1_norm(K, M, v)
    assert report.self_consistency_h1 <= cfg.tol_rel * (1.0 + norm)

    # every sweep solved to eig_tol
    monkeypatch.setattr(scf, "EIG_TOL_MAX", cfg.eig_tol)
    tight = fixed_point_solve(mesh, model, cfg)
    assert all(rec.eig_tol == cfg.eig_tol for rec in tight.iterations)
    assert _h1_norm(K, M, v - tight.potential.interior()) <= 1e-7 * norm


def test_estimated_level_budget_holds_the_oracle_window(mesh8, params):
    # benchmark 1's V0 on mesh8, against the dense spectrum of the
    # reference pencil the estimates are taken in; at mu = 0.04 the
    # window reaches the modes the mesh splits most
    problem = manufactured_problem(1, params)
    solver = SpectrumSolver(mesh8, problem.V0)
    h = mesh_size(mesh8)
    A, B = solver.reference
    lam = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True)
    for p in (params, DistributionParams(mu=0.04)):
        L0 = estimated_level_budget(solver, p, h, 512)
        window = truncation_bound(h, p)
        fermi = solve_fermi(lam, p, window)
        need = int(np.argmax(lam - fermi > window + 1.0)) + 1
        assert need <= L0
        assert lam[L0] - lam[L0 - 1] > LEVEL_GAP * lam[L0]
    # no place for the continuum window inside the cap: the default budget
    window = truncation_bound(h, params)
    cont = np.array([mode.lam for mode in cube_eigensequence(512)])
    first = int(np.argmax(cont - solve_fermi(cont, params, window)
                          > window + 1.0))
    assert estimated_level_budget(solver, params, h, first) is None
    slow = DistributionParams(f0=4.4e-6, mu=2.2e-3)
    assert estimated_level_budget(solver, slow, h, 64) is None
    saturated = DistributionParams(FERMI_DIRAC, f0=1.0, N0=100.0)
    assert estimated_level_budget(solver, saturated, h, 64) is None


def test_level_budget_ends_at_a_gap():
    lam = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 50.5, 50.6, 70.0, 80.0])
    # need 4 (40 > 18 + 21), and 40 -> 50 is a 20 % gap
    assert level_budget(lam, 18.0, 20.0) == 4
    assert (lam[4] - lam[3]) > LEVEL_GAP * lam[4]
    # need 5 (50 > 28 + 21) falls in the cluster 50 / 50.5 / 50.6: the
    # block ends after the cluster
    assert level_budget(lam, 28.0, 20.0) == 7
    assert (lam[7] - lam[6]) > LEVEL_GAP * lam[7]
    # no gap at or after need: every level
    assert level_budget(lam[:7], 28.0, 20.0) == 7
    # no level past window + 1
    assert level_budget(lam, 70.0, 20.0) is None


def _sweep_solves(mesh, p):
    problem = manufactured_problem(1, p)
    report = fixed_point_solve(mesh, ScfModel(problem.V0, problem.n_D, p))
    assert report.converged
    return [rec.eig_solves for rec in report.iterations]


def test_first_sweep_runs_one_eigensolve():
    # m = 12 with mu = 0.04: the sparse path, where the budget doubled
    # 16 -> 32 in the first sweep before it came from estimates
    solves = _sweep_solves(build_structured_mesh(12),
                           DistributionParams(mu=0.04))
    assert solves == [1] * len(solves)


def test_no_sweep_doubles_its_budget_at_large_n0():
    # N0 = 1000 moves the Fermi level up between sweeps
    solves = _sweep_solves(build_structured_mesh(12),
                           DistributionParams(N0=1000.0))
    assert solves == [1] * len(solves)


def test_large_n0_inexact_sweeps_keep_the_fixed_point(monkeypatch):
    # N0 = 3000 on the sparse path, where the Anderson tail amplifies
    # the loose first sweeps into extra sweeps
    p = DistributionParams(N0=3000.0)
    mesh = build_structured_mesh(12)
    problem = manufactured_problem(1, p)
    model = ScfModel(problem.V0, problem.n_D, p)
    cfg = ScfConfig()
    report = fixed_point_solve(mesh, model, cfg)
    assert report.converged
    for rec in report.iterations:
        assert rec.occupation_error <= 1e-10 * p.N0
        assert rec.density_integral_error <= 1e-9 * p.N0
    monkeypatch.setattr(scf, "EIG_TOL_MAX", cfg.eig_tol)
    tight = fixed_point_solve(mesh, model, cfg)
    assert tight.converged
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    v = report.potential.interior()
    norm = _h1_norm(K, M, v)
    assert _h1_norm(K, M, v - tight.potential.interior()) <= 1e-7 * norm
