import math

import numpy as np
import pytest

from conftest import Combination, sine_product
from spfem import fem
from spfem.mesh import build_structured_mesh, mesh_size
from spfem.occupancy import (DistributionParams, build_density,
                             determine_occupation)
from spfem.oracle import manufactured_problem
from spfem.quadrature import tet_rule
from spfem.scf import ScfConfig, ScfModel, fixed_point_solve, poisson_solve
from spfem.spectrum import SpectrumSolver

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


def test_solve_leaves_no_state_on_the_mesh(params):
    mesh = build_structured_mesh(4)
    before = set(vars(mesh))
    problem = manufactured_problem(1, params)
    fixed_point_solve(mesh, ScfModel(problem.V0, problem.n_D, params))
    assert set(vars(mesh)) == before
