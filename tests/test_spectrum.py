import functools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Combination, sine_product
import spfem
from spfem import fem, oracle, spectrum, symmetry
from spfem.mesh import build_structured_mesh
from spfem.occupancy import DistributionParams
from spfem.oracle import manufactured_problem
from spfem.quadrature import tet_rule
from spfem.scf import ScfConfig, ScfModel, fixed_point_solve
from spfem.spectrum import (START_NOISE, SineInverse, SpectrumSolver,
                            assemble_hamiltonian, cube_eigensequence,
                            cube_levels, grid_modes)

LAM1 = 3 * math.pi ** 2
LAM2 = 6 * math.pi ** 2


def test_hamiltonian_zero_potential_is_stiffness(mesh4):
    A, B = assemble_hamiltonian(mesh4, None, None)
    K = fem.assemble_stiffness(mesh4)
    M = fem.assemble_mass(mesh4)
    assert (A.csr != K.csr).nnz == 0
    assert np.abs((B.csr - M.csr).toarray()).max() == 0.0


def test_constant_potential_shifts_spectrum(mesh4):
    base = SpectrumSolver(mesh4, None).solve(None, 5)
    shifted = SpectrumSolver(
        mesh4, fem.ScalarFunction.constant(2.75)).solve(None, 5)
    np.testing.assert_allclose(shifted.eigenvalues,
                               base.eigenvalues + 2.75, atol=1e-9)


def test_hamiltonian_form_value_matches_direct_quadrature(mesh4):
    # potential u + V0 with u the Dirichlet interpolant of the sine bump
    V0 = sine_product()
    u = fem.FeField.interpolate(mesh4, V0, dirichlet=True)
    rule = tet_rule(2)
    A, _ = assemble_hamiltonian(mesh4, u, V0, rule)
    rng = np.random.default_rng(5)
    v = fem.FeField.from_interior(mesh4, rng.standard_normal(mesh4.n_interior))
    vi = v.interior()
    matrix_value = vi @ (A @ vi)
    grads = fem.gradients_on_elements(v, mesh4, rule)
    vals = fem.values_on_elements(v, mesh4, rule)
    wvals = fem.values_on_elements(u, mesh4, rule) \
        + fem.values_on_elements(V0, mesh4, rule)
    integrand = np.einsum("nqd,nqd->nq", grads, grads) + wvals * vals ** 2
    direct = (integrand @ rule.weights) @ mesh4.volumes
    assert matrix_value == pytest.approx(direct, rel=1e-12)


def test_boundary_potential_rejected(mesh4):
    bad = fem.FeField(mesh4, np.ones(mesh4.n_vertices))
    with pytest.raises(ValueError):
        assemble_hamiltonian(mesh4, bad, None)


def test_zero_potential_spectrum_structure(mesh8):
    s = SpectrumSolver(mesh8, None).solve(None, 10)
    # lowest level sits just above the exact value
    assert LAM1 <= s.eigenvalues[0] <= 1.1 * LAM1
    # the second shell: an exactly degenerate pair plus a nearby third
    # level, all converging to 6 pi^2 from above (the mesh keeps axis
    # permutations but not all cube reflections, so the continuum triple
    # splits into 2 + 1)
    pair_gap = abs(s.eigenvalues[2] - s.eigenvalues[1])
    assert pair_gap <= 1e-8 * (1 + s.eigenvalues[1])
    assert np.all(s.eigenvalues[1:4] >= LAM2 - 1e-9)
    assert np.all(s.eigenvalues[1:4] <= 1.25 * LAM2)
    # Galerkin bound against the exact shells, with multiplicity
    lam = np.array([mode.lam for mode in cube_eigensequence(10)])
    assert np.all(s.eigenvalues >= lam - 1e-9)


def test_normalization_and_orthogonality(mesh8):
    s = SpectrumSolver(mesh8, None).solve(None, 6)
    M = fem.assemble_mass(mesh8)
    X = s.coefficients[mesh8.interior_vertices]
    gram = X.T @ (M @ X)
    assert np.abs(np.diag(gram) - 1.0).max() < 1e-10
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-8


def test_reproducible_across_runs(mesh8):
    a = SpectrumSolver(mesh8, None).solve(None, 6)
    b = SpectrumSolver(mesh8, None).solve(None, 6)
    np.testing.assert_allclose(
        a.eigenvalues, b.eigenvalues,
        atol=1e-8 * (1 + np.abs(a.eigenvalues).max()))


def test_eigenvalue_error_second_order():
    errs = []
    for m in (4, 8):
        mesh = build_structured_mesh(m)
        s = SpectrumSolver(mesh, None).solve(None, 1)
        errs.append(s.eigenvalues[0] - LAM1)
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.4)


def test_eigenfunction_error_first_order():
    phi1 = fem.ScalarFunction(
        lambda p: 2 * math.sqrt(2) * sine_product()(p),
        grad=lambda p: 2 * math.sqrt(2) * sine_product().grad(p))
    rule = tet_rule(5)
    errs = []
    for m in (4, 8, 16):
        mesh = build_structured_mesh(m)
        s = SpectrumSolver(mesh, None).solve(None, 1)
        psi = fem.FeField(mesh, s.coefficients[:, 0])
        vals = psi.element_values(mesh, rule)
        ref = fem.values_on_elements(phi1, mesh, rule)
        inner = ((vals * ref) @ rule.weights) @ mesh.volumes
        if inner < 0:
            psi = fem.FeField(mesh, -psi.coeffs)
        errs.append(fem.h1_error(mesh, psi, phi1, rule))
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine == pytest.approx(2.0, abs=0.4)


def _tilted(mesh):
    """Interior interpolant of 40x + 15y, a potential without the cube's
    axis symmetries."""
    return fem.FeField.interpolate(
        mesh, lambda p: 40.0 * p[..., 0] + 15.0 * p[..., 1], dirichlet=True)


def test_iterative_path_matches_dense_oracle(mesh8):
    # a cold start, a warm start under a new potential, a grown block
    # (the previous 6 vectors plus seeded random columns) and n < 5L,
    # where lobpcg solves densely itself; one preconditioner serves all
    # four
    solver = SpectrumSolver(mesh8, None, dense_cutoff=0)
    tilt = _tilted(mesh8)
    preconditioner = solver.preconditioner
    for u, L in ((None, 6), (tilt, 6), (tilt, 12), (tilt, 70)):
        s = solver.solve(u, L)
        assert solver.preconditioner is preconditioner
        assert solver.block.shape == (mesh8.n_interior, L)
        A, B = assemble_hamiltonian(mesh8, u, None)
        ref = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True)[:L]
        np.testing.assert_allclose(s.eigenvalues, ref, rtol=1e-10)
        assert np.all(s.residual_norms <= solver.tol)
    assert 5 * 70 > mesh8.n_interior


@pytest.mark.parametrize("m", [9, 11, 12])
def test_sine_preconditioned_path_matches_dense_oracle(m):
    # odd and even m; the preconditioner inverts K alone, and the
    # tilted potential is not small against it
    mesh = build_structured_mesh(m)
    solver = SpectrumSolver(mesh, None, dense_cutoff=0)
    tilt = _tilted(mesh)
    s = solver.solve(tilt, 8)
    assert isinstance(solver.preconditioner, SineInverse)
    A, B = assemble_hamiltonian(mesh, tilt, None)
    ref = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True,
                   subset_by_index=[0, 7])
    np.testing.assert_allclose(s.eigenvalues, ref, rtol=1e-10)
    assert np.all(s.residual_norms <= solver.tol)


def test_solver_shares_the_callers_matrices(mesh4):
    K = fem.assemble_stiffness(mesh4)
    solver = SpectrumSolver(mesh4, None, stiffness=K)
    M = solver.reference[1]
    assert solver.reference[0] is K
    assert (M.csr != fem.assemble_mass(mesh4).csr).nnz == 0
    # the factors of M's class blocks are kept on the mesh, and kept
    # through a tilted solve, which takes one class
    assert solver.solve(None, 4).classes == 6
    classes = symmetry.class_split(mesh4)
    factors = list(classes.factors)
    for rows, F in zip(classes.rows, factors):
        block = (rows[0].T @ (M.csr @ rows[0])).toarray()
        np.testing.assert_allclose(F @ block @ F.T, np.eye(len(F)),
                                   rtol=0, atol=1e-13)
    assert solver.solve(_tilted(mesh4), 6).classes == 1
    assert solver.solve(None, 5).classes == 6
    assert symmetry.class_split(mesh4) is classes
    assert all(a is b for a, b in zip(classes.factors, factors))


def test_sparse_path_emits_no_warnings():
    mesh = build_structured_mesh(10)        # n = 729, above DENSE_CUTOFF
    solver = SpectrumSolver(mesh, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solver.solve(None, 16)
        solver.solve(_tilted(mesh), 16)
        solver.solve(_tilted(mesh), 150)    # n < 5L: lobpcg warns
    assert solver.block.shape == (mesh.n_interior, 150)


def test_level_count_bounds(mesh4):
    solver = SpectrumSolver(mesh4, None)
    with pytest.raises(ValueError):
        solver.solve(None, mesh4.n_interior + 1)
    # a sparse solve checks L before it projects onto the grid modes
    with pytest.raises(ValueError):
        SpectrumSolver(build_structured_mesh(10), None).solve(None, 0)


def test_split_hamiltonian_matches_one_shot(mesh8):
    # the solver adds W(u) to its reference K + W(V0); the one-shot
    # assembly of W(u + V0) is kept here as the reference
    V0 = sine_product()
    u = _tilted(mesh8)
    K = fem.assemble_stiffness(mesh8)
    W = fem.assemble_weighted_mass(
        mesh8, Combination([(1.0, u), (1.0, V0)]))
    one_shot = (K.csr + W.csr).toarray()
    A, _ = assemble_hamiltonian(mesh8, u, V0)
    scale = np.abs(one_shot).max()
    assert np.abs(A.toarray() - one_shot).max() <= 1e-14 * scale

    solver = SpectrumSolver(mesh8, V0)
    s = solver.solve(u, 6)
    A0, B = solver.reference
    assert np.abs((A0.csr - K.csr).toarray()).max() > 0.0
    ref = sla.eigh(one_shot, B.toarray(), eigvals_only=True)[:6]
    np.testing.assert_allclose(s.eigenvalues, ref, rtol=1e-12)


def test_cube_modes_are_reexported():
    assert oracle.CubeMode is spectrum.CubeMode is spfem.CubeMode
    assert oracle.cube_eigensequence is spfem.cube_eigensequence \
        is cube_eigensequence


def test_grid_modes_are_the_cube_modes_at_the_vertices(mesh8):
    # 6 modes end inside the 9 pi^2 shell, so the block takes all 7
    points = mesh8.vertices[mesh8.interior_vertices]
    modes = np.column_stack([
        2.0 * math.sqrt(2.0) * np.prod(
            np.sin(math.pi * np.array([mode.i, mode.j, mode.k]) * points),
            axis=1)
        for mode in cube_eigensequence(7)])
    np.testing.assert_allclose(grid_modes(8, 6), modes, atol=1e-12)
    # indices m and above vanish or alias on the grid and are skipped
    assert np.linalg.matrix_rank(grid_modes(3, 8)) == 8


def test_first_block_is_the_perturbed_ritz_vectors(mesh8, monkeypatch):
    V0 = manufactured_problem(2, DistributionParams()).V0
    # a solver whose every solve is dense keeps no block
    dense = SpectrumSolver(mesh8, V0)
    dense.mode_estimates(6)
    assert dense.block is None
    solver = SpectrumSolver(mesh8, V0, seed=3, dense_cutoff=0)
    A, B = solver.reference
    est = solver.mode_estimates(6)
    np.testing.assert_array_equal(dense.mode_estimates(6), est)
    noisy = solver.block
    monkeypatch.setattr(spectrum, "START_NOISE", 0.0)
    clean_solver = SpectrumSolver(mesh8, V0, seed=3, dense_cutoff=0)
    np.testing.assert_array_equal(clean_solver.mode_estimates(6), est)
    X = clean_solver.block
    assert X.shape == (mesh8.n_interior, 7)
    # B-orthonormal, and the reference pencil is diagonal on it with
    # the estimates on the diagonal
    np.testing.assert_allclose(X.T @ (B @ X), np.eye(7), atol=1e-12)
    np.testing.assert_allclose(X.T @ (A @ X), np.diag(est),
                               atol=1e-10 * est.max())
    # every column moved by START_NOISE of its norm
    np.testing.assert_allclose(
        np.linalg.norm(noisy - X, axis=0),
        START_NOISE * np.linalg.norm(X, axis=0), rtol=1e-12)
    # a solver that has a block keeps it
    clean_solver.mode_estimates(20)
    assert clean_solver.block is X


def test_sparse_fixed_point_solve_projects_onto_grid_modes_once(
        monkeypatch):
    # the first level budget and the first LOBPCG block come from one
    # projection
    calls = []
    project = spectrum.grid_modes
    monkeypatch.setattr(spectrum, "grid_modes",
                        lambda m, L: calls.append(L) or project(m, L))
    mesh = build_structured_mesh(12)          # n = 1331: sparse path
    problem = manufactured_problem(1, DistributionParams())
    model = ScfModel(problem.V0, problem.n_D, problem.params)
    fixed_point_solve(mesh, model, ScfConfig(max_iter=2))
    assert len(calls) == 1


def test_mode_estimates_are_ritz_values_of_grid_modes(mesh8):
    # 6 modes end inside the 9 pi^2 shell, so the estimates take all 7;
    # they bound the levels from above and split the 6 pi^2 shell 2 + 1
    # as the Kuhn mesh does
    V0 = manufactured_problem(1, DistributionParams()).V0
    solver = SpectrumSolver(mesh8, V0)
    est = solver.mode_estimates(6)
    A, B = solver.reference
    lam = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True)[:7]
    assert len(est) == 7
    assert np.all(est >= lam * (1.0 - 1e-12))
    np.testing.assert_allclose(est, lam, rtol=0.03)
    assert est[2] - est[1] <= 1e-12 * est[2]
    assert est[3] - est[2] > 0.05 * est[3]


def test_solve_counts_lobpcg_iterations(mesh8, monkeypatch):
    # one preconditioner application per LOBPCG iteration; none on the
    # dense path
    assert SpectrumSolver(mesh8, None).solve(None, 6).iterations == 0
    calls = []
    apply = SineInverse.solve
    monkeypatch.setattr(SineInverse, "solve",
                        lambda self, b: calls.append(1) or apply(self, b))
    s = SpectrumSolver(mesh8, None, dense_cutoff=0).solve(None, 6)
    assert s.iterations == len(calls) > 0


@pytest.mark.parametrize("example", [None, 1])
def test_first_sparse_solve_from_cube_modes_matches_dense_oracle(example):
    # the unperturbed cube modes stall or miss levels here (L = 20, 38,
    # 42 at m = 12): the mesh, V0 and the preconditioner share the
    # cube's symmetries, so an exact mode block never reaches a symmetry class
    # it lacks
    mesh = build_structured_mesh(12)
    V0 = None if example is None else manufactured_problem(
        example, DistributionParams()).V0
    A, B = assemble_hamiltonian(mesh, None, V0)
    ref = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True,
                   subset_by_index=[0, 41])
    for L in (6, 20, 38, 42):
        solver = SpectrumSolver(mesh, V0, dense_cutoff=0)
        s = solver.solve(None, L)
        np.testing.assert_allclose(s.eigenvalues, ref[:L], rtol=1e-10)


def test_cube_levels_are_the_eigensequence():
    for count in (1, 7, 16, 513):
        np.testing.assert_array_equal(
            cube_levels(count),
            [mode.lam for mode in cube_eigensequence(count)])


@functools.cache
def _applied_potential(name):
    if name is None:
        return None
    V0 = manufactured_problem(int(name[-1]), DistributionParams()).V0
    if "shifted" in name:
        return fem.ScalarFunction(lambda p: V0(p) - 5.0)
    return V0


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([3, 4, 5]),
       potential=st.sampled_from([None, "benchmark 1", "benchmark 2",
                                  "shifted benchmark 1",
                                  "P1 shifted benchmark 1"]),
       amplitude=st.floats(-50.0, 50.0), seed=st.integers(0, 2 ** 32 - 1))
def test_levels_lie_above_the_continuum_plus_the_floor(m, potential,
                                                       amplitude, seed):
    # min-max for conforming P1 and Weyl for the potential: every level
    # of the pencil for u + V0 is at least the cube's Dirichlet
    # eigenvalue of its index plus the solve's potential floor; the
    # shifted V0 (V0 - 5) has a negative floor, and its P1 interpolant
    # takes the weighted mass's closed form
    mesh = build_structured_mesh(m)
    V0 = _applied_potential(potential)
    p1 = potential is not None and potential.startswith("P1")
    if p1:
        V0 = fem.FeField.interpolate(mesh, V0)
    u = fem.FeField.from_interior(
        mesh, amplitude * np.random.default_rng(seed).uniform(
            -1.0, 1.0, mesh.n_interior))
    solver = SpectrumSolver(mesh, V0)
    spectral = solver.solve(u, 1)
    floor = spectral.floor
    # the least value of V0 at the pencil's points (of a P1 V0, its
    # least vertex value, no larger but for rounding) plus u's most
    # negative vertex value
    at_points = 0.0 if V0 is None else \
        fem.values_on_elements(V0, mesh, tet_rule(2)).min()
    expected = at_points + min(0.0, u.coeffs.min())
    if p1:
        assert floor <= expected + 1e-12 * abs(expected)
    else:
        assert floor == expected
    if potential is not None and "shifted" in potential:
        assert floor < -4.0
    A, B = assemble_hamiltonian(mesh, u, V0)
    lam = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True)
    bound = cube_levels(mesh.n_interior) + floor
    assert np.all(lam >= bound - 1e-9 * np.abs(lam))
    # the set bounds its level and the next; no bound past the last level
    np.testing.assert_array_equal(spectral.bounds, bound[:2])
    np.testing.assert_array_equal(
        solver.level_bounds(mesh.n_interior + 1, floor), bound)
