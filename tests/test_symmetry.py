"""The symmetry classes of the Kuhn mesh and the eigensolves that split
a pencil into them, against the full ``eigh`` and the whole pencil's
LOBPCG as the oracles."""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spfem import fem, linsolve, scf, spectrum, symmetry
from spfem.mesh import build_structured_mesh
from spfem.occupancy import DistributionParams
from spfem.oracle import manufactured_problem
from spfem.spectrum import SpectrumSolver, assemble_hamiltonian

MESHES = [2, 3, 4, 5, 8]


def _tilted(mesh):
    """Interior interpolant of 40x + 15y, without the mesh's symmetries."""
    return fem.FeField.interpolate(
        mesh, lambda p: 40.0 * p[..., 0] + 15.0 * p[..., 1], dirichlet=True)


def _reference(m, example):
    """The reference pencil (K + W(V0), M) of benchmark ``example``."""
    V0 = manufactured_problem(example, DistributionParams()).V0
    return assemble_hamiltonian(build_structured_mesh(m), None, V0)


def _rows(m):
    return [Q for c in symmetry.class_bases(m) for Q in c.rows]


@pytest.mark.parametrize("m", MESHES)
def test_images_permute_the_vertex_coordinates(m):
    # the generators, read from the coordinates: swap x and y, swap y
    # and z, and x -> 1 - x on all three axes
    mesh = build_structured_mesh(m)
    grid = np.rint(mesh.vertices[mesh.interior_vertices] * m).astype(int)
    index = {tuple(v): i for i, v in enumerate(grid)}
    maps = [grid[:, [1, 0, 2]], grid[:, [0, 2, 1]], m - grid]
    expected = [[index[tuple(v)] for v in image] for image in maps]
    np.testing.assert_array_equal(
        symmetry.images(m, list(symmetry.GENERATORS)), expected)
    images = symmetry.images(m)
    assert images.shape == (12, mesh.n_interior)
    assert len({tuple(row) for row in images}) == (12 if m > 2 else 1)
    assert all(np.array_equal(np.sort(row), np.arange(mesh.n_interior))
               for row in images)


@pytest.mark.parametrize("m", MESHES)
def test_class_sizes_sum_to_n(m):
    bases = symmetry.class_bases(m)
    assert [c.name for c in bases] == ["A1g", "A2g", "Eg", "A1u", "A2u",
                                       "Eu"]
    assert [len(c.rows) for c in bases] == [1, 1, 2, 1, 1, 2]
    sizes = [c.rows[0].shape[1] for c in bases]
    assert sum(len(c.rows) * s for c, s in zip(bases, sizes)) == (m - 1) ** 3
    if m == 8:
        assert sizes == [44, 16, 56, 40, 19, 56]
    if m in (3, 4):
        assert sizes[1] == 0                    # A2g is empty


@pytest.mark.parametrize("m", MESHES)
def test_bases_are_orthonormal_orbit_sums(m):
    rows = _rows(m)
    Q = sp.hstack(rows).toarray()
    n = (m - 1) ** 3
    assert Q.shape == (n, n)
    np.testing.assert_allclose(Q.T @ Q, np.eye(n), rtol=0, atol=1e-14)
    for R in rows:
        assert R.shape[1] == 0 or np.diff(R.indptr).max() <= 12


@pytest.mark.parametrize("m", MESHES)
def test_generators_commute_with_the_pencils(m):
    mesh = build_structured_mesh(m)
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    pencils = [K.csr, M.csr] + [_reference(m, ex)[0].csr for ex in (1, 2)]
    for A in pencils:
        assert symmetry.asymmetry(m, A) <= 1e-15
    # a single-axis reflection is not a symmetry of the Kuhn mesh
    if m > 2:
        k = m - 1
        grid = np.indices((k, k, k)).reshape(3, -1)
        p = ((k - 1 - grid[0]) * k + grid[1]) * k + grid[2]
        assert abs(M.csr[p][:, p] - M.csr).max() > 1e-3 * abs(M.csr).max()


@pytest.mark.parametrize("m", MESHES)
def test_pencils_are_block_diagonal_with_equal_partner_blocks(m):
    bases = symmetry.class_bases(m)
    Q = sp.hstack(_rows(m)).toarray()
    mesh = build_structured_mesh(m)
    for A in (fem.assemble_stiffness(mesh), fem.assemble_mass(mesh),
              _reference(m, 1)[0], _reference(m, 2)[0]):
        R = Q.T @ A.toarray() @ Q
        scale = np.abs(R).max()
        ends = np.cumsum([Qr.shape[1] for Qr in _rows(m)])
        blocks = np.zeros_like(R, dtype=bool)
        for lo, hi in zip(np.r_[0, ends[:-1]], ends):
            blocks[lo:hi, lo:hi] = True
        assert np.abs(R[~blocks]).max(initial=0.0) <= 1e-14 * scale
        for c in bases:
            if len(c.rows) == 2:
                first, second = ((Qr.T @ (A.csr @ Qr)).toarray()
                                 for Qr in c.rows)
                assert np.abs(first - second).max(initial=0.0) \
                    <= 1e-14 * scale


@pytest.mark.parametrize("example", [1, 2])
@pytest.mark.parametrize("m", [8, 12])
def test_class_levels_match_full_eigh(example, m):
    # m = 12 (n = 1331) takes the dense path through dense_cutoff
    mesh = build_structured_mesh(m)
    V0 = manufactured_problem(example, DistributionParams()).V0
    solver = SpectrumSolver(mesh, V0, dense_cutoff=mesh.n_interior)
    A, B = solver.reference
    ref = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True,
                   subset_by_index=[0, 29])
    for L in (12, 30):
        s = solver.solve(None, L)
        assert s.classes == 6 and s.iterations == 0
        np.testing.assert_allclose(s.eigenvalues, ref[:L], rtol=1e-12)
        assert np.all(s.residual_norms <= solver.tol)


def test_class_levels_match_on_a_converged_sweep_iterate(mesh8):
    # the hardest density feedback of the sweep at m = 8
    problem = manufactured_problem(1, DistributionParams(N0=3000.0))
    report = scf.fixed_point_solve(
        mesh8, scf.ScfModel(problem.V0, problem.n_D, problem.params),
        scf.ScfConfig(max_iter=60))
    assert report.converged
    u = report.potential
    solver = SpectrumSolver(mesh8, problem.V0)
    s = solver.solve(u, 11)
    assert s.classes == 6
    A, B = assemble_hamiltonian(mesh8, u, problem.V0)
    ref = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True,
                   subset_by_index=[0, 10])
    np.testing.assert_allclose(s.eigenvalues, ref, rtol=1e-12)
    assert np.all(s.residual_norms <= solver.tol)


def test_tilted_pencils_take_one_class(mesh8):
    V0 = manufactured_problem(2, DistributionParams()).V0
    tilt = _tilted(mesh8)
    # a tilted u: this solve takes one class, the solver keeps its six
    solver = SpectrumSolver(mesh8, V0)
    assert solver.solve(None, 8).classes == 6
    s = solver.solve(tilt, 8)
    assert s.classes == 1 and solver.symmetric
    assert len(symmetry.class_split(mesh8).rows) == 6
    A, B = assemble_hamiltonian(mesh8, tilt, V0)
    ref = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True,
                   subset_by_index=[0, 7])
    np.testing.assert_allclose(s.eigenvalues, ref, rtol=1e-12)
    # a tilted V0: the reference pencil lacks the symmetry, so every
    # dense solve takes the whole space as its one class
    solver = SpectrumSolver(mesh8, tilt)
    s = solver.solve(None, 8)
    assert s.classes == 1 and not solver.symmetric
    A, B = solver.reference
    ref = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True,
                   subset_by_index=[0, 7])
    np.testing.assert_allclose(s.eigenvalues, ref, rtol=1e-12)


def test_class_residuals_above_tol_take_one_class(mesh8):
    # a bump with a tilt 4e-9 of its size keeps the symmetry to within
    # SYMMETRY_TOL, and the class solve meets a loose tolerance; a
    # tight one takes the whole pencil, whose residuals meet it
    def bumped(p):
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        return 1e3 * np.sin(np.pi * x) * np.sin(np.pi * y) \
            * np.sin(np.pi * z) + 1e-7 * (40.0 * x + 15.0 * y)
    u = fem.FeField.interpolate(mesh8, bumped, dirichlet=True)
    assert 0.0 < symmetry.asymmetry(8, u.interior()) <= spectrum.SYMMETRY_TOL
    solver = SpectrumSolver(mesh8, None)
    assert solver.solve(u, 8, tol=1e-6).classes == 6
    s = solver.solve(u, 8, tol=1e-12)
    assert s.classes == 1
    assert np.all(s.residual_norms <= 1e-12)
    A, B = assemble_hamiltonian(mesh8, u, None)
    ref = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True,
                   subset_by_index=[0, 7])
    np.testing.assert_allclose(s.eigenvalues, ref, rtol=1e-12)


def _classes_of_every_solve(monkeypatch):
    seen = []
    solve = SpectrumSolver.solve

    def recording(self, u, L, tol=None):
        s = solve(self, u, L, tol)
        seen.append(s.classes)
        return s
    monkeypatch.setattr(SpectrumSolver, "solve", recording)
    return seen


@pytest.mark.parametrize("N0, damping", [(3000.0, 0.5), (100.0, 1.0)])
def test_every_dense_solve_of_a_solve_uses_six_classes(mesh8, monkeypatch,
                                                       N0, damping):
    # a sweep-m8 solve at the strongest feedback, and a study solve at
    # m = 8; their iterates keep the symmetry to within SYMMETRY_TOL
    seen = _classes_of_every_solve(monkeypatch)
    problem = manufactured_problem(1, DistributionParams(N0=N0))
    report = scf.fixed_point_solve(
        mesh8, scf.ScfModel(problem.V0, problem.n_D, problem.params),
        scf.ScfConfig(max_iter=60, damping=damping))
    assert report.converged
    assert len(seen) > len(report.iterations)
    assert set(seen) == {6}



def test_two_solves_on_one_mesh_split_it_once(monkeypatch):
    # the class bases and the factors of the mass matrix's class blocks
    # depend on the mesh alone: built at its first dense solve, kept on
    # it through every later solver
    built = []
    class_bases = symmetry.class_bases
    monkeypatch.setattr(symmetry, "class_bases",
                        lambda m: built.append(m) or class_bases(m))
    mesh = build_structured_mesh(8)
    problem = manufactured_problem(2, DistributionParams())
    model = scf.ScfModel(problem.V0, problem.n_D, problem.params)
    assert scf.fixed_point_solve(mesh, model).converged
    split = symmetry.class_split(mesh)
    factors = list(split.factors)
    assert scf.fixed_point_solve(mesh, model).converged
    assert built == [8]
    assert symmetry.class_split(mesh) is split
    assert all(a is b for a, b in zip(split.factors, factors))


def test_class_levels_are_the_cube_levels():
    # each level of Eg and Eu is listed once, for one row
    for count in (1, 7, 50, 513):
        levels = symmetry.class_levels(count)
        assert len(levels) == 6
        assert all(np.all(np.diff(lv) >= 0.0) for lv in levels)
        union = np.sort(np.concatenate(
            [np.tile(lv, D.shape[1])
             for lv, (_, D) in zip(levels, symmetry.CLASSES)]))
        assert len(union) >= count
        np.testing.assert_array_equal(union,
                                      spectrum.cube_levels(len(union)))
    # the lowest level of each class: (1,1,1) A1g, (1,1,2) A1u + Eu,
    # (1,2,2) A1g + Eg, (1,2,3) A2u, (1,2,4) A2g
    lowest = [lv[0] / spectrum.PI2 for lv in symmetry.class_levels(100)]
    assert lowest == [3.0, 21.0, 9.0, 6.0, 14.0, 6.0]


@functools.cache
def _symmetric_problem(m, name):
    mesh = build_structured_mesh(m)
    V0 = None if name is None else manufactured_problem(
        int(name[-1]), DistributionParams()).V0
    return mesh, V0, symmetry.images(m)


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from([4, 6, 8]),
       potential=st.sampled_from([None, "benchmark 1", "benchmark 2"]),
       amplitude=st.floats(-50.0, 50.0), seed=st.integers(0, 2 ** 32 - 1))
def test_class_levels_lie_above_the_class_continuum_plus_the_floor(
        m, potential, amplitude, seed):
    # min-max on each class's subspace: the i-th level of a class of the
    # pencil for a symmetric u + V0 is at least the i-th level of the
    # cube's modes in that class plus the solve's potential floor
    mesh, V0, img = _symmetric_problem(m, potential)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, mesh.n_interior)
    u = fem.FeField.from_interior(mesh, amplitude * x[img].mean(axis=0))
    solver = SpectrumSolver(mesh, V0)
    spectral = solver.solve(u, 1)
    assert spectral.classes == 6
    A, _ = assemble_hamiltonian(mesh, u, V0)
    split = symmetry.class_split(mesh)
    bounds = solver.class_bounds(mesh.n_interior, spectral.floor)
    for R, Mc, bound, n_c in zip(split.blocks(A.csr), split.mass, bounds,
                                 split.sizes):
        if n_c == 0:
            continue
        lam = sla.eigh(R.toarray(), Mc.toarray(), eigvals_only=True)
        assert len(bound) == n_c
        assert np.all(lam >= bound - 1e-9 * np.abs(lam))


def _gap_count(values, most):
    """The largest L <= most with a relative gap above 1 % after it."""
    gaps = np.flatnonzero(np.diff(values[:most + 1])
                          > 0.01 * np.abs(values[1:most + 1])) + 1
    return int(gaps[-1])


def _grams(mesh, coeffs, values):
    """The step Gram of each eigenspace (levels equal to 1e-8) of the
    vertex values ``coeffs``."""
    cuts = np.flatnonzero(np.diff(values) > 1e-8 * np.abs(values[1:])) + 1
    return [fem.step_gram(mesh, coeffs[:, space], np.ones(len(space)))
            for space in np.split(np.arange(len(values)), cuts)]


@pytest.mark.parametrize("example", [1, 2])
@pytest.mark.parametrize("m", [12, 16])
def test_class_lobpcg_matches_the_whole_pencil(example, m):
    # the sparse class path against the unreduced LOBPCG, on a small and
    # a wide block that end at a gap: the levels, and the step Gram of
    # every eigenspace, which no rotation within it changes
    mesh = build_structured_mesh(m)
    V0 = manufactured_problem(example, DistributionParams()).V0
    solver = SpectrumSolver(mesh, V0)
    A, B = solver.reference
    whole = linsolve.lowest_eigenpairs(
        A, B, 40, tol=solver.tol, preconditioner=solver.preconditioner)
    assert whole.classes == 1
    coeffs = np.zeros((mesh.n_vertices, 40))
    coeffs[mesh.interior_vertices] = whole.vectors
    for most in (12, 36):
        L = _gap_count(whole.values, most)
        s = solver.solve(None, L)
        assert s.classes == 6 and s.iterations > 0
        np.testing.assert_allclose(s.eigenvalues, whole.values[:L],
                                   rtol=1e-10)
        for got, ref in zip(_grams(mesh, s.coefficients, s.eigenvalues),
                            _grams(mesh, coeffs[:, :L], whole.values[:L])):
            assert np.abs(got - ref).max() <= 1e-7 * np.abs(ref).max()


def _class_solve(mesh, V0, L, start):
    solver = SpectrumSolver(mesh, V0)
    A, B = solver.reference
    return linsolve.lowest_eigenpairs(
        A, B, L, tol=solver.tol, preconditioner=solver.preconditioner,
        start=start, classes=symmetry.class_split(mesh),
        bounds=solver.class_bounds(L + 1))


def test_class_lobpcg_grows_a_class_its_start_lacks(monkeypatch):
    # a start block without the A1u levels, one with a single column of
    # the A1g levels, and none at all: each class is grown until its
    # bound or its own next level certifies the cut, and every result
    # is the L lowest levels of the pencil
    mesh = build_structured_mesh(10)
    V0 = manufactured_problem(1, DistributionParams()).V0
    solver = SpectrumSolver(mesh, V0)
    A, B = solver.reference
    L = 16
    ref = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True,
                   subset_by_index=[0, L - 1])
    full = solver.solve(None, L)
    assert full.classes == 6
    X = full.coefficients[mesh.interior_vertices]
    split = symmetry.class_split(mesh)
    weight = np.array([sum(np.sum((Q.T @ X) ** 2, axis=0) for Q in rows)
                       for rows in split.rows])
    owner = np.argmax(weight, axis=0)
    a1g, a1u = (np.flatnonzero(owner == c) for c in (0, 3))
    assert len(a1g) > 1 and len(a1u) > 0
    grown = []
    lobpcg = linsolve._lobpcg

    def recording(A, B, X, precondition, tol, constraints=None):
        grown.append(constraints is not None)
        return lobpcg(A, B, X, precondition, tol, constraints)
    monkeypatch.setattr(linsolve, "_lobpcg", recording)
    for start in (np.delete(X, a1u, axis=1), np.delete(X, a1g[1:], axis=1),
                  None):
        grown.clear()
        res = _class_solve(mesh, V0, L, start)
        assert res.classes == 6 and any(grown)
        np.testing.assert_allclose(res.values, ref, rtol=1e-10)


def test_class_lobpcg_solves_each_share_and_no_margin(monkeypatch):
    # benchmark 1 at m = 16, 11 levels: the bounds certify every class's
    # cut, so each class solves its share of the block and nothing more,
    # and the classes without a share (A2g, A2u) run no LOBPCG
    mesh = build_structured_mesh(16)
    V0 = manufactured_problem(1, DistributionParams()).V0
    solver = SpectrumSolver(mesh, V0)
    s = solver.solve(None, 11)
    assert s.classes == 6 and solver.spare is None
    runs = []
    lobpcg = linsolve._lobpcg

    split = symmetry.class_split(mesh)

    def recording(A, B, X, precondition, tol, constraints=None):
        c = next(c for c, Mc in enumerate(split.mass) if Mc is B)
        runs.append((c, X.shape[1], constraints is None))
        return lobpcg(A, B, X, precondition, tol, constraints)
    monkeypatch.setattr(linsolve, "_lobpcg", recording)
    again = solver.solve(None, 11)
    np.testing.assert_allclose(again.eigenvalues, s.eigenvalues, rtol=1e-10)
    shares = {c: k for c, k, _ in runs}
    assert len(shares) == len(runs)
    assert all(free for _, _, free in runs)
    assert sorted(shares) == [0, 2, 3, 5]
    assert sum(k * len(split.rows[c]) for c, k in shares.items()) == 11


def test_tilted_sparse_pencils_run_whole():
    # n = 729: the sparse path; a tilted u solves the whole pencil
    mesh = build_structured_mesh(10)
    V0 = manufactured_problem(2, DistributionParams()).V0
    tilt = _tilted(mesh)
    solver = SpectrumSolver(mesh, V0)
    assert solver.solve(None, 8).classes == 6
    s = solver.solve(tilt, 8)
    assert s.classes == 1 and s.iterations > 0
    A, B = assemble_hamiltonian(mesh, tilt, V0)
    ref = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True,
                   subset_by_index=[0, 7])
    np.testing.assert_allclose(s.eigenvalues, ref, rtol=1e-10)
    assert not SpectrumSolver(mesh, tilt).symmetric


def test_class_path_forms_no_dense_square_array():
    # m = 24, n = 12167: the solver, the mesh's class split and a class
    # LOBPCG solve together stay far below one (n, n) float64 array;
    # a dense reduction on the first rows of all classes, (2n/3)^2 of
    # them, would not
    mesh = build_structured_mesh(24)
    n = mesh.n_interior
    tracemalloc.start()
    try:
        solver = SpectrumSolver(mesh, None)
        s = solver.solve(None, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.classes == 6
    assert peak < 0.1 * 8 * n * n
