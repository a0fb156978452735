import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from spfem import fem
from spfem.errors import ConvergenceError
from spfem.linsolve import (DEFAULT_PCG_TOL, SparseSymMatrix, lowest_eigenpairs,
                            pcg_solve)
from spfem.mesh import build_structured_mesh
from spfem.oracle import cube_eigensequence, manufactured_problem
from spfem.spectrum import SineInverse


def _diag(values):
    return SparseSymMatrix(sp.diags(values).tocsr())


def test_pcg_identity_one_iteration():
    A = _diag([1.0, 1.0, 1.0, 1.0])
    b = np.array([3.0, -1.0, 2.0, 0.5])
    x = pcg_solve(A, b, max_iter=1)
    np.testing.assert_allclose(x, b, atol=1e-14)


def test_pcg_diagonal():
    A = _diag([1.0, 2.0, 4.0])
    x = pcg_solve(A, np.array([1.0, 2.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0, 1.0], atol=1e-12)


def test_pcg_zero_rhs(mesh4):
    K = fem.assemble_stiffness(mesh4)
    assert np.all(pcg_solve(K, np.zeros(K.n)) == 0.0)


def test_pcg_against_dense_lu(mesh4):
    K = fem.assemble_stiffness(mesh4)
    b = fem.assemble_load(mesh4, fem.ScalarFunction.constant(1.0))
    x = pcg_solve(K, b, tol=1e-12)
    x_ref = np.linalg.solve(K.toarray(), b)
    assert np.linalg.norm(x - x_ref) < 1e-9


def test_pcg_budget_error(mesh4):
    K = fem.assemble_stiffness(mesh4)
    b = fem.assemble_load(mesh4, fem.ScalarFunction.constant(1.0))
    with pytest.raises(ConvergenceError) as err:
        pcg_solve(K, b, tol=1e-15, max_iter=2)
    assert err.value.residual > 0
    assert err.value.iterations == 2


def _reference_pcg(A, b, tol):
    """The hand-written Jacobi PCG loop that scipy's cg replaced."""
    bnorm = np.linalg.norm(b)
    inv_diag = 1.0 / A.diagonal()
    x = np.zeros(A.n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for _ in range(max(1000, 10 * A.n)):
        if np.linalg.norm(r) <= tol * bnorm:
            return x
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("reference PCG did not converge")


@pytest.mark.parametrize("m", [8, 16])
def test_pcg_matches_reference_loop_on_doping_load(params, m):
    mesh = build_structured_mesh(m)
    K = fem.assemble_stiffness(mesh)
    b = fem.assemble_load(mesh, manufactured_problem(1, params).n_D)
    x = pcg_solve(K, b)
    assert np.array_equal(x, _reference_pcg(K, b, DEFAULT_PCG_TOL))


def test_eigen_trivial_diag():
    A = _diag([2.0, 5.0, 9.0])
    B = _diag([1.0, 1.0, 1.0])
    res = lowest_eigenpairs(A, B, 2)
    np.testing.assert_allclose(res.values, [2.0, 5.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(res.vectors),
                               [[1, 0], [0, 1], [0, 0]], atol=1e-10)


def test_eigen_invalid_count():
    A = _diag([1.0, 2.0])
    with pytest.raises(ValueError):
        lowest_eigenpairs(A, A, 3)
    with pytest.raises(ValueError):
        lowest_eigenpairs(A, A, 0)


def test_eigen_matches_dense_reference(mesh4):
    K = fem.assemble_stiffness(mesh4)
    M = fem.assemble_mass(mesh4)
    res = lowest_eigenpairs(K, M, 5, dense_cutoff=0)  # force iterative path
    w_ref = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    np.testing.assert_allclose(res.values, w_ref[:5], rtol=1e-8)
    assert np.all(res.residual_norms <= 1e-9)
    gram = res.vectors.T @ (M @ res.vectors)
    assert np.abs(gram - np.eye(5)).max() < 1e-8


@pytest.mark.parametrize("m", [4, 8])
def test_galerkin_monotonicity(m):
    mesh = build_structured_mesh(m)
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    res = lowest_eigenpairs(K, M, 10)
    lam = np.array([mode.lam for mode in cube_eigensequence(10)])
    assert np.all(res.values >= lam - 1e-9)
    assert np.all(np.diff(res.values) >= -1e-12)


def test_degenerate_cluster_projector_reproducible(mesh8):
    K = fem.assemble_stiffness(mesh8)
    M = fem.assemble_mass(mesh8)
    projectors = []
    for seed in (11, 23):
        res = lowest_eigenpairs(K, M, 4, dense_cutoff=0, seed=seed)
        cluster = np.flatnonzero(
            np.abs(res.values - res.values[1]) <= 1e-8 * (1 + res.values[1]))
        X = res.vectors[:, cluster]
        projectors.append(X @ X.T @ M.toarray())
    assert np.abs(projectors[0] - projectors[1]).max() < 1e-6


def test_sparse_matrix_matvec_matches_dense():
    rng = np.random.default_rng(3)
    n = 30
    dense = rng.standard_normal((n, n))
    dense = dense + dense.T
    dense[np.abs(dense) < 1.0] = 0.0
    A = SparseSymMatrix(sp.csr_matrix(dense))
    x = rng.standard_normal(n)
    np.testing.assert_allclose(A @ x, dense @ x, atol=1e-14)
    assert A.structurally_symmetric()


def test_rank_deficient_start_is_a_convergence_error():
    mesh = build_structured_mesh(8)
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    col = np.random.default_rng(0).standard_normal((K.n, 1))
    with pytest.raises(ConvergenceError, match="lobpcg"):
        lowest_eigenpairs(K, M, 6, dense_cutoff=0,
                          start=np.repeat(col, 6, axis=1))


@pytest.mark.parametrize("m", [2, 3, 8, 13, 20])
def test_sine_inverse_inverts_the_stiffness(m):
    # exact for vectors and blocks, and a symmetric positive definite
    # operator
    K = fem.assemble_stiffness(build_structured_mesh(m))
    inverse = SineInverse(m)
    rng = np.random.default_rng(m)
    b = rng.standard_normal(K.n)
    X, Y = rng.standard_normal((2, K.n, 5))
    x, VX, VY = inverse.solve(b), inverse.solve(X), inverse.solve(Y)
    assert x.shape == b.shape and VX.shape == X.shape
    assert np.linalg.norm(K @ x - b) <= 1e-13 * np.linalg.norm(b)
    assert np.linalg.norm(K @ VX - X) <= 1e-13 * np.linalg.norm(X)
    np.testing.assert_allclose(VX[:, 3], inverse.solve(X[:, 3]), rtol=1e-13,
                               atol=1e-13 * np.abs(VX).max())
    gram = Y.T @ VX
    assert np.abs(gram - VY.T @ X).max() <= 1e-13 * np.abs(gram).max()
    assert np.all(np.sum(X * VX, axis=0) > 0.0)
