from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import Combination, by_blocks, sine_product
from spfem import fem
from spfem.mesh import build_structured_mesh
from spfem.occupancy import DensityField, DistributionParams
from spfem.oracle import _mode_by_mode, manufactured_problem
from spfem.quadrature import tet_rule


def _deep_rows(mesh):
    """Interior dofs whose Kuhn neighbours are all interior: a row of an
    operator there holds every basis function that overlaps its own."""
    grid = np.rint(mesh.vertices[mesh.interior_vertices] * mesh.m)
    return np.flatnonzero(np.all((grid >= 2) & (grid <= mesh.m - 2), axis=1))


@pytest.fixture(scope="module")
def mesh6():
    return build_structured_mesh(6)


def test_stiffness_row_sums_zero(mesh6):
    K = fem.assemble_stiffness(mesh6)
    rowsums = np.asarray(K.csr.sum(axis=1)).ravel()[_deep_rows(mesh6)]
    assert len(rowsums) == 27
    assert np.abs(rowsums).max() < 1e-13


@pytest.mark.parametrize("m", [2, 3, 4])
def test_stiffness_spd(m):
    mesh = build_structured_mesh(m)
    K = fem.assemble_stiffness(mesh)
    rng = np.random.default_rng(m)
    for _ in range(5):
        x = rng.standard_normal(K.n)
        assert x @ (K @ x) > 0.0
    dense = K.toarray()
    assert np.abs(dense - dense.T).max() < 1e-14
    assert (K.csr != K.csr.T).nnz == 0


def test_mass_total_and_element_formula(mesh4, mesh6):
    # a deep row sums to the integral of its basis function, 1/m^3
    M = fem.assemble_mass(mesh6)
    rowsums = np.asarray(M.csr.sum(axis=1)).ravel()[_deep_rows(mesh6)]
    np.testing.assert_allclose(rowsums, 1.0 / 6 ** 3, rtol=1e-13)
    # one-element check of |K|/20 * (2 on diagonal, 1 off)
    mesh1 = build_structured_mesh(1)
    vol = mesh1.volumes[0]
    rule = tet_rule(2)
    bary = rule.points
    for a in range(4):
        for b in range(4):
            exact = vol / 20.0 * (2.0 if a == b else 1.0)
            quad = vol * np.sum(rule.weights * bary[:, a] * bary[:, b])
            assert quad == pytest.approx(exact, abs=1e-15)
    Mi = fem.assemble_mass(mesh4)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(Mi.n)
    assert x @ (Mi @ x) > 0.0


def test_weighted_mass_constant_and_linear(mesh4, mesh6):
    Mi = fem.assemble_mass(mesh4)
    W = fem.assemble_weighted_mass(mesh4, fem.ScalarFunction.constant(1.0))
    assert np.abs((W.csr - Mi.csr).toarray()).max() < 1e-13
    W2 = fem.assemble_weighted_mass(mesh4, fem.ScalarFunction.constant(-2.0))
    assert np.abs((W2.csr + 2.0 * Mi.csr).toarray()).max() < 1e-13
    # w = x: the basis functions sum to 1 on a deep row's support, so
    # there the row sum is the load int(x * basis_i) with the same rule
    w = fem.ScalarFunction(lambda p: p[..., 0])
    rule = tet_rule(4)
    Wx = fem.assemble_weighted_mass(mesh6, w, rule)
    rows = _deep_rows(mesh6)
    np.testing.assert_allclose((Wx @ np.ones(Wx.n))[rows],
                               fem.assemble_load(mesh6, w, rule)[rows],
                               rtol=1e-13)
    sym = Wx.toarray()
    assert np.abs(sym - sym.T).max() < 1e-14


def test_load_center_value_and_patch_oracle(mesh4):
    mesh2 = build_structured_mesh(2)
    b = fem.assemble_load(mesh2, fem.ScalarFunction.constant(1.0))
    np.testing.assert_allclose(b, [0.125], atol=1e-15)

    # brute-force oracle: for g = 1 the load is the vertex patch volume / 4
    b4 = fem.assemble_load(mesh4, fem.ScalarFunction.constant(1.0))
    patch = np.zeros(mesh4.n_vertices)
    for t, vol in zip(mesh4.element_vertices(), mesh4.volumes):
        patch[t] += vol / 4.0
    np.testing.assert_allclose(b4, patch[mesh4.interior_vertices], atol=1e-15)


def test_load_zero_and_linearity(mesh4):
    z = fem.assemble_load(mesh4, fem.ScalarFunction.constant(0.0))
    assert np.all(z == 0.0)
    g1 = sine_product()
    g2 = fem.ScalarFunction(lambda p: p[..., 0] * p[..., 2])
    combo = Combination([(2.5, g1), (-1.5, g2)])
    b = fem.assemble_load(mesh4, combo)
    b1 = fem.assemble_load(mesh4, g1)
    b2 = fem.assemble_load(mesh4, g2)
    np.testing.assert_allclose(b, 2.5 * b1 - 1.5 * b2, atol=1e-13)


def test_errors_vanish_for_reproduced_linears(mesh4):
    f = fem.ScalarFunction(
        lambda p: p[..., 0] + 2.0 * p[..., 1],
        grad=lambda p: np.broadcast_to([1.0, 2.0, 0.0], p.shape))
    fh = fem.FeField.interpolate(mesh4, f)
    assert fem.l2_norm_error(mesh4, fh, f) < 1e-13
    assert fem.h1_semi_error(mesh4, fh, f) < 1e-13


def test_error_positivity(mesh4):
    zero = fem.ScalarFunction.constant(0.0)
    ones = fem.FeField.from_interior(mesh4, np.ones(mesh4.n_interior))
    assert fem.l2_norm_error(mesh4, ones, zero) > 0.0


def test_interpolation_error_orders():
    f = sine_product()
    errs = []
    for m in (4, 8, 16):
        mesh = build_structured_mesh(m)
        fh = fem.FeField.interpolate(mesh, f)
        errs.append((fem.l2_norm_error(mesh, fh, f),
                     fem.h1_semi_error(mesh, fh, f)))
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse[0] / fine[0] == pytest.approx(4.0, abs=0.3)
        assert coarse[1] / fine[1] == pytest.approx(2.0, abs=0.2)


def test_bilinear_form_matches_direct_quadrature(mesh4):
    # v' (K + M_w) v equals elementwise quadrature of |grad v|^2 + w v^2
    w = fem.ScalarFunction(
        lambda p: 1.0 + p[..., 0] - 0.5 * p[..., 1] * p[..., 2])
    rule = tet_rule(2)
    K = fem.assemble_stiffness(mesh4)
    Mw = fem.assemble_weighted_mass(mesh4, w, rule)
    rng = np.random.default_rng(7)
    v = fem.FeField.from_interior(mesh4, rng.standard_normal(mesh4.n_interior))
    vi = v.interior()
    matrix_value = vi @ (K @ vi) + vi @ (Mw @ vi)
    grads = v.element_gradients(mesh4, rule)
    vals = v.element_values(mesh4, rule)
    wvals = w.element_values(mesh4, rule)
    integrand = np.einsum("nqd,nqd->nq", grads, grads) + wvals * vals ** 2
    direct = ((integrand @ rule.weights) @ mesh4.volumes)
    assert matrix_value == pytest.approx(direct, rel=1e-12)


def test_quadrature_degree_guards(mesh4):
    with pytest.raises(ValueError):
        fem.assemble_weighted_mass(mesh4, fem.ScalarFunction.constant(1.0),
                                   tet_rule(1))
    with pytest.raises(ValueError):
        fem.assemble_load(mesh4, fem.ScalarFunction.constant(1.0), tet_rule(1))


def test_fefield_guards(mesh4):
    other = build_structured_mesh(2)
    field = fem.FeField.zero(mesh4)
    with pytest.raises(ValueError):
        field.element_values(other, tet_rule(2))
    with pytest.raises(ValueError):
        fem.FeField(mesh4, np.zeros(3))


def _coo_assembly(mesh, local):
    """Reference: COO scatter, tocsr and np.ix_ restriction, the assembly
    the fixed CSR pattern replaced."""
    nv = mesh.n_vertices
    tets = mesh.element_vertices()
    rows = np.repeat(tets[:, :, None], 4, axis=2)
    cols = np.repeat(tets[:, None, :], 4, axis=1)
    csr = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                        shape=(nv, nv)).tocsr()
    ids = mesh.interior_vertices
    csr = csr[np.ix_(ids, ids)].tocsr()
    csr.sum_duplicates()
    return csr


def _einsum_weighted_local(mesh, w, rule):
    """Reference: the 4-operand einsum of the weighted-mass local
    matrices."""
    wvals = w.element_values(mesh, rule)
    local = np.einsum("q,nq,qa,qb->nab", rule.weights, wvals,
                      rule.points, rule.points)
    return local * mesh.volumes[:, None, None]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_fixed_pattern_assembly_matches_coo(m):
    mesh = build_structured_mesh(m)
    rule = tet_rule(2)
    rng = np.random.default_rng(m)
    fe_weight = fem.FeField(mesh, rng.standard_normal(mesh.n_vertices))
    analytic = fem.ScalarFunction(
        lambda p: 1.0 + p[..., 0] - 0.5 * p[..., 1] * p[..., 2])
    grads = mesh.grads[np.arange(mesh.n_tets) % 6]    # per element
    stiff_local = np.einsum("nad,nbd->nab", grads, grads) \
        * mesh.volumes[:, None, None]
    mass_local = mesh.volumes[:, None, None] \
        * (np.ones((4, 4)) + np.eye(4))[None] / 20.0
    cases = [
        (fem.assemble_stiffness(mesh), stiff_local),
        (fem.assemble_mass(mesh), mass_local),
        (fem.assemble_weighted_mass(mesh, fe_weight, rule),
         _einsum_weighted_local(mesh, fe_weight, rule)),
        (fem.assemble_weighted_mass(mesh, analytic, rule),
         _einsum_weighted_local(mesh, analytic, rule)),
    ]
    for new, local in cases:
        ref = _coo_assembly(mesh, local)
        np.testing.assert_array_equal(new.csr.indptr, ref.indptr)
        np.testing.assert_array_equal(new.csr.indices, ref.indices)
        # summation order differs, so the data agree to rounding,
        # relative to the largest entry (m = 1 has no interior entry)
        scale = np.abs(ref.data).max(initial=0.0)
        assert np.abs(new.csr.data - ref.data).max(initial=0.0) \
            <= 1e-15 * scale


def _element_bincount(mesh, local):
    """Reference: the (nt, 4, 4) local entries summed by one bincount on
    (row of vertex a, Kuhn step a -> b) keys, boundary rows in a dropped
    row n, then cut to the pattern's pairs."""
    n = mesh.n_interior
    tets = mesh.element_vertices()
    rows = mesh.interior_index[tets]
    rows[rows < 0] = n
    corners = np.rint(mesh.vertices[tets] * mesh.m).astype(int)
    # the grid step b - a of each entry, as an index into fem._KUHN_STEPS
    codes = (fem._KUHN_STEPS + 1) @ [9, 3, 1]
    entry = (corners[:, None, :, :] - corners[:, :, None, :] + 1) @ [9, 3, 1]
    steps = np.searchsorted(codes, entry)
    assert np.all(codes[steps] == entry)
    keys = rows[:, :, None] * 15 + steps
    table = np.bincount(keys.ravel(), weights=local.ravel(),
                        minlength=15 * (n + 1))
    return table.reshape(-1, 15)[:-1][fem._pattern(mesh).valid]


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 21])
def test_stencils_are_the_element_bincount(m):
    # reference: the six Kuhn local matrices tiled over every element,
    # scaled by its volume and summed by one bincount on (row, step)
    mesh = build_structured_mesh(m)
    per_kind = [np.einsum("kad,kbd->kab", mesh.grads, mesh.grads),
                np.broadcast_to((np.ones((4, 4)) + np.eye(4)) / 20.0,
                                (6, 4, 4))]
    for matrix, local in zip(
            (fem.assemble_stiffness(mesh), fem.assemble_mass(mesh)),
            per_kind):
        local = np.tile(local, (m ** 3, 1, 1)) * mesh.volumes[:, None, None]
        ref = _element_bincount(mesh, local)
        np.testing.assert_array_equal(matrix.csr.data, ref)


@pytest.mark.parametrize("m", [8, 21])
def test_pattern_holds_no_per_element_table(m):
    mesh = build_structured_mesh(m)
    bound = 15 * (mesh.n_interior + 1)
    for field in fem._pattern(mesh):
        assert np.size(field) <= bound


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
def test_element_gram_is_the_step_index_gather(m):
    # slabs read through the shared slab index give the very floats of
    # the per-call closed-form index, on every range of slabs
    mesh = build_structured_mesh(m)
    coeffs = np.random.default_rng(m).standard_normal((mesh.n_vertices, 3))
    coeffs[mesh.boundary_mask] = 0.0
    gram = fem.step_gram(mesh, coeffs, np.array([2.0, 1.0, 0.5]))
    for start in range(m):
        for stop in range(start + 1, m + 1):
            slabs = range(start, stop)
            np.testing.assert_array_equal(
                fem.element_gram(mesh, gram, slabs),
                gram.ravel()[fem._step_index(m, slabs)])


def test_element_gram_needs_the_whole_step_gram():
    # the shared slab index wraps, so a table without its zero row must
    # raise instead of being read from the wrong rows
    mesh = build_structured_mesh(4)
    gram = np.zeros((mesh.n_interior + 1, 15))
    with pytest.raises(ValueError):
        fem.element_gram(mesh, gram[:-1])


def _element_grams(mesh, coeffs, weights):
    """Reference: the 4x4 Grams sum_l w_l c_l c_l^T of every element's
    vertex coefficients c_l, (nt, 16)."""
    local = coeffs[mesh.element_vertices()]            # (nt, 4, L)
    return np.einsum("l,nal,nbl->nab", weights, local, local).reshape(-1, 16)


@pytest.mark.parametrize("degree", [2, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 21])
def test_sweep_stencils_match_element_quadrature(m, degree):
    # oracle: the element passes the stencils replaced, with the same
    # rule; the sums are taken in another order
    mesh = build_structured_mesh(m)
    rule = tet_rule(degree)
    rng = np.random.default_rng(10 * m + degree)
    weight = fem.FeField(mesh, rng.standard_normal(mesh.n_vertices))
    assert np.all(weight.coeffs[mesh.boundary_mask] != 0.0)
    occupations = np.array([2.0, 1.0, 0.5, 0.25])
    coeffs = rng.standard_normal((mesh.n_vertices, len(occupations)))
    coeffs[mesh.boundary_mask] = 0.0
    spectral = SimpleNamespace(mesh=mesh, coefficients=coeffs,
                               count=len(occupations))
    density = DensityField(spectral, occupations, len(occupations) + 1)
    vol = mesh.volumes[:, None]

    def close(got, want):
        scale = np.abs(want).max(initial=0.0)
        assert np.abs(got - want).max(initial=0.0) <= 1e-13 * scale

    # weighted mass: the weight at the rule's points, one bincount
    local = _einsum_weighted_local(mesh, weight, rule)
    close(fem.assemble_weighted_mass(mesh, weight, rule).csr.data,
          _element_bincount(mesh, local))
    # step Gram: gathered onto the elements, the elements' own Grams,
    # on the whole mesh and on each slab block
    grams = _element_grams(mesh, coeffs, occupations)
    close(fem.element_gram(mesh, density.gram), grams)
    blocks = fem.slab_blocks(mesh, rule)
    if (m, degree) == (21, 5):
        assert len(blocks) > 1
    for slabs in blocks:
        close(fem.element_gram(mesh, density.gram, slabs),
              grams[mesh.slab_elements(slabs)])
    # density load and integral: the density at the rule's points
    values = grams @ fem.basis_products(rule).T        # (nt, nq)
    local = ((values * rule.weights) @ rule.points) * vol
    full = np.bincount(mesh.element_vertices().ravel(), weights=local.ravel(),
                       minlength=mesh.n_vertices)
    close(fem.assemble_load(mesh, density, rule),
          full[mesh.interior_vertices])
    close(density.integral(), (values @ rule.weights) @ mesh.volumes)


def test_sweep_stencils_refuse_a_foreign_field(mesh4):
    other = build_structured_mesh(2)
    spectral = SimpleNamespace(mesh=other, count=1,
                               coefficients=np.zeros((other.n_vertices, 1)))
    with pytest.raises(ValueError):
        fem.assemble_weighted_mass(mesh4, fem.FeField.zero(other))
    with pytest.raises(ValueError):
        fem.assemble_load(mesh4, DensityField(spectral, [1.0], 2))


def test_load_matches_einsum_scatter(mesh4):
    rule = tet_rule(4)
    g = sine_product()
    gvals = g.element_values(mesh4, rule)
    local = np.einsum("q,nq,qa->na", rule.weights, gvals, rule.points)
    local *= mesh4.volumes[:, None]
    full = np.zeros(mesh4.n_vertices)
    np.add.at(full, mesh4.element_vertices().ravel(), local.ravel())
    ref = full[mesh4.interior_vertices]
    b = fem.assemble_load(mesh4, g, rule)
    assert np.abs(b - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("m", [1, 3, 5, 16])
def test_one_slab_blocks_match_whole_mesh(m, monkeypatch):
    mesh = build_structured_mesh(m)
    problem = manufactured_problem(1, DistributionParams(mu=0.04))
    f = sine_product()
    fh = fem.FeField.interpolate(mesh, f, dirichlet=True)
    coeffs = np.random.default_rng(m).standard_normal((mesh.n_vertices, 3))
    coeffs[mesh.boundary_mask] = 0.0
    spectral = SimpleNamespace(mesh=mesh, coefficients=coeffs, count=3)
    density = DensityField(spectral, [2.0, 1.0, 0.5], 4)
    rule4, rule5 = tet_rule(4), tet_rule(5)

    def evaluate():
        return [
            fem.assemble_load(mesh, problem.n_D, rule4),
            fem.assemble_weighted_mass(mesh, f, rule4).csr.data,
            fem.assemble_weighted_mass(mesh, density, rule4).csr.data,
            fem.l2_norm_error(mesh, fh, f, rule5),
            fem.h1_semi_error(mesh, fh, f, rule5),
            fem.h1_error(mesh, fh, f, rule5),
            fem.l2_norm_error(mesh, density, problem.n_exact, rule5),
            density.integral(),
            by_blocks(mesh, rule5, lambda slabs: density.element_values(
                mesh, rule5, slabs)),
        ]

    monkeypatch.setattr(fem, "BLOCK_POINTS", 24 * mesh.n_tets)
    assert len(fem.slab_blocks(mesh, tet_rule(6))) == 1
    whole = evaluate()
    np.testing.assert_array_equal(whole[-1],
                                  density.element_values(mesh, rule5))
    monkeypatch.setattr(fem, "BLOCK_POINTS", 1)
    assert len(fem.slab_blocks(mesh, tet_rule(2))) == m
    got = evaluate()
    # the analytic load and weighted mass add each block into their
    # target in element order, the one-block summation bit for bit
    for i in (0, 1):
        np.testing.assert_array_equal(got[i], whole[i])
    for got, want in zip(got[2:], whole[2:]):
        want = np.asarray(want)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-14 * np.abs(want).max(initial=0))


@pytest.mark.parametrize("mu", [0.1, 0.04])
@pytest.mark.parametrize("m", [1, 3, 5, 16])
def test_slab_indexed_series_matches_mode_by_mode(m, mu, monkeypatch):
    monkeypatch.setattr(fem, "BLOCK_POINTS", 1)
    mesh = build_structured_mesh(m)
    series = manufactured_problem(1, DistributionParams(mu=mu)).n_exact
    rule = tet_rule(4)
    got = series.element_values(mesh, rule)
    blocked = by_blocks(mesh, rule, lambda slabs: series.element_values(
        mesh, rule, slabs))
    ref = _mode_by_mode(series, mesh.physical_points(rule))
    for vals in (got, blocked):
        np.testing.assert_allclose(vals, ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())


def test_default_blocks_cover_the_m8_mesh_at_once(mesh8):
    assert len(fem.slab_blocks(mesh8, tet_rule(6))) == 1
    assert len(fem.slab_blocks(build_structured_mesh(16), tet_rule(5))) > 1
