import itertools
import math

import numpy as np
import pytest

from spfem import fem
from spfem.mesh import (build_structured_mesh, interior_prolongation,
                        mesh_size, write_mesh)
from spfem.quadrature import tet_rule


@pytest.mark.parametrize("m,nv,nt,nint", [(1, 8, 6, 0), (2, 27, 48, 1),
                                          (4, 125, 384, 27)])
def test_counts(m, nv, nt, nint):
    mesh = build_structured_mesh(m)
    assert mesh.n_vertices == nv
    assert mesh.n_tets == nt
    assert mesh.n_interior == nint


def test_m2_center_is_the_interior_dof():
    mesh = build_structured_mesh(2)
    np.testing.assert_allclose(mesh.vertices[mesh.interior_vertices[0]],
                               [0.5, 0.5, 0.5])


@pytest.mark.parametrize("m", range(1, 9))
def test_volume_partition(m):
    mesh = build_structured_mesh(m)
    assert mesh.volumes.min() > 0
    assert abs(mesh.volumes.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_boundary_count_and_flags(m):
    mesh = build_structured_mesh(m)
    assert mesh.boundary_mask.sum() == (m + 1) ** 3 - (m - 1) ** 3
    coords = mesh.vertices
    on_surface = np.any((coords == 0.0) | (coords == 1.0), axis=1)
    np.testing.assert_array_equal(mesh.boundary_mask, on_surface)
    assert np.all(mesh.interior_index[mesh.boundary_mask] == -1)
    ids = mesh.interior_index[mesh.interior_vertices]
    np.testing.assert_array_equal(ids, np.arange(mesh.n_interior))


@pytest.mark.parametrize("m,h", [(1, math.sqrt(3)), (2, math.sqrt(3) / 2),
                                 (4, math.sqrt(3) / 4)])
def test_mesh_size(m, h):
    assert mesh_size(build_structured_mesh(m)) == pytest.approx(h, rel=1e-14)


def _whole_mesh_size(mesh):
    """Reference: the largest edge over all elements gathered at once."""
    coords = mesh.vertices[mesh.tets]
    h = 0.0
    for a, b in itertools.combinations(range(4), 2):
        d = np.linalg.norm(coords[:, a, :] - coords[:, b, :], axis=1)
        h = max(h, d.max())
    return float(h)


def test_slab_mesh_size_is_the_whole_mesh_maximum():
    # bit for bit, also where it is not the closed form sqrt(3) / m
    # (m = 20 is one such mesh)
    for m in range(1, 21):
        mesh = build_structured_mesh(m)
        assert mesh_size(mesh) == _whole_mesh_size(mesh)
    assert mesh_size(build_structured_mesh(20)) != math.sqrt(3) / 20


@pytest.mark.parametrize("degree,offsets", [(2, 6), (4, 16), (5, 21)])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_slab_points_and_axes_are_the_whole_mesh_points(m, degree, offsets):
    mesh = build_structured_mesh(m)
    rule = tet_rule(degree)
    whole = mesh.physical_points(rule)
    for slabs in [range(m), range(0, 1), range(m - 1, m),
                  range(m // 2, m)]:
        pts = mesh.physical_points(rule, slabs)
        np.testing.assert_array_equal(pts,
                                      whole[mesh.slab_elements(slabs)])
        axes = mesh.point_axes(rule, slabs)
        rebuilt = np.stack(np.broadcast_arrays(*axes.grid()), axis=-1)
        np.testing.assert_array_equal(rebuilt.reshape(-1, 3),
                                      pts.reshape(-1, 3))
        assert [c.shape for c in axes.coords] == [
            (len(slabs), offsets), (m, offsets), (m, offsets)]


@pytest.mark.parametrize("degree", [2, 4, 5])
@pytest.mark.parametrize("m", [2, 3, 8, 16])
def test_point_axes_hold_no_per_point_array(m, degree):
    # tables per (cell, offset) and indices per point kind only (on one
    # cell, m = 1, every point is its own kind)
    mesh = build_structured_mesh(m)
    rule = tet_rule(degree)
    axes = mesh.point_axes(rule)
    points = mesh.n_tets * len(rule.weights)
    assert axes.kinds.shape == (3, 6 * len(rule.weights))
    for table in list(axes.coords) + [axes.kinds]:
        assert np.size(table) < points


def _edge_inradius_ratio(coords):
    edges = [np.linalg.norm(coords[a] - coords[b])
             for a, b in itertools.combinations(range(4), 2)]
    vol = abs(np.linalg.det(coords[1:] - coords[0])) / 6.0
    area = 0.0
    for face in itertools.combinations(range(4), 3):
        u, v = coords[face[1]] - coords[face[0]], coords[face[2]] - coords[face[0]]
        area += 0.5 * np.linalg.norm(np.cross(u, v))
    return max(edges) / (3.0 * vol / area)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_shape_regularity_uniform(m):
    mesh = build_structured_mesh(m)
    ratios = np.array([_edge_inradius_ratio(mesh.vertices[t])
                       for t in mesh.tets])
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_face_conformity(m):
    mesh = build_structured_mesh(m)
    faces = {}
    for t in mesh.tets:
        for face in itertools.combinations(sorted(t), 3):
            faces[face] = faces.get(face, 0) + 1
    for face, count in faces.items():
        assert count in (1, 2)
        if count == 1:  # boundary face: all three vertices on the surface
            assert all(mesh.boundary_mask[v] for v in face)


def test_deterministic_and_invalid():
    a = build_structured_mesh(3)
    b = build_structured_mesh(3)
    np.testing.assert_array_equal(a.tets, b.tets)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    with pytest.raises(ValueError):
        build_structured_mesh(0)


def test_write_mesh(tmp_path):
    mesh = build_structured_mesh(2)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"m 2 nv {mesh.n_vertices} nt {mesh.n_tets}"
    vlines = [ln for ln in lines if ln.startswith("v ")]
    tlines = [ln for ln in lines if ln.startswith("t ")]
    assert len(vlines) == mesh.n_vertices
    assert len(tlines) == mesh.n_tets
    first = np.array([float(tok) for tok in vlines[0].split()[1:]])
    np.testing.assert_allclose(first, mesh.vertices[0])
    assert [int(tok) for tok in tlines[0].split()[1:]] == list(mesh.tets[0])


def _triple_loop_tets(m):
    """Reference: the per-cell Python loop that built the tets before the
    broadcast form, with its per-element orientation flip."""
    n1 = m + 1
    idx = np.arange(n1)
    gx, gy, gz = np.meshgrid(idx, idx, idx, indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()]) / m

    def vid(ix, iy, iz):
        return (ix * n1 + iy) * n1 + iz

    tets = []
    for ix in range(m):
        for iy in range(m):
            for iz in range(m):
                base = np.array([ix, iy, iz])
                for perm in itertools.permutations(range(3)):
                    corner = base.copy()
                    path = [vid(*corner)]
                    for axis in perm:
                        corner[axis] += 1
                        path.append(vid(*corner))
                    tets.append(path)
    tets = np.asarray(tets, dtype=int)
    coords = vertices[tets]
    flip = np.linalg.det(coords[:, 1:, :] - coords[:, :1, :]) < 0
    flipped = tets[flip]
    flipped[:, [2, 3]] = flipped[:, [3, 2]]
    tets[flip] = flipped
    return tets


@pytest.mark.parametrize("m", range(1, 7))
def test_broadcast_tets_match_triple_loop(m):
    tets = build_structured_mesh(m).tets
    np.testing.assert_array_equal(tets, _triple_loop_tets(m))
    assert tets.dtype == np.dtype(int)


def test_write_mesh_matches_per_line_writer(tmp_path):
    mesh = build_structured_mesh(3)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    lines = [f"m {mesh.m} nv {mesh.n_vertices} nt {mesh.n_tets}\n"]
    lines += [f"v {float(x)!r} {float(y)!r} {float(z)!r}\n"
              for x, y, z in mesh.vertices]
    lines += [f"t {t[0]} {t[1]} {t[2]} {t[3]}\n" for t in mesh.tets]
    assert path.read_text() == "".join(lines)


def _batched_geometry(mesh):
    """Reference: volumes and P1 gradients from a batched det/inv of the
    edge matrices, as computed before the closed form."""
    coords = mesh.vertices[mesh.tets]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    g123 = np.transpose(np.linalg.inv(edges), (0, 2, 1))
    grads = np.concatenate([-g123.sum(axis=1, keepdims=True), g123], axis=1)
    return np.linalg.det(edges) / 6.0, grads


@pytest.mark.parametrize("m", range(1, 7))
def test_closed_form_geometry_matches_det_inv(m):
    mesh = build_structured_mesh(m)
    volumes, grads = _batched_geometry(mesh)
    # one table per Kuhn simplex: element e is simplex e % 6
    assert mesh.grads.shape == (6, 4, 3)
    tiled = mesh.grads[np.arange(mesh.n_tets) % 6]
    assert np.abs(tiled - grads).max() <= 1e-15 * m
    np.testing.assert_allclose(mesh.volumes, volumes, rtol=4e-15, atol=0)
    assert mesh.grads.dtype == mesh.volumes.dtype == np.dtype(float)
    # the closed-form gradients are integers times m
    np.testing.assert_array_equal(mesh.grads, np.rint(mesh.grads / m) * m)


@pytest.mark.parametrize("degree", [2, 4, 5])
@pytest.mark.parametrize("m", range(1, 7))
def test_closed_form_points_match_barycentric(m, degree):
    mesh = build_structured_mesh(m)
    rule = tet_rule(degree)
    ref = np.einsum("qa,nad->nqd", rule.points, mesh.vertices[mesh.tets])
    pts = mesh.physical_points(rule)
    assert pts.shape == ref.shape
    assert np.abs(pts - ref).max() <= 4.4e-16


@pytest.mark.parametrize("m", [4, 8, 20])
def test_prolongation_is_galerkin_exact(m):
    # P1 interpolation between nested meshes: P^T K_m P = K_{m/2} and
    # P^T M_m P = M_{m/2}
    P = interior_prolongation(m)
    fine, coarse = build_structured_mesh(m), build_structured_mesh(m // 2)
    for assemble in (fem.assemble_stiffness, fem.assemble_mass):
        galerkin = P.T @ assemble(fine).csr @ P
        assert abs(galerkin - assemble(coarse).csr).max() <= 1e-14


def test_prolongation_interpolates_coarse_fields():
    # prolongated coefficients are the coarse P1 field's values at the
    # fine vertices, located in the Kuhn simplex of the sorted fractional
    # coordinates within their coarse cell
    mc = 4
    fine, coarse = build_structured_mesh(2 * mc), build_structured_mesh(mc)
    coeffs = np.zeros(coarse.n_vertices)
    coeffs[coarse.interior_vertices] = np.random.default_rng(5) \
        .standard_normal(coarse.n_interior)
    pts = fine.vertices[fine.interior_vertices] * mc
    cells = np.minimum(pts.astype(int), mc - 1)
    order = np.argsort(cells - pts, axis=1, kind="stable")
    frac = np.take_along_axis(pts - cells, order, axis=1)
    lam = -np.diff(frac, axis=1, prepend=1.0, append=0.0)
    strides = np.array([(mc + 1) ** 2, mc + 1, 1])
    path = np.cumsum(np.column_stack([cells @ strides, strides[order]]),
                     axis=1)
    values = np.einsum("pa,pa->p", lam, coeffs[path])
    prolongated = interior_prolongation(2 * mc) \
        @ coeffs[coarse.interior_vertices]
    np.testing.assert_allclose(prolongated, values, atol=1e-15)


@pytest.mark.parametrize("m", [2, 9])
def test_prolongation_needs_even_m_of_at_least_4(m):
    with pytest.raises(ValueError):
        interior_prolongation(m)
