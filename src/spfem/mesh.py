"""Structured tetrahedral meshes of the unit cube.

Each grid cell is split into six tetrahedra sharing the cell's main
diagonal (Kuhn/Freudenthal subdivision), which keeps every element an
affine copy of one of six congruent reference simplices.  Vertices are
ordered lexicographically with z varying fastest, and homogeneous
Dirichlet boundary conditions are encoded by flagging every vertex that
lies on the cube surface.
"""

import itertools
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp


class Mesh:
    """Immutable Kuhn mesh of (0,1)^3 with m cells per axis, as built by
    ``build_structured_mesh``; its geometry and quadrature points are
    closed forms of m.  What depends on the mesh alone is built at its
    first use and kept on it: ``fem._pattern``, ``symmetry.class_split``.

    Attributes
    ----------
    m : int
        Cells per axis.
    vertices : (nv, 3) float array
    tets : (nt, 4) int array
        Vertex indices, positively oriented.
    boundary_mask : (nv,) bool array
        True for vertices on the cube surface.
    interior_index : (nv,) int array
        Interior dof id per vertex, -1 on the boundary.
    interior_vertices : (n_interior,) int array
        Vertex ids of the interior dofs, ascending.
    volumes : (nt,) float array
        Every entry is the one element volume 1/(6 m^3); ``fem`` reads
        ``volumes[0]`` only.  The array stays because the benchmark
        harness (``perfbench/workloads.py``) reads it.
    grads : (6, 4, 3) float array
        Constant gradients of the four P1 basis functions on each of the
        six Kuhn simplices; element e has those of ``grads[e % 6]``.
    """

    def __init__(self, m, vertices, tets, boundary_mask):
        self.m = m
        self.vertices = vertices
        self.tets = tets
        self.boundary_mask = boundary_mask
        self.interior_index = np.full(len(vertices), -1, dtype=int)
        self.interior_vertices = np.flatnonzero(~boundary_mask)
        self.interior_index[self.interior_vertices] = np.arange(
            len(self.interior_vertices))
        # every element is a translate of a reference simplex scaled by
        # 1/m: volume 1/(6 m^3), gradients m times the reference ones
        # (integers, so exact in floating point)
        self.volumes = np.full(len(tets), 1.0 / (6 * m ** 3))
        self.grads = _KUHN_GRADS * m
        self._pattern = None       # CSR assembly pattern, filled by fem
        self._class_split = None   # symmetry classes, filled by symmetry

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_tets(self):
        return len(self.tets)

    @property
    def n_interior(self):
        return len(self.interior_vertices)

    def slab_elements(self, slabs=None):
        """Slice of the elements of the x-slabs ``slabs`` (a range of
        cell indices along x; None for all).  Cells are ordered with x
        slowest, so slab i holds elements [6 m^2 i, 6 m^2 (i + 1))."""
        if slabs is None:
            return slice(None)
        per_slab = 6 * self.m ** 2
        return slice(per_slab * slabs.start, per_slab * slabs.stop)

    def physical_points(self, rule, slabs=None):
        """Physical coordinates of the rule's points on the elements of
        the x-slabs ``slabs`` (all by default), shape (nb, nq, 3):
        (cell corner + barycentric points times the Kuhn corners) / m."""
        m = self.m
        slabs = range(m) if slabs is None else slabs
        cells = np.indices((len(slabs), m, m), dtype=float).reshape(3, -1).T
        cells[:, 0] += slabs.start
        pts = cells[:, None, None, :] + rule.points @ _KUHN_CORNERS
        pts /= m                                         # (nc, 6, nq, 3)
        return pts.reshape(-1, len(rule.points), 3)

    def point_axes(self, rule, slabs=None):
        """The points of ``physical_points(rule, slabs)`` as per-axis
        coordinate tables and point kinds (``PointAxes``), in closed form.

        A cell holds the rule's points on its six Kuhn simplices, 6 nq
        point kinds.  Along each axis a point's coordinate is
        (c + u) / m, c its cell index and u one of the rule's distinct
        Kuhn offsets on that axis (6, 16 and 21 of them for degrees 2, 4
        and 5), fixed by its kind.  So the point of kind p in cell
        (cx, cy, cz) is (x[cx, kinds[0, p]], y[cy, kinds[1, p]],
        z[cz, kinds[2, p]]), and the points come in the order (cx, cy,
        cz, p) of ``physical_points``.  The coordinates are computed as
        in ``physical_points``, so they are the same floats; a
        coordinate may repeat where two cells meet.
        """
        m = self.m
        slabs = range(m) if slabs is None else slabs
        offsets = (rule.points @ _KUHN_CORNERS).reshape(-1, 3)  # (6 nq, 3)
        axes = [np.unique(offsets[:, d], return_inverse=True)
                for d in range(3)]
        starts = (slabs.start, 0, 0)
        counts = (len(slabs), m, m)
        coords = [(np.arange(c, dtype=float)[:, None] + s + u) / m
                  for (u, _), s, c in zip(axes, starts, counts)]
        return PointAxes(coords, np.stack([j for _, j in axes]))


class PointAxes(NamedTuple):
    """Points given per axis: ``coords`` holds one (cells, offsets)
    table of coordinates per axis, and ``kinds`` (3, K) the offset of
    each of the K point kinds on each axis.  The points are every cell
    triple with every kind, (cx, cy, cz, p) in C order."""

    coords: list
    kinds: np.ndarray

    def grid(self):
        """The coordinates of the points per axis, as three arrays that
        broadcast to (cx, cy, cz, p)."""
        # taken, not indexed: c[:, j] is laid out kind-major, and so
        # would be every product of the three
        x, y, z = (c.take(j, axis=1) for c, j in zip(self.coords, self.kinds))
        return x[:, None, None], y[None, :, None], z[None, None]


_KUHN_PERMS = list(itertools.permutations(range(3)))


def _kuhn_simplices():
    """Integer corners and barycentric gradients, both (6, 4, 3), of the
    six Kuhn simplices of the unit cell, in permutation order,
    positively oriented.

    Simplex k steps from the origin along the axes a, b, c =
    ``_KUHN_PERMS[k]``; its barycentric coordinates are 1 - x_a,
    x_a - x_b, x_b - x_c and x_c.  An odd permutation gives a negative
    volume, so its last two corners (and gradients) are swapped."""
    steps = np.eye(3, dtype=int)[_KUHN_PERMS]           # e_a, e_b, e_c
    corners = np.zeros((6, 4, 3), dtype=int)
    corners[:, 1:] = np.cumsum(steps, axis=1)
    pad = np.zeros((6, 1, 3))
    grads = -np.diff(steps.astype(float), axis=1, prepend=pad, append=pad)
    flip = np.linalg.det(corners[:, 1:]) < 0
    corners[flip] = corners[flip][:, [0, 1, 3, 2]]
    grads[flip] = grads[flip][:, [0, 1, 3, 2]]
    return corners, grads


_KUHN_CORNERS, _KUHN_GRADS = _kuhn_simplices()


def build_structured_mesh(m):
    """Kuhn-subdivided structured mesh with m cells per axis.

    Elements are ordered by cell (x slowest, z fastest), then by Kuhn
    path."""
    if m < 1:
        raise ValueError(f"cells per axis must be >= 1, got {m}")
    n1 = m + 1
    idx = np.arange(n1)
    gx, gy, gz = np.meshgrid(idx, idx, idx, indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()]) / m

    on_boundary = (gx == 0) | (gx == m) | (gy == 0) | (gy == m) \
        | (gz == 0) | (gz == m)
    boundary_mask = on_boundary.ravel()

    cells = np.arange(m)
    base = ((cells[:, None, None] * n1 + cells[None, :, None]) * n1
            + cells[None, None, :]).ravel()          # (m^3,) base corners
    offsets = _KUHN_CORNERS @ np.array([n1 * n1, n1, 1])    # (6, 4)
    tets = (base[:, None, None] + offsets[None]).reshape(-1, 4)
    return Mesh(m, vertices, tets, boundary_mask)


def interior_prolongation(m):
    """P1 interpolation from the interior dofs of the m/2 Kuhn mesh to
    those of the m mesh, a CSR matrix ((m-1)^3, (m/2-1)^3), for even m.

    The Kuhn mesh on m cells refines the one on m/2, and every 0/1
    vector is a Kuhn edge direction, so fine vertex (i, j, k) lies on
    the coarse edge from idx//2 to (idx+1)//2 (componentwise): it takes
    half of each end, and both halves of one vertex when all three
    indices are even.  Boundary ends, where the fields vanish, are
    dropped.
    """
    if m % 2 or m < 4:
        raise ValueError(f"need an even m >= 4, got {m}")
    mc = m // 2
    fine = np.indices((m - 1,) * 3).reshape(3, -1) + 1   # z fastest
    ends = np.stack([fine // 2, (fine + 1) // 2]) - 1    # (2, 3, n)
    inside = np.all((ends >= 0) & (ends < mc - 1), axis=1)
    cols = (ends[:, 0] * (mc - 1) + ends[:, 1]) * (mc - 1) + ends[:, 2]
    rows = np.broadcast_to(np.arange(fine.shape[1]), cols.shape)
    # coinciding ends sum to weight 1
    return sp.csr_matrix(
        (np.full(inside.sum(), 0.5), (rows[inside], cols[inside])),
        shape=(fine.shape[1], (mc - 1) ** 3))


def mesh_size(mesh):
    """Largest element diameter.  The longest edge of a Kuhn simplex is
    its cell's main diagonal, from local vertex 0 to 3 of the cell's
    first element (the identity path)."""
    diagonals = mesh.tets[::6]
    d = mesh.vertices[diagonals[:, 3]] - mesh.vertices[diagonals[:, 0]]
    return float(np.linalg.norm(d, axis=1).max())


WRITE_CHUNK_ROWS = 1 << 13


def write_rows(f, table, prefix=""):
    """Write each row of a 2-D int or float array as one text line:
    ``prefix`` and the reprs of its entries, space-separated.

    Lines match ``f"{prefix}{float(x)!r} ..."`` byte for byte.  Rows go
    out WRITE_CHUNK_ROWS at a time, each chunk joined into one string;
    within a chunk ``repr`` runs once per distinct value (floats are told
    apart by their bits, so -0.0 keeps its sign).
    """
    table = np.asarray(table)
    is_float = table.dtype.kind == "f"
    if is_float:
        table = np.ascontiguousarray(table, dtype=np.float64)
    for start in range(0, len(table), WRITE_CHUNK_ROWS):
        chunk = table[start:start + WRITE_CHUNK_ROWS]
        keys, inverse = np.unique(chunk.view(np.int64) if is_float else chunk,
                                  return_inverse=True)
        if is_float:
            keys = keys.view(np.float64)
        words = np.array([repr(v) for v in keys.tolist()], dtype=object)
        rows = words[inverse.reshape(chunk.shape)].tolist()
        f.write("".join([prefix + " ".join(row) + "\n" for row in rows]))


def write_mesh(mesh, path):
    """Plain-text dump: header, vertex lines, tet lines (0-based ids)."""
    with open(path, "w") as f:
        f.write(f"m {mesh.m} nv {mesh.n_vertices} nt {mesh.n_tets}\n")
        write_rows(f, mesh.vertices, prefix="v ")
        write_rows(f, mesh.tets, prefix="t ")
