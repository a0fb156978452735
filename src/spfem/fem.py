"""P1 Lagrange machinery: fields, matrix/vector assembly, error norms.

Dirichlet conditions are handled by eliminating boundary vertices, so
all assembled operators act on interior degrees of freedom.

Every element is a translate of one of six Kuhn simplices of volume
1/(6 m^3), and every interior vertex lies in the same 24 elements.  So
an operator whose inputs are P1 vertex data is a closed-form stencil
over the interior grid, one value per (vertex, Kuhn step) pair: the
stiffness and the mass (15 numbers each), the weighted mass of a P1
weight (``FeField``), and the load of a density given by its step Gram
(``step_gram``; ``occupancy.DensityField``).  The last two fold the
rule's triple table of barycentric products over the 24 elements into
two (15, 15) step tables (``triple_tables``), so they give the element
quadrature's sums in another order.  These are the operators of every
SCF sweep.

Any other field is evaluated at quadrature points: the weighted mass of
an analytic weight, the load of an analytic source (once per solve) and
the error norms.  Quadrature runs over blocks of whole x-slabs of cells
(``slab_blocks``), each holding at most ``BLOCK_POINTS`` quadrature
points, so no transient grows with elements times points.  A field
evaluates on one block at a time (``element_values(mesh, rule, slabs)``
and ``element_gradients``); a plain callable is wrapped in a
``ScalarFunction`` (``as_field``), which takes the block's physical
points.  In a block a weighted mass is (nb, nq) weights times the
rule's (nq, 16) table of basis products, a load is (nb, nq) values
times the (nq, 4) basis values, and an error is a weighted sum per
element.  Each block adds its entries into the step table or the
vertex vector (``np.add.at``), in element order, so the sums are those
of one block.  Element integrals scale by ``mesh.volumes[0]``.

The interior CSR pattern and the (vertex, Kuhn step) pairs it holds
are computed once per mesh; a stencil is written through the pairs.  An
element pass reaches them by a closed-form index per block into an
(n + 1, 15) step table whose last row is the boundary vertices' zero
row (``_step_index``): a quadrature weighted mass adds into it, and
``element_gram`` gathers the element Grams from a step Gram, with one
index for all the slabs of a call that touch no boundary x-plane.
Matrices on the pattern add as their data arrays (``pattern_sum``).
The pattern, kept in the mesh's ``_pattern``, is the only thing this
module remembers between calls: fields are evaluated afresh at every
assembly, and a caller that reuses one (a fixed doping load, say) keeps
the assembled vector itself.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .linsolve import SparseSymMatrix
from .mesh import _KUHN_CORNERS
from .quadrature import tet_rule

# quadrature points in one block of x-slabs (at least one slab); the
# whole m = 8 mesh is one block, even for the 24-point degree-6 rule
BLOCK_POINTS = 1 << 17
# interior rows in one block of a weighted-mass stencil (at least one
# x-plane); with this the m = 48 weighted mass of an iterate adds about
# 1.5 MiB of transients to its 17.6 MiB result
BLOCK_ROWS = 1 << 12


def slab_blocks(mesh, rule):
    """Ranges of whole x-slabs holding at most BLOCK_POINTS of the
    rule's points each, or one slab when a slab holds more."""
    step = max(1, BLOCK_POINTS // (6 * mesh.m ** 2 * len(rule.weights)))
    return [range(s, min(s + step, mesh.m)) for s in range(0, mesh.m, step)]


class ScalarFunction:
    """Analytic scalar field on the cube, vectorized over (..., 3) arrays.

    ``grad``, when given, maps (..., 3) points to (..., 3) gradients and
    is required only by H1-seminorm error evaluation.
    """

    def __init__(self, fn, grad=None):
        self._fn = fn
        self.grad = grad

    def __call__(self, points):
        points = np.asarray(points, dtype=float)
        return np.asarray(self._fn(points), dtype=float)

    @classmethod
    def constant(cls, c):
        c = float(c)
        return cls(lambda p: np.full(p.shape[:-1], c),
                   grad=lambda p: np.zeros(p.shape))

    def element_values(self, mesh, rule, slabs=None):
        """(nb, nq) values at the rule's points on the x-slabs ``slabs``
        (all by default)."""
        return self(mesh.physical_points(rule, slabs))

    def element_gradients(self, mesh, rule, slabs=None):
        """(nb, nq, 3) gradients at the same points."""
        if self.grad is None:
            raise TypeError(
                f"no gradient available for {type(self).__name__}")
        return np.asarray(self.grad(mesh.physical_points(rule, slabs)),
                          dtype=float)


def as_field(obj):
    """``obj`` when it evaluates on elements (``element_values``), a
    plain callable as a ``ScalarFunction`` (with its ``grad``, if any)."""
    if hasattr(obj, "element_values"):
        return obj
    if callable(obj):
        return ScalarFunction(obj, grad=getattr(obj, "grad", None))
    raise TypeError(f"cannot evaluate {type(obj).__name__} on elements")


class FeField:
    """Piecewise-linear field given by one coefficient per mesh vertex."""

    def __init__(self, mesh, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (mesh.n_vertices,):
            raise ValueError("coefficient count must equal vertex count")
        self.mesh = mesh
        self.coeffs = coeffs

    @classmethod
    def zero(cls, mesh):
        return cls(mesh, np.zeros(mesh.n_vertices))

    @classmethod
    def from_interior(cls, mesh, vec):
        coeffs = np.zeros(mesh.n_vertices)
        coeffs[mesh.interior_vertices] = vec
        return cls(mesh, coeffs)

    @classmethod
    def interpolate(cls, mesh, f, dirichlet=False):
        coeffs = np.asarray(f(mesh.vertices), dtype=float).copy()
        if dirichlet:
            coeffs[mesh.boundary_mask] = 0.0
        return cls(mesh, coeffs)

    def interior(self):
        return self.coeffs[self.mesh.interior_vertices]

    def _local(self, mesh, slabs):
        """(nb, 4) vertex values of the elements of the x-slabs."""
        if mesh is not self.mesh:
            raise ValueError("field evaluated on a foreign mesh")
        return self.coeffs[mesh.element_vertices(slabs)]

    def element_values(self, mesh, rule, slabs=None):
        return self._local(mesh, slabs) @ rule.points.T   # (nb, nq)

    def element_gradients(self, mesh, rule, slabs=None):
        local = self._local(mesh, slabs)
        # constant per element; a block starts at a cell, so its element
        # e is Kuhn simplex e % 6
        g = np.einsum("na,nad->nd", local,
                      mesh.grads[np.arange(len(local)) % 6])
        return np.broadcast_to(g[:, None, :],
                               (len(g), len(rule.points), 3))


# the 15 grid steps d in {0,1}^3 or {0,-1}^3 that join two vertices of a
# Kuhn simplex, lexicographic (so ascending in flat offset on a z-fastest
# grid), and the (6, 4, 4) index of the step from local vertex a to b
_CUBE = np.indices((2, 2, 2)).reshape(3, -1).T
_KUHN_STEPS = np.concatenate([-_CUBE[::-1], _CUBE[1:]])
_KUHN_STEP_OF = np.searchsorted(
    (_KUHN_STEPS + 1) @ [9, 3, 1],
    (_KUHN_CORNERS[:, None] - _KUHN_CORNERS[:, :, None] + 1) @ [9, 3, 1])


class _Pattern(NamedTuple):
    """CSR pattern of the assembled operators on the interior dofs
    (``indices``, ``indptr``, ``n`` rows) and which of the (n, 15) (row,
    Kuhn step) pairs it holds (``valid``, bool; row-major, its entries
    in CSR order)."""

    indices: np.ndarray
    indptr: np.ndarray
    n: int
    valid: np.ndarray


def _pattern(mesh):
    """The mesh's ``_Pattern``.

    Computed once per mesh, in closed form: the dofs form an N^3 grid
    (N = m - 1), and row v couples to v + d for each Kuhn step d that
    stays on the grid.
    """
    if mesh._pattern is not None:
        return mesh._pattern
    N = mesh.m - 1
    n = N ** 3
    c = np.arange(N)
    on_grid = np.stack([c >= 1, c >= 0, c <= N - 2], axis=1)  # by d + 1
    x, y, z = (on_grid[:, _KUHN_STEPS[:, axis] + 1] for axis in range(3))
    valid = (x[:, None, None] & y[None, :, None]
             & z[None, None, :]).reshape(n, len(_KUHN_STEPS))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(valid.sum(axis=1), out=indptr[1:])
    offsets = _KUHN_STEPS @ [N * N, N, 1]
    indices = (np.arange(n, dtype=np.int32)[:, None]
               + offsets.astype(np.int32))[valid]
    mesh._pattern = _Pattern(indices, indptr, n, valid)
    return mesh._pattern


def _step_index(m, slabs=None, zero=None):
    """(nb, 16) flat index into the (n + 1, 15) step table of the local
    entries (a, b) on the x-slabs ``slabs`` (all by default) of the mesh
    of m cells per axis: 15 times the row of vertex a (n, the zero row,
    on the boundary) plus the step a -> b.  That is the cell's corner
    row plus a constant of (kind, a, b), but at the boundary vertices:
    the low (high) corners of a first (last) cell along some axis.
    ``zero`` puts the zero row's first entry elsewhere than at 15 n."""
    N, S = m - 1, len(_KUHN_STEPS)
    slabs = range(m) if slabs is None else slabs
    strides = np.array([N * N, N, 1]) * S
    axes = (slabs, range(m), range(m))
    x, y, z = ((np.arange(r.start, r.stop) - 1) * k
               for r, k in zip(axes, strides))
    corner = x[:, None, None] + y[:, None] + z        # (nbx, m, m)
    index = corner[..., None, None, None] \
        + ((_KUHN_CORNERS @ strides)[:, :, None] + _KUHN_STEP_OF)
    zero_row = (S * N ** 3 if zero is None else zero) + _KUHN_STEP_OF
    for axis, cells in enumerate(axes):
        for high, cell in ((0, 0), (1, m - 1)):
            if cell in cells:
                layer = index[(slice(None),) * axis + (cell - cells.start,)]
                on = _KUHN_CORNERS[:, :, axis] == high
                layer[..., on, :] = zero_row[on]
    return index.reshape(-1, 16)


def _matrix(mesh, data):
    """Matrix with the CSR data ``data`` on the mesh's pattern."""
    p = _pattern(mesh)
    return SparseSymMatrix(sp.csr_matrix(
        (data, p.indices.copy(), p.indptr.copy()), shape=(p.n, p.n)))


def pattern_sum(mesh, A, B):
    """A + B for matrices assembled on the mesh's pattern (stiffness,
    mass, weighted masses and their sums): one addition of their CSR
    data."""
    nnz = len(_pattern(mesh).indices)
    if A.csr.nnz != nnz or B.csr.nnz != nnz:
        raise ValueError("matrix not assembled on the mesh's pattern")
    return _matrix(mesh, A.csr.data + B.csr.data)


def _step_values(local):
    """The 15 per-step values of the assembled (6, 4, 4) local matrices
    of the six Kuhn simplices, the same on every cell.  An interior
    vertex lies in the same 24 elements wherever it is, so each Kuhn
    step has one value: the step table's row of the one interior vertex
    of the m = 2 mesh, whose element bincount gives its floats."""
    return np.bincount(_step_index(2).ravel(), weights=np.tile(
        local.ravel(), 8))[:len(_KUHN_STEPS)]


def _stencil(mesh, per_step):
    """Matrix whose every interior row holds ``per_step``."""
    valid = _pattern(mesh).valid
    return _matrix(mesh, np.broadcast_to(per_step, valid.shape)[valid])


def _at_step(grid, d, planes=None):
    """View of the vertex grid ``grid`` (leading axes (m+1, m+1, m+1))
    at the interior vertices moved by the Kuhn step ``d``, shape
    (N, N, N, ...), N = m - 1; only the interior x-planes ``planes`` (a
    range) when given."""
    m = len(grid) - 1
    if planes is None:
        planes = range(m - 1)
    return grid[1 + planes.start + d[0]:1 + planes.stop + d[0],
                1 + d[1]:m + d[1], 1 + d[2]:m + d[2]]


def _plane_blocks(mesh):
    """Ranges of whole interior x-planes holding at most BLOCK_ROWS rows
    each, or one plane when a plane holds more."""
    N = mesh.m - 1
    step = max(1, BLOCK_ROWS // max(N * N, 1))
    return [range(s, min(s + step, N)) for s in range(0, N, step)]


def triple_tables(rule):
    """The rule's triple table T_abc = sum_q w_q P_qa P_qb P_qc of its
    barycentric points, folded over the 24 elements at an interior
    vertex into two (15, 15) Kuhn-step tables: ``mass[s, d]`` sums T_abc
    over the local entries (kind, a, b, c) whose step a -> b is s and
    a -> c is d, ``load[d, s]`` those whose step a -> b is d and b -> c
    is s.  A P1 weight u gives the weighted-mass entry (v, v + s)
    |e| sum_d mass[s, d] u(v + d); a step Gram G gives the load at v
    |e| sum_{d, s} load[d, s] G(v + d, s)."""
    P, w = rule.points, rule.weights
    T = np.broadcast_to(np.einsum("q,qa,qb,qc->abc", w, P, P, P),
                        (6, 4, 4, 4)).ravel()
    S = len(_KUHN_STEPS)
    ab = _KUHN_STEP_OF[:, :, :, None] * S
    ac = _KUHN_STEP_OF[:, :, None, :]
    bc = _KUHN_STEP_OF[:, None, :, :]
    return [np.bincount((ab + other).ravel(), weights=T,
                        minlength=S * S).reshape(S, S) for other in (ac, bc)]


def step_gram(mesh, coeffs, weights):
    """(n_interior + 1, 15) Gram G(v, s) = sum_l w_l X_vl X_(v+s)l at
    every interior vertex v and Kuhn step s, and a zero last row, for
    the vertex values ``coeffs`` (nv, L) of P1 fields that vanish on the
    boundary (so G(v, s) = 0 where v + s is a boundary vertex): one
    product of the block with each of its 15 Kuhn shifts."""
    m = mesh.m
    coeffs = np.asarray(coeffs)
    grid = coeffs.reshape((m + 1,) * 3 + coeffs.shape[1:])
    weighted = _at_step(grid, (0, 0, 0)) * weights
    gram = np.zeros((mesh.n_interior + 1, len(_KUHN_STEPS)))
    for s, d in enumerate(_KUHN_STEPS):
        gram[:-1, s] = np.einsum("xyzl,xyzl->xyz", weighted,
                                 _at_step(grid, d)).ravel()
    return gram


def element_gram(mesh, gram, slabs=None):
    """(nb, 16) local 4x4 Grams on the x-slabs ``slabs`` (all by
    default), gathered from the step Gram ``gram`` of ``step_gram``,
    of shape (n_interior + 1, 15).

    Between the first and the last slab, slab x's index is slab 1's
    shifted by x - 1 planes of rows, except for the zero row.  So a
    call builds slab 1's index once, with its zero-row entries counted
    from the end of the table, and reads each such slab from the table
    with that slab's planes ahead of it cut off; the first and last slab
    take their own index."""
    m, S = mesh.m, len(_KUHN_STEPS)
    if gram.shape != (mesh.n_interior + 1, S):
        raise ValueError("step Gram of shape %s, not (%d, %d)"
                         % (gram.shape, mesh.n_interior + 1, S))
    flat = gram.ravel()
    slabs = range(m) if slabs is None else slabs
    shared = _step_index(m, range(1, 2), zero=-S)
    plane = S * (m - 1) ** 2
    out = np.empty((len(slabs), len(shared), 16))
    for block, x in zip(out, slabs):
        if 0 < x < m - 1:
            # wrap: the zero row's negative entries count from the end,
            # and with ``out`` no other mode gathers unbuffered
            np.take(flat[(x - 1) * plane:], shared, out=block, mode="wrap")
        else:
            block[...] = flat[_step_index(m, range(x, x + 1))]
    return out.reshape(-1, 16)


def basis_products(rule):
    """(nq, 16) products P_qa P_qb of the rule's barycentric points."""
    P = rule.points
    return (P[:, :, None] * P[:, None, :]).reshape(len(P), 16)


def assemble_stiffness(mesh):
    """Dirichlet Laplacian stiffness matrix (gradient-gradient form)."""
    per_kind = np.einsum("kad,kbd->kab", mesh.grads, mesh.grads)
    # every Kuhn element has the same volume
    return _stencil(mesh, _step_values(per_kind * mesh.volumes[0]))


def mass_steps(mesh):
    """The 15 per-step values of the mass matrix, one per Kuhn step,
    from the exact P1 element integrals |K|/20*(1+I): the entries of
    every interior row."""
    base = (np.ones((4, 4)) + np.eye(4)) / 20.0
    return _step_values(np.broadcast_to(mesh.volumes[0] * base, (6, 4, 4)))


def assemble_mass(mesh):
    """L2 mass matrix."""
    return _stencil(mesh, mass_steps(mesh))


def assemble_weighted_mass(mesh, w, rule=None):
    """Matrix of (w u, v) with w evaluated at quadrature points.

    A P1 weight (``FeField``) takes the closed form: entry (v, v + s)
    is |e| sum_d mass[s, d] w(v + d) over the Kuhn steps d, with the
    rule's ``triple_tables`` and the weight's vertex values, boundary
    ones included; rows go BLOCK_ROWS at a time.  Any other weight is
    evaluated at the rule's points, element by element."""
    rule = rule or tet_rule(2)
    if rule.degree < 2:
        raise ValueError("weighted mass needs quadrature degree >= 2")
    p = _pattern(mesh)
    if isinstance(w, FeField):
        if w.mesh is not mesh:
            raise ValueError("field evaluated on a foreign mesh")
        table = triple_tables(rule)[0].T * mesh.volumes[0]
        grid = w.coeffs.reshape((mesh.m + 1,) * 3)
        data = np.empty(len(p.indices))
        N2 = (mesh.m - 1) ** 2
        for planes in _plane_blocks(mesh):
            rows = slice(planes.start * N2, planes.stop * N2)
            around = np.stack([_at_step(grid, d, planes)
                               for d in _KUHN_STEPS], axis=-1)
            data[p.indptr[rows.start]:p.indptr[rows.stop]] = \
                (around.reshape(-1, len(_KUHN_STEPS)) @ table)[p.valid[rows]]
        return _matrix(mesh, data)
    w = as_field(w)
    products = basis_products(rule)                    # (nq, 16)
    table = np.zeros((p.n + 1) * len(_KUHN_STEPS))
    for slabs in slab_blocks(mesh, rule):
        local = (w.element_values(mesh, rule, slabs) * rule.weights) \
            @ products
        local *= mesh.volumes[0]
        np.add.at(table, _step_index(mesh.m, slabs).ravel(), local.ravel())
    return _matrix(mesh, table.reshape(-1, len(_KUHN_STEPS))[:-1][p.valid])


def assemble_load(mesh, g, rule=None):
    """Interior load vector with entries int(g * basis_i).

    A field that carries a step Gram (``gram``, as a
    ``occupancy.DensityField`` does) takes the closed form:
    H = gram @ load^T with the rule's ``triple_tables``, and the load at
    v is |e| sum_d H(v + d, d) over the Kuhn steps d.  Any other g is
    evaluated at the rule's points, element by element."""
    rule = rule or tet_rule(2)
    if rule.degree < 2:
        raise ValueError("load assembly needs quadrature degree >= 2")
    gram = getattr(g, "gram", None)
    if gram is not None:
        if g.mesh is not mesh:
            raise ValueError("field evaluated on a foreign mesh")
        m = mesh.m
        table = triple_tables(rule)[1].T * mesh.volumes[0]
        H = np.zeros((m + 1,) * 3 + (len(_KUHN_STEPS),))
        inner = _at_step(H, (0, 0, 0))
        inner[...] = (gram[:-1] @ table).reshape(inner.shape)
        load = np.zeros((m - 1,) * 3)
        for s, d in enumerate(_KUHN_STEPS):
            load += _at_step(H, d)[..., s]
        return load.ravel()
    g = as_field(g)
    full = np.zeros(mesh.n_vertices)
    for slabs in slab_blocks(mesh, rule):
        local = (g.element_values(mesh, rule, slabs) * rule.weights) \
            @ rule.points
        local *= mesh.volumes[0]
        np.add.at(full, mesh.element_vertices(slabs).ravel(), local.ravel())
    return full[mesh.interior_vertices]


def _error_norms(mesh, fh, f, rule, values, gradients):
    """L2 norm (``values``) and/or H1 seminorm (``gradients``) of
    (fh - f), from per-element quadrature sums over the slab blocks."""
    fh, f = as_field(fh), as_field(f)
    sums = np.empty((values + gradients, mesh.n_tets))
    for slabs in slab_blocks(mesh, rule):
        elements = mesh.slab_elements(slabs)
        if values:
            diff = fh.element_values(mesh, rule, slabs) \
                - f.element_values(mesh, rule, slabs)
            sums[0, elements] = (diff * diff) @ rule.weights
            del diff            # not held while the gradients are built
        if gradients:
            diff = fh.element_gradients(mesh, rule, slabs) \
                - f.element_gradients(mesh, rule, slabs)
            sums[-1, elements] = np.einsum("nqd,nqd,q->n", diff, diff,
                                           rule.weights)
    return [float(np.sqrt(max(s.sum() * mesh.volumes[0], 0.0)))
            for s in sums]


def l2_norm_error(mesh, fh, f, rule=None):
    """L2 norm of (fh - f) by elementwise quadrature."""
    return _error_norms(mesh, fh, f, rule or tet_rule(5), True, False)[0]


def h1_semi_error(mesh, fh, f, rule=None):
    """H1 seminorm of (fh - f) by elementwise quadrature."""
    return _error_norms(mesh, fh, f, rule or tet_rule(5), False, True)[0]


def h1_error(mesh, fh, f, rule=None):
    """Full H1 norm of (fh - f)."""
    l2, semi = _error_norms(mesh, fh, f, rule or tet_rule(5), True, True)
    return float(np.hypot(l2, semi))
