"""P1 Lagrange machinery: fields, matrix/vector assembly, error norms.

Dirichlet conditions are handled by eliminating boundary vertices, so
all assembled operators act on interior degrees of freedom unless
``interior_only=False`` is requested.

Quadrature runs over blocks of whole x-slabs of cells
(``slab_blocks``), each holding at most ``BLOCK_POINTS`` quadrature
points, so no transient grows with elements times points.  Cells are
ordered with x slowest, so a block is a contiguous range of elements.
Field-like objects evaluate on one block at a time
(``element_values(mesh, rule, slabs)``); a plain callable gets the
block's physical points.  In a block a weighted mass is (nb, nq)
weights times the rule's (nq, 16) table of basis products, a load is
(nb, nq) values times the (nq, 4) basis values, and an error is a
weighted sum per element.  Each block writes its rows into whole-mesh
arrays, which are reduced once, as if there were one block.

The position of every local entry in the final CSR pattern is
computed once per mesh (and per ``interior_only``), so each matrix
assembly is a single ``np.bincount`` and bit-reproducible for a fixed
mesh.  The same positions expand a Gram given per vertex pair of the
pattern into the 4x4 Grams of the elements.  These positions, kept in
the mesh's ``_patterns``, are the only thing remembered between calls:
fields are evaluated afresh at every assembly, and a caller that reuses
one (a fixed doping load, say) keeps the assembled vector itself.
"""

import numpy as np
import scipy.sparse as sp

from .linsolve import SparseSymMatrix
from .mesh import _KUHN_CORNERS
from .quadrature import tet_rule

# quadrature points in one block of x-slabs (at least one slab); the
# whole m = 8 mesh is one block, even for the 24-point degree-6 rule
BLOCK_POINTS = 1 << 17


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

    def element_values(self, mesh, rule, slabs=None):
        if mesh is not self.mesh:
            raise ValueError("field evaluated on a foreign mesh")
        local = self.coeffs[mesh.tets[mesh.slab_elements(slabs)]]  # (nb, 4)
        return local @ rule.points.T                   # (nb, nq)

    def element_gradients(self, mesh, rule, slabs=None):
        if mesh is not self.mesh:
            raise ValueError("field evaluated on a foreign mesh")
        elements = mesh.slab_elements(slabs)
        local = self.coeffs[mesh.tets[elements]]
        # constant per element; a block starts at a cell, so its element
        # e is Kuhn simplex e % 6
        g = np.einsum("na,nad->nd", local,
                      mesh.grads[np.arange(len(local)) % 6])
        return np.broadcast_to(g[:, None, :],
                               (len(g), len(rule.points), 3))

    def __add__(self, other):
        return FeField(self.mesh, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return FeField(self.mesh, self.coeffs - other.coeffs)

    def __rmul__(self, scalar):
        return FeField(self.mesh, float(scalar) * self.coeffs)


def values_on_elements(obj, mesh, rule, slabs=None, points=None):
    """(nb, nq) values of a field-like object at the quadrature points of
    the x-slabs ``slabs`` (all by default).  A plain callable is
    evaluated at ``points``, the block's physical points, when given."""
    if hasattr(obj, "element_values"):
        return obj.element_values(mesh, rule, slabs)
    if callable(obj):
        if points is None:
            points = mesh.physical_points(rule, slabs)
        return obj(points)
    raise TypeError(f"cannot evaluate {type(obj).__name__} on elements")


def gradients_on_elements(obj, mesh, rule, slabs=None, points=None):
    """(nb, nq, 3) gradients of a field-like object at the quadrature
    points of the x-slabs ``slabs``, as ``values_on_elements``."""
    if hasattr(obj, "element_gradients"):
        return obj.element_gradients(mesh, rule, slabs)
    grad = getattr(obj, "grad", None)
    if grad is not None:
        if points is None:
            points = mesh.physical_points(rule, slabs)
        return np.asarray(grad(points), dtype=float)
    raise TypeError(f"no gradient available for {type(obj).__name__}")


def blockwise(mesh, rule, local, shape=()):
    """(nt, *shape) array whose rows on each slab block are
    ``local(slabs)``."""
    out = np.empty((mesh.n_tets,) + shape)
    for slabs in slab_blocks(mesh, rule):
        out[mesh.slab_elements(slabs)] = local(slabs)
    return out


# the 15 grid steps d in {0,1}^3 or {0,-1}^3 that join two vertices of a
# Kuhn simplex, lexicographic (so ascending in flat offset on a z-fastest
# grid), and the (6, 4, 4) index of the step from local vertex a to b
_CUBE = np.indices((2, 2, 2)).reshape(3, -1).T
_KUHN_STEPS = np.concatenate([-_CUBE[::-1], _CUBE[1:]])
_KUHN_STEP_OF = np.searchsorted(
    (_KUHN_STEPS + 1) @ [9, 3, 1],
    (_KUHN_CORNERS[:, None] - _KUHN_CORNERS[:, :, None] + 1) @ [9, 3, 1])


def _pattern(mesh, interior_only):
    """CSR pattern of the assembled operators and, for each of the
    (nt, 4, 4) local entries, its position in the CSR data.

    Computed once per mesh and ``interior_only``, in closed form: the
    dofs form an N^3 grid (N = m - 1 interior, m + 1 all vertices), row
    v couples to v + d for each Kuhn step d that stays on the grid, and
    a per-row slot table gives each step's position.  Entries coupling a
    boundary vertex (``interior_only``) map to the extra slot nnz, which
    assembly drops.
    """
    pattern = mesh._patterns.get(interior_only)
    if pattern is not None:
        return pattern
    N = mesh.m - 1 if interior_only else mesh.m + 1
    n = N ** 3
    c = np.arange(N)
    on_grid = np.stack([c >= 1, c >= 0, c <= N - 2], axis=1)  # by d + 1
    x, y, z = (on_grid[:, _KUHN_STEPS[:, axis] + 1] for axis in range(3))
    valid = (x[:, None, None] & y[None, :, None]
             & z[None, None, :]).reshape(n, len(_KUHN_STEPS))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(valid.sum(axis=1), out=indptr[1:])
    nnz = int(indptr[-1])
    # slot of row v's step d; a step off the grid, and row -1 (a
    # boundary vertex), take the dropped slot nnz
    slots = np.full((n + 1, len(_KUHN_STEPS)), nnz, dtype=np.int32)
    slots[:-1][valid] = np.arange(nnz, dtype=np.int32)
    offsets = _KUHN_STEPS @ [N * N, N, 1]
    indices = (np.arange(n, dtype=np.int32)[:, None]
               + offsets.astype(np.int32))[valid]
    ids = mesh.interior_index[mesh.tets] if interior_only else mesh.tets
    positions = slots[ids.reshape(-1, 6, 4, 1), _KUHN_STEP_OF].ravel()
    pattern = (positions, indices, indptr, n)
    mesh._patterns[interior_only] = pattern
    return pattern


def _assemble(mesh, local, interior_only):
    """Sum the (nt, 4, 4) or (nt, 16) local matrices into the fixed CSR
    pattern with one bincount."""
    positions, indices, indptr, n = _pattern(mesh, interior_only)
    data = np.bincount(positions, weights=local.ravel(),
                       minlength=len(indices) + 1)[:-1]
    return SparseSymMatrix(sp.csr_matrix(
        (data, indices.copy(), indptr.copy()), shape=(n, n)))


def pattern_gram(mesh, X, weights):
    """Gram sum_l w_l X_il X_jl at every entry (i, j) of the interior CSR
    pattern, for interior vectors X (n_interior, L), followed by a zero.

    Gathered by ``element_gram``, it gives the 4x4 local Grams of the P1
    fields X (zero on the boundary) on every element."""
    _, indices, indptr, n = _pattern(mesh, True)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    out = np.zeros(len(indices) + 1)
    for w, x in zip(weights, np.ascontiguousarray(X.T)):
        out[:-1] += (w * x)[rows] * x[indices]
    return out


def element_gram(mesh, pairs, slabs=None):
    """(nb, 16) local 4x4 Grams on the x-slabs ``slabs`` (all by
    default) from the per-entry values of ``pattern_gram``."""
    elements = mesh.slab_elements(slabs)
    positions = _pattern(mesh, True)[0].reshape(-1, 16)[elements]
    return pairs[positions]


def basis_products(rule):
    """(nq, 16) products P_qa P_qb of the rule's barycentric points."""
    P = rule.points
    return (P[:, :, None] * P[:, None, :]).reshape(len(P), 16)


def assemble_stiffness(mesh, interior_only=True):
    """Dirichlet Laplacian stiffness matrix (gradient-gradient form)."""
    per_kind = np.einsum("kad,kbd->kab", mesh.grads, mesh.grads)
    local = np.tile(per_kind, (mesh.m ** 3, 1, 1))
    local *= mesh.volumes[:, None, None]
    return _assemble(mesh, local, interior_only)


def assemble_mass(mesh, interior_only=True):
    """L2 mass matrix from the exact P1 element integrals |K|/20*(1+I)."""
    base = (np.ones((4, 4)) + np.eye(4)) / 20.0
    local = mesh.volumes[:, None, None] * base[None, :, :]
    return _assemble(mesh, local, interior_only)


def assemble_weighted_mass(mesh, w, rule=None, interior_only=True):
    """Matrix of (w u, v) with w evaluated at quadrature points."""
    rule = rule or tet_rule(2)
    if rule.degree < 2:
        raise ValueError("weighted mass needs quadrature degree >= 2")
    table = basis_products(rule)                       # (nq, 16)
    local = blockwise(mesh, rule, lambda slabs: (
        values_on_elements(w, mesh, rule, slabs) * rule.weights) @ table,
        (16,))
    local *= mesh.volumes[:, None]
    return _assemble(mesh, local, interior_only)


def assemble_load(mesh, g, rule=None):
    """Interior load vector with entries int(g * basis_i)."""
    rule = rule or tet_rule(2)
    if rule.degree < 2:
        raise ValueError("load assembly needs quadrature degree >= 2")
    local = blockwise(mesh, rule, lambda slabs: (
        values_on_elements(g, mesh, rule, slabs) * rule.weights)
        @ rule.points, (4,))
    local *= mesh.volumes[:, None]
    full = np.bincount(mesh.tets.ravel(), weights=local.ravel(),
                       minlength=mesh.n_vertices)
    return full[mesh.interior_vertices]


def _error_norms(mesh, fh, f, rule, values, gradients):
    """L2 norm (``values``) and/or H1 seminorm (``gradients``) of
    (fh - f), from per-element quadrature sums over the slab blocks.  A
    block's physical points are built once, and only when a term is a
    plain callable."""
    needs = ["element_values"] * values + ["element_gradients"] * gradients
    sums = np.empty((len(needs), mesh.n_tets))
    for slabs in slab_blocks(mesh, rule):
        elements = mesh.slab_elements(slabs)
        points = None
        if not all(hasattr(obj, attr) for attr in needs for obj in (fh, f)):
            points = mesh.physical_points(rule, slabs)
        if values:
            diff = values_on_elements(fh, mesh, rule, slabs, points) \
                - values_on_elements(f, mesh, rule, slabs, points)
            sums[0, elements] = (diff * diff) @ rule.weights
            del diff            # not held while the gradients are built
        if gradients:
            diff = gradients_on_elements(fh, mesh, rule, slabs, points) \
                - gradients_on_elements(f, mesh, rule, slabs, points)
            sums[-1, elements] = np.einsum("nqd,nqd,q->n", diff, diff,
                                           rule.weights)
    return [float(np.sqrt(max(s @ mesh.volumes, 0.0))) for s in sums]


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
