"""P1 Lagrange machinery: fields, matrix/vector assembly, error norms.

Dirichlet conditions are handled by eliminating boundary vertices, so
all assembled operators act on interior degrees of freedom unless
``interior_only=False`` is requested.

Local arrays are closed-form products over all elements at once: a
weighted mass is (nt, nq) weights times the rule's (nq, 16) table of
basis products, a load is (nt, nq) values times the (nq, 4) basis
values.  The position of every local entry in the final CSR pattern is
computed once per mesh (and per ``interior_only``), so each matrix
assembly is a single ``np.bincount`` and bit-reproducible for a fixed
mesh.  The same positions expand a Gram given per vertex pair of the
pattern into the 4x4 Grams of all elements.  These positions, kept in
the mesh's ``_patterns``, are the only thing remembered between calls:
fields are evaluated afresh at every assembly, and a caller that reuses
one (a fixed doping load, say) keeps the assembled vector itself.
"""

import numpy as np
import scipy.sparse as sp

from .linsolve import SparseSymMatrix
from .quadrature import tet_rule


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

    def element_values(self, mesh, rule):
        if mesh is not self.mesh:
            raise ValueError("field evaluated on a foreign mesh")
        local = self.coeffs[mesh.tets]                 # (nt, 4)
        return local @ rule.points.T                   # (nt, nq)

    def element_gradients(self, mesh, rule):
        if mesh is not self.mesh:
            raise ValueError("field evaluated on a foreign mesh")
        local = self.coeffs[mesh.tets]
        g = np.einsum("na,nad->nd", local, mesh.grads)  # constant per element
        return np.broadcast_to(g[:, None, :],
                               (mesh.n_tets, len(rule.points), 3))

    def __add__(self, other):
        return FeField(self.mesh, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return FeField(self.mesh, self.coeffs - other.coeffs)

    def __rmul__(self, scalar):
        return FeField(self.mesh, float(scalar) * self.coeffs)


def values_on_elements(obj, mesh, rule):
    """(nt, nq) values of a field-like object at all quadrature points."""
    if hasattr(obj, "element_values"):
        return obj.element_values(mesh, rule)
    if callable(obj):
        return obj(mesh.physical_points(rule))
    raise TypeError(f"cannot evaluate {type(obj).__name__} on elements")


def gradients_on_elements(obj, mesh, rule):
    """(nt, nq, 3) gradients of a field-like object at quadrature points."""
    if hasattr(obj, "element_gradients"):
        return obj.element_gradients(mesh, rule)
    grad = getattr(obj, "grad", None)
    if grad is not None:
        return np.asarray(grad(mesh.physical_points(rule)), dtype=float)
    raise TypeError(f"no gradient available for {type(obj).__name__}")


def _pattern(mesh, interior_only):
    """CSR pattern of the assembled operators and, for each of the
    (nt, 4, 4) local entries, its position in the CSR data.

    Computed once per mesh and ``interior_only``.  Entries coupling a
    boundary vertex (``interior_only``) map to the extra slot nnz, which
    assembly drops.
    """
    pattern = mesh._patterns.get(interior_only)
    if pattern is not None:
        return pattern
    ids = mesh.interior_index[mesh.tets] if interior_only else mesh.tets
    n = mesh.n_interior if interior_only else mesh.n_vertices
    rows = np.repeat(ids, 4, axis=1).ravel()   # entry (a, b) at 4a + b
    cols = np.tile(ids, (1, 4)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    keys, slots = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
    positions = np.full(len(rows), len(keys), dtype=np.int32)
    positions[keep] = slots.ravel()
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    pattern = (positions, (keys % n).astype(np.int32), indptr, n)
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


def element_gram(mesh, pairs):
    """(nt, 16) local 4x4 Grams from the per-entry values of
    ``pattern_gram``."""
    return pairs[_pattern(mesh, True)[0]].reshape(-1, 16)


def basis_products(rule):
    """(nq, 16) products P_qa P_qb of the rule's barycentric points."""
    P = rule.points
    return (P[:, :, None] * P[:, None, :]).reshape(len(P), 16)


def assemble_stiffness(mesh, interior_only=True):
    """Dirichlet Laplacian stiffness matrix (gradient-gradient form)."""
    local = np.einsum("nad,nbd->nab", mesh.grads, mesh.grads)
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
    wvals = values_on_elements(w, mesh, rule)          # (nt, nq)
    local = (wvals * rule.weights) @ basis_products(rule)  # (nt, 16)
    local *= mesh.volumes[:, None]
    return _assemble(mesh, local, interior_only)


def assemble_load(mesh, g, rule=None):
    """Interior load vector with entries int(g * basis_i)."""
    rule = rule or tet_rule(2)
    if rule.degree < 2:
        raise ValueError("load assembly needs quadrature degree >= 2")
    gvals = values_on_elements(g, mesh, rule)          # (nt, nq)
    local = (gvals * rule.weights) @ rule.points       # (nt, 4)
    local *= mesh.volumes[:, None]
    full = np.bincount(mesh.tets.ravel(), weights=local.ravel(),
                       minlength=mesh.n_vertices)
    return full[mesh.interior_vertices]


def l2_norm_error(mesh, fh, f, rule=None):
    """L2 norm of (fh - f) by elementwise quadrature."""
    rule = rule or tet_rule(5)
    diff = values_on_elements(fh, mesh, rule) - values_on_elements(f, mesh, rule)
    per_elem = (diff * diff) @ rule.weights
    return float(np.sqrt(max(per_elem @ mesh.volumes, 0.0)))


def h1_semi_error(mesh, fh, f, rule=None):
    """H1 seminorm of (fh - f) by elementwise quadrature."""
    rule = rule or tet_rule(5)
    diff = gradients_on_elements(fh, mesh, rule) - gradients_on_elements(f, mesh, rule)
    per_elem = np.einsum("nqd,nqd,q->n", diff, diff, rule.weights)
    return float(np.sqrt(max(per_elem @ mesh.volumes, 0.0)))


def h1_error(mesh, fh, f, rule=None):
    """Full H1 norm of (fh - f)."""
    rule = rule or tet_rule(5)
    l2 = l2_norm_error(mesh, fh, f, rule)
    semi = h1_semi_error(mesh, fh, f, rule)
    return float(np.hypot(l2, semi))
