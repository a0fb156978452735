"""The 12 symmetries of the Kuhn mesh, the orbit-sum bases of their six
symmetry classes, and the dense eigensolve of a pencil split into them.

Every Kuhn cell is split along its main diagonal, so of the 48
symmetries of the cube the mesh keeps the 12 that map that diagonal to
itself: the permutations of the axes, each with or without the central
inversion x -> 1 - x (the group S3 x C_i).  On the interior grid
(a, b, c), a, b, c = 1..m-1, they permute the vertex indices.  A pencil
that commutes with the 12 permutations is block diagonal in the bases of
the group's six irreducible classes A1g, A2g, Eg, A1u, A2u and Eu
(Bossavit, Comput. Methods Appl. Mech. Engrg. 56, 1986; Fassler &
Stiefel, Group Theoretical Methods and Their Applications, 1992).  Each
level of the two-dimensional classes Eg and Eu is twofold: one row of
the class holds it, and the other row holds its partner.

``class_split`` keeps on each mesh what the dense eigensolve of its
pencils needs, the class bases and the factors of the mass matrix's
class blocks, and ``ClassSplit.eigenvectors`` solves one class at a time.
"""

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import fem

# group element g = (axis permutation, inversion), in this order
_PERMS = np.array([p for p in itertools.permutations(range(3))
                   for _ in (0, 1)])
_INVERTS = np.tile([False, True], 6)
# the generators: two axis transpositions and the inversion
GENERATORS = (4, 2, 1)
# the rotations C3 of the axes: the identity and the two cyclic shifts
_ROTATIONS = (0, 6, 8)
# the plane orthogonal to (1, 1, 1), which the axis permutations rotate:
# the two-dimensional representation of S3
_PLANE = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]).T \
    / np.array([math.sqrt(2.0), math.sqrt(6.0)])


def _representations():
    """(name, (12, d, d) real orthogonal matrices) of the six classes."""
    P = np.zeros((12, 3, 3))
    P[np.arange(12)[:, None], np.arange(3), _PERMS] = 1.0
    sign = np.linalg.det(P)[:, None, None]
    parity = np.where(_INVERTS, -1.0, 1.0)[:, None, None]
    E = _PLANE.T @ P @ _PLANE
    one = np.ones((12, 1, 1))
    return (("A1g", one), ("A2g", sign), ("Eg", E),
            ("A1u", parity), ("A2u", sign * parity), ("Eu", E * parity))


CLASSES = _representations()


class SymmetryClass(NamedTuple):
    """Orthonormal bases of one symmetry class on the interior grid:
    ``rows[0]``, (n, n_c) sparse, spans the class's first row, and for
    Eg and Eu ``rows[1]`` spans the second, its partner."""

    name: str
    rows: tuple


def images(m, elements=slice(None)):
    """(k, n) int array: row g holds the image of every interior vertex
    under the group element g (all 12 by default), z fastest.  Element
    g permutes the grid coordinates (a, b, c) by ``_PERMS[g]`` and then,
    if ``_INVERTS[g]``, maps each coordinate a to m - a."""
    k = m - 1
    grid = np.indices((k, k, k)).reshape(3, -1)         # a - 1, b - 1, c - 1
    q = grid[_PERMS[elements]]
    q = np.where(_INVERTS[elements, None, None], k - 1 - q, q)
    return (q[:, 0] * k + q[:, 1]) * k + q[:, 2]


def asymmetry(m, x):
    """max over the three generators g of |g x - x| / max |x| for a
    vector x of interior values, and max |P A P^T - A| / max |A| for an
    (n, n) matrix A, dense or sparse; 0 when x is zero."""
    scale = abs(x).max()
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for p in images(m, list(GENERATORS)):
        diff = x[p][:, p] - x if x.ndim == 2 else x[p] - x
        worst = max(worst, abs(diff).max())
    return float(worst / scale)


def class_bases(m):
    """The six ``SymmetryClass`` bases on the interior grid with m cells
    per axis, in the order of ``CLASSES``; a class may be empty.

    The projector onto row i of a class of dimension d with matrices
    D(g) is P_ij = d / 12 sum_g D_ij(g) T_g, T_g the vertex permutation.
    On the orbit of a vertex v with stabilizer H the vectors P_1j e_v
    have the Gram matrix d |H| / 12 Pi, Pi = sum_{h in H} D(h) / |H| a
    projector; each orthonormal vector t of its range gives the basis
    column sum_j t_j P_1j e_v, normalized, and its partner
    sum_j t_j P_2j e_v.  So every column is an orbit sum of at most 12
    nonzeros, and the partner is the basis's image under the transfer
    operator P_21.
    """
    img = images(m)
    n = img.shape[1]
    reps = np.flatnonzero(img.min(axis=0) == np.arange(n))   # one per orbit
    orbits = img[:, reps]                                    # (12, r)
    stabilizer = orbits == reps
    order = stabilizer.sum(axis=0)                           # |H|
    bases = []
    for name, D in CLASSES:
        d = D.shape[1]
        Pi = np.einsum("gr,gij->rij", stabilizer, D) / order[:, None, None]
        rank = np.rint(np.trace(Pi, axis1=1, axis2=2)).astype(int)
        # range of Pi: the identity at full rank, else its largest column
        full = np.flatnonzero(rank == d)
        half = np.flatnonzero((rank == 1) & (d == 2))
        j = np.argmax(np.diagonal(Pi[half], axis1=1, axis2=2), axis=1)
        t_half = Pi[half, :, j] / np.sqrt(Pi[half, j, j])[:, None]
        orbit = np.concatenate([np.repeat(full, d), half])
        t = np.concatenate([np.tile(np.eye(d), (len(full), 1)), t_half])
        by_orbit = np.argsort(orbit, kind="stable")
        orbit, t = orbit[by_orbit], t[by_orbit]
        scale = d / 12.0 / np.sqrt(d * order[orbit] / 12.0)
        cols = np.broadcast_to(np.arange(len(orbit)), (12, len(orbit)))
        rows = [sp.csc_matrix(((D[:, i, :] @ t.T * scale).ravel(),
                               (orbits[:, orbit].ravel(), cols.ravel())),
                              shape=(n, len(orbit)))
                for i in range(d)]
        bases.append(SymmetryClass(name, tuple(rows)))
    return bases


class ClassSplit:
    """The symmetry classes of one mesh for the eigensolve
    (``class_split``): ``rows``, per class the (n, n_c) sparse
    orthonormal bases of its rows (``SymmetryClass.rows``, in CSR);
    ``mass``, per class the sparse block Q^T M Q of the mass matrix M on
    its first row Q; and, built at the first dense solve, ``basis``, the
    first rows of all classes side by side, and ``factors``, per class
    the inverse F of the lower Cholesky factor of the mass block,
    F Q^T M Q F^T = I.

    A matrix A that keeps the symmetries maps each row space into
    itself, A Q = Q R, so its block R = Q^T A Q needs the rows of A Q at
    the images of one vertex v of each orbit under the three rotations
    C3 of the axes only (3 of the 12 vertices of a generic orbit).  For the C3 average
    of D(g)^T S D(g) over a class's matrices D(g) is the average over
    all 12 (C3 acts irreducibly on the plane of Eg and Eu), so the sum
    of Q^T X over an orbit, 1/|H| times the sum over the group at v with
    stabilizer H, is 4/|H| times the sum over C3 at v.  With w holding
    4/|H| at those images (added where they coincide) and 0 elsewhere,
    R = Q^T diag(w) A Q."""

    def __init__(self, m, rows, mass):
        self.m = m
        self.rows = rows
        self.mass = [(r[0].T @ (mass @ r[0])).tocsr() for r in rows]

    @functools.cached_property
    def basis(self):
        return sp.hstack([r[0] for r in self.rows], format="csc")

    @functools.cached_property
    def _reduction(self):
        """The support of w, and per class Q^T diag(w) restricted to the
        support's rows."""
        img = images(self.m)
        reps = np.flatnonzero(img.min(axis=0) == np.arange(img.shape[1]))
        order = (img[:, reps] == reps).sum(axis=0)
        weights = np.zeros(img.shape[1])
        for g in _ROTATIONS:
            np.add.at(weights, img[g, reps], 4.0 / order)
        support = np.flatnonzero(weights)
        return support, [(r[0][support].T.multiply(weights[support]))
                         .tocsr() for r in self.rows]

    @property
    def sizes(self):
        """(6,) int array: n_c, the columns of each class's first row."""
        return np.array([r[0].shape[1] for r in self.rows])

    def blocks(self, A, which=None):
        """The sparse class blocks Q^T A Q of a sparse matrix A with the
        mesh's symmetries, on the first row Q of every class in
        ``which`` (all by default; None for the others), from the rows of
        A at the support of w, symmetrized; no (n, n) array is
        formed."""
        support, weighted = self._reduction
        A = A[support]
        blocks = []
        for c, (W, r) in enumerate(zip(weighted, self.rows)):
            R = None
            if which is None or c in which:
                R = W @ (A @ r[0])
                R = (0.5 * (R + R.T)).tocsr()
            blocks.append(R)
        return blocks

    def _dense_blocks(self, A):
        """The dense class blocks basis^T A basis of the sparse matrix A,
        reduced at once, cut at the class boundaries: for the dense path,
        whose blocks are small."""
        R = (self.basis.T @ (A @ self.basis)).toarray()
        ends = np.cumsum([0] + list(self.sizes))
        return [R[lo:hi, lo:hi] for lo, hi in zip(ends, ends[1:])]

    @functools.cached_property
    def factors(self):
        return [sla.solve_triangular(sla.cholesky(B.toarray(), lower=True),
                                     np.eye(B.shape[0]), lower=True)
                for B in self.mass]

    def merge(self, values, vectors, L):
        """The L lowest of the per-class levels ``values`` (ascending
        arrays) with their vectors ``vectors`` (per class (n_c, k_c) in
        first-row coordinates Y), merged stably by (value, class): a
        level of a two-dimensional class counts twice, as Q_1 Y and as
        its partner Q_2 Y.  A class without levels has an empty entry.
        Returns the values and the (n, L) vectors."""
        merged = [(w, Q @ Y) for w, Y, rows in zip(values, vectors,
                                                  self.rows)
                  for Q in rows if len(w)]
        order = np.argsort(np.concatenate([w for w, _ in merged]),
                           kind="stable")[:L]
        return (np.concatenate([w for w, _ in merged])[order],
                np.hstack([X for _, X in merged])[:, order])

    def eigenvectors(self, A, L):
        """The eigenvectors of the lowest L levels of A x = e M x, for a
        sparse A with the mesh's symmetries, from one dense subset
        ``eigh`` per class block R of A, in the standard form F R F^T,
        up to min(L, n_c) levels each, merged by ``merge``."""
        values, vectors = [], []
        for R, F in zip(self._dense_blocks(A), self.factors):
            k = min(L, len(R))
            if k == 0:
                values.append(np.empty(0))
                vectors.append(np.empty((0, 0)))
                continue
            w, V = sla.eigh(F @ R @ F.T, subset_by_index=[0, k - 1])
            values.append(w)
            vectors.append(F.T @ V)
        return self.merge(values, vectors, L)[1]


def class_split(mesh):
    """The mesh's ``ClassSplit``, built at the first call and kept in
    the mesh's ``_class_split``: the bases depend on m alone, and the
    mass blocks and their factors on the mass matrix, which keeps the
    mesh's symmetries."""
    if mesh._class_split is None:
        mesh._class_split = ClassSplit(
            mesh.m, [tuple(Q.tocsr() for Q in c.rows)
                     for c in class_bases(mesh.m)],
            fem.assemble_mass(mesh).csr)
    return mesh._class_split


def class_levels(count):
    """Per class, in the order of ``CLASSES``, the ascending levels
    (i^2 + j^2 + k^2) pi^2 of the cube's Dirichlet modes
    sin(i pi x) sin(j pi y) sin(k pi z) that lie in the class, over the
    complete shells of equal i^2 + j^2 + k^2 through the ``count``-th
    mode; a level of Eg or Eu is listed once, for one row.

    The inversion maps the mode to (-1)^(i+j+k+1) times itself, so it
    lies in a g class when i + j + k is odd and in a u class when it is
    even.  The axis permutations map it to the modes of the permuted
    indices, whose span holds A1 + A2 + 2E when i, j, k are distinct,
    A1 + E when two are equal and A1 when all are.  By min-max on the
    class's subspace, the i-th level of a class of a conforming P1
    pencil (K + W, M) with W >= f M is at least the i-th level listed
    here plus f.
    """
    from .spectrum import PI2, cube_levels, cube_shells   # imports us
    s, i, j, k = cube_shells(round(cube_levels(count)[-1] / PI2))
    orbit = (i <= j) & (j <= k)                   # one mode per orbit
    s, i, j, k = s[orbit], i[orbit], j[orbit], k[orbit]
    distinct = (i < j) & (j < k)
    pair = ~distinct & (i != k)                    # two indices equal
    levels = []
    for parity in ((i + j + k) % 2 == 1, (i + j + k) % 2 == 0):
        levels += [s[parity], s[parity & distinct],
                   np.sort(np.concatenate([s[parity & pair],
                                           np.repeat(s[parity & distinct],
                                                     2)]))]
    return [PI2 * lv for lv in levels]
