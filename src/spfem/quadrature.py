"""Quadrature rules on the reference tetrahedron.

Points are stored as barycentric coordinates (nq, 4) and weights are
normalized to sum to 1, so that an element integral is approximated by
``|K| * sum_q w_q g(x_q)``.  All rules have strictly positive weights.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    degree: int
    points: np.ndarray   # (nq, 4) barycentric coordinates
    weights: np.ndarray  # (nq,), positive, sum to 1


def _bary(xyz):
    xyz = np.asarray(xyz, dtype=float)
    lam0 = 1.0 - xyz.sum(axis=1)
    return np.column_stack([lam0, xyz])


def _rule_degree1():
    pts = _bary([[0.25, 0.25, 0.25]])
    return QuadratureRule(1, pts, np.array([1.0]))


def _rule_degree2():
    # 4 symmetric points (Zienkiewicz-Taylor), exact for quadratics.
    a, b = 0.585410196624969, 0.138196601125011
    pts = _bary([[a, b, b], [b, a, b], [b, b, a], [b, b, b]])
    return QuadratureRule(2, pts, np.full(4, 0.25))


def _rule_degree4():
    # Keast 14-point rule, exact for quartics; positive weights.
    a1, b1 = 0.6984197043243866, 0.1005267652252045
    a2, b2 = 0.0568813795204234, 0.3143728734931922
    pts = _bary([
        [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0],
        [0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5],
        [a1, b1, b1], [b1, b1, b1], [b1, b1, a1], [b1, a1, b1],
        [a2, b2, b2], [b2, b2, b2], [b2, b2, a2], [b2, a2, b2],
    ])
    w = np.concatenate([
        np.full(6, 0.0190476190476190),
        np.full(4, 0.0885898247429807),
        np.full(4, 0.1328387466855907),
    ])
    return QuadratureRule(4, pts, w)


def _rule_degree5():
    # Keast 15-point rule, exact for quintics; positive weights.
    t = 1.0 / 3.0
    a1, b1 = 0.7272727272727273, 0.0909090909090909
    a2, b2 = 0.4334498464263357, 0.0665501535736643
    pts = _bary([
        [0.25, 0.25, 0.25],
        [0.0, t, t], [t, t, t], [t, t, 0.0], [t, 0.0, t],
        [a1, b1, b1], [b1, b1, b1], [b1, b1, a1], [b1, a1, b1],
        [a2, b2, b2], [b2, a2, b2], [b2, b2, a2],
        [b2, a2, a2], [a2, b2, a2], [a2, a2, b2],
    ])
    w = np.concatenate([
        [0.1817020685825351],
        np.full(4, 0.0361607142857143),
        np.full(4, 0.0698714945161738),
        np.full(6, 0.0656948493683187),
    ])
    return QuadratureRule(5, pts, w)


def _rule_degree6():
    # Keast 24-point rule, exact for sextics; positive weights.
    a1, b1 = 0.3561913862225449, 0.2146028712591517
    a2, b2 = 0.8779781243961660, 0.0406739585346113
    a3, b3 = 0.0329863295731731, 0.3223378901422757
    c, d, e = 0.2696723314583159, 0.0636610018750175, 0.6030056647916491
    pts = _bary([
        [a1, b1, b1], [b1, b1, b1], [b1, b1, a1], [b1, a1, b1],
        [a2, b2, b2], [b2, b2, b2], [b2, b2, a2], [b2, a2, b2],
        [a3, b3, b3], [b3, b3, b3], [b3, b3, a3], [b3, a3, b3],
        [c, d, d], [d, c, d], [d, d, c],
        [e, d, d], [d, e, d], [d, d, e],
        [d, c, e], [c, e, d], [e, d, c],
        [d, e, c], [c, d, e], [e, c, d],
    ])
    w = np.concatenate([
        np.full(4, 0.0399227502581679),
        np.full(4, 0.0100772110553207),
        np.full(4, 0.0553571815436544),
        np.full(12, 0.0482142857142857),
    ])
    return QuadratureRule(6, pts, w)


_RULES = [_rule_degree1(), _rule_degree2(), _rule_degree4(),
          _rule_degree5(), _rule_degree6()]


def tet_rule(degree):
    """Smallest available rule exact on polynomials up to ``degree``."""
    if degree < 1:
        raise ValueError(f"quadrature degree must be >= 1, got {degree}")
    for rule in _RULES:
        if rule.degree >= degree:
            return rule
    raise ValueError(f"no tetrahedron rule of degree {degree} available (max 6)")


def reference_monomial_integral(a, b, c):
    """Exact integral of x^a y^b z^c over the unit reference tetrahedron."""
    from math import factorial

    return factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 3)
