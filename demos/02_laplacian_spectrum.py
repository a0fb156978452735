"""Discrete spectrum of the Dirichlet Laplacian on the cube.

The exact eigenvalues are (i^2 + j^2 + k^2) pi^2.  The discrete ones lie
above them (Rayleigh-Ritz) and approach at second order in h.  The mesh
keeps axis permutations but not every cube reflection, so the continuum
triple at 6 pi^2 splits into an exactly degenerate pair plus one close
singlet.  Each level lies in one of the six symmetry classes of the
mesh (``spfem.symmetry``): the pair in the two-dimensional class Eu,
the singlet in A1u.
"""

import math

import numpy as np

from spfem import SpectrumSolver, build_structured_mesh, cube_eigensequence
from spfem.symmetry import class_bases


def class_of(x, bases):
    """Name of the symmetry class that holds most of the interior
    vector x."""
    weights = {c.name: sum(np.linalg.norm(Q.T @ x) ** 2 for Q in c.rows)
               for c in bases}
    return max(weights, key=weights.get)


exact = np.array([m.lam for m in cube_eigensequence(8)])

print("   level   exact        m=4         m=8         m=16")
values, classes = {}, {}
for m in (4, 8, 16):
    mesh = build_structured_mesh(m)
    s = SpectrumSolver(mesh, None).solve(None, 8)
    values[m] = s.eigenvalues
    bases = class_bases(m)
    classes[m] = [class_of(x, bases)
                  for x in s.coefficients[mesh.interior_vertices].T]
for l in range(8):
    print(f"  {l + 1:5d}  {exact[l]:10.4f}  {values[4][l]:10.4f}"
          f"  {values[8][l]:10.4f}  {values[16][l]:10.4f}")

print("\npair gap inside the second shell (exact degeneracy):")
for m in (4, 8, 16):
    pair, singlet = "/".join(classes[m][1:3]), classes[m][3]
    print(f"  m={m:3d}: |eps2 - eps3| = {abs(values[m][2] - values[m][1]):.2e}"
          f" ({pair}), singlet offset eps4 - eps2 = "
          f"{values[m][3] - values[m][1]:.4f} ({singlet})")

lam1 = 3 * math.pi ** 2
print("\nsecond-order convergence of the ground level:")
prev = None
for m in (4, 8, 16):
    gap = values[m][0] - lam1
    note = f"  ratio {prev / gap:.2f}" if prev else ""
    print(f"  m={m:3d}: eps1 - 3pi^2 = {gap:.6f}{note}")
    prev = gap
