"""Discrete spectrum of the Dirichlet Laplacian on the cube.

The exact eigenvalues are (i^2 + j^2 + k^2) pi^2.  The discrete ones lie
above them (Rayleigh-Ritz) and approach at second order in h.  The mesh
keeps axis permutations but not every cube reflection, so the continuum
triple at 6 pi^2 splits into an exactly degenerate pair plus one close
singlet.
"""

import math

import numpy as np

from spfem import SpectrumSolver, build_structured_mesh, cube_eigensequence

exact = np.array([m.lam for m in cube_eigensequence(8)])

print("   level   exact        m=4         m=8         m=16")
values = {}
for m in (4, 8, 16):
    mesh = build_structured_mesh(m)
    values[m] = SpectrumSolver(mesh, None).solve(None, 8).eigenvalues
for l in range(8):
    print(f"  {l + 1:5d}  {exact[l]:10.4f}  {values[4][l]:10.4f}"
          f"  {values[8][l]:10.4f}  {values[16][l]:10.4f}")

print("\npair gap inside the second shell (exact degeneracy):")
for m in (4, 8, 16):
    print(f"  m={m:3d}: |eps2 - eps3| = {abs(values[m][2] - values[m][1]):.2e}"
          f", singlet offset eps4 - eps2 = {values[m][3] - values[m][1]:.4f}")

lam1 = 3 * math.pi ** 2
print("\nsecond-order convergence of the ground level:")
prev = None
for m in (4, 8, 16):
    gap = values[m][0] - lam1
    note = f"  ratio {prev / gap:.2f}" if prev else ""
    print(f"  m={m:3d}: eps1 - 3pi^2 = {gap:.6f}{note}")
    prev = gap
