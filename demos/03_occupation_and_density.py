"""Occupation statistics and the electron density.

The level series is truncated by a smooth cutoff one unit past the
energy window 2|ln h|/mu, the Fermi level is solved so occupations sum
to the electron count, and the density is the occupation-weighted sum
of squared eigenfunctions.
"""

import numpy as np

from spfem import (DistributionParams, SeriesDensity, SpectrumSolver,
                   build_density, build_structured_mesh, continuous_fermi,
                   determine_occupation, mesh_size)

p = DistributionParams()  # Boltzmann, f0=1, mu=0.1, N0=100
fermi_exact = continuous_fermi(p)
print(f"continuum Fermi level: {fermi_exact:.6f}")

for m in (4, 8, 16):
    mesh = build_structured_mesh(m)
    h = mesh_size(mesh)
    solver = SpectrumSolver(mesh, None)
    spectral, occ = determine_occupation(
        mesh, lambda L: solver.solve(None, L), p, h)
    density = build_density(spectral, occ)
    print(f"\nm={m}: window M={occ.window:.3f}, levels kept "
          f"{occ.level_count - 1} (first zero at {occ.level_count})")
    print(f"  discrete Fermi level {occ.fermi_level:.6f} "
          f"(gap {occ.fermi_level - fermi_exact:+.6f}, one-sided)")
    print(f"  occupation sum {occ.occupations.sum():.12f}, "
          f"density integral {density.integral():.12f}")

print("\ndensity along the cube diagonal (m=16 vs certified series):")
mesh = build_structured_mesh(16)
solver = SpectrumSolver(mesh, None)
spectral, occ = determine_occupation(
    mesh, lambda L: solver.solve(None, L), p, mesh_size(mesh))
density = build_density(spectral, occ)
diagonal = np.repeat([[0.125], [0.25], [0.375], [0.5]], 3, axis=1)
exact = SeriesDensity(p)(diagonal)   # one series, all four points
for x, n in zip(diagonal, exact):
    print(f"  x={x[0]:5.3f}: n_h = {density.evaluate(x):10.4f}, "
          f"n = {n:10.4f}")
