"""How the preconditioned eigensolve scales with the mesh.

The sparse eigensolver is LOBPCG preconditioned by the exact inverse of
the stiffness, applied with sine transforms along the three grid axes
(``spectrum.SineInverse``), run per symmetry class of the Kuhn mesh
when the pencil keeps its symmetries.  For benchmark 1 on m = 16, 24
and 32 this prints the SCF wall time, the peak resident memory of the
process so far (the meshes run in increasing size, so it is the peak of
the largest), the number of symmetry classes the final-state solve
split the pencil into (6, or 1 for the whole pencil) with the levels
each class holds, and the preconditioner applications of each SCF step,
as the solve records them (``IterationRecord.eig_iterations``: one per
LOBPCG iteration of each class).  The last step is the loop's
final-state solve, whose count the returned density's spectral set
carries.
"""

import resource
import time

import numpy as np

from spfem import (DistributionParams, ScfConfig, ScfModel,
                   build_structured_mesh, fixed_point_solve,
                   manufactured_problem, symmetry)

p = DistributionParams()
problem = manufactured_problem(1, p)
for m in (16, 24, 32):
    mesh = build_structured_mesh(m)
    t0 = time.perf_counter()
    report = fixed_point_solve(mesh, ScfModel(problem.V0, problem.n_D, p),
                               ScfConfig())
    wall = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    steps = [rec.eig_iterations for rec in report.iterations]
    steps.append(report.density.spectral.iterations)
    print(f"m={m:3d}  n={mesh.n_interior:6d}  {wall:6.1f} s  "
          f"peak RSS {rss:6.0f} MB  {len(report.iterations)} SCF steps, "
          f"converged={report.converged}")
    spectral = report.density.spectral
    X = spectral.coefficients[mesh.interior_vertices]
    rows = symmetry.class_split(mesh).rows
    owner = np.argmax([sum(np.sum((Q.T @ X) ** 2, axis=0) for Q in r)
                       for r in rows], axis=0)
    held = ", ".join(f"{name} {np.count_nonzero(owner == c)}"
                     for c, (name, _) in enumerate(symmetry.CLASSES))
    print(f"       classes solved apart: {spectral.classes} "
          f"(levels held: {held})")
    print(f"       LOBPCG iterations per SCF step: {steps}")
