"""How the multigrid-preconditioned eigensolve scales with the mesh.

The sparse eigensolver is LOBPCG preconditioned by a V-cycle on the
nested Kuhn meshes m, m/2, ...: damped Jacobi on every level, SuperLU
on the coarsest (at most about 1000 dofs).  For benchmark 1 on
m = 16, 24 and 32 this prints the SCF wall time, the peak resident
memory of the process so far (the meshes run in increasing size, so it
is the peak of the largest), the dof counts of the V-cycle's levels and
the LOBPCG iterations of each SCF step.  Each V-cycle application is one
LOBPCG iteration; it is counted by wrapping ``VCycle.solve``, and SCF
steps are told apart by wrapping ``determine_occupation``.  The last
step is the loop's final-state solve.  m = 32 takes about 20 s.
"""

import resource
import time

from spfem import (DistributionParams, ScfConfig, ScfModel,
                   build_structured_mesh, fixed_point_solve,
                   manufactured_problem)
from spfem import linsolve, scf

steps = []        # LOBPCG iterations per SCF step
sizes = []

_cycle = linsolve.VCycle.solve
_occupation = scf.determine_occupation


def counted_cycle(self, b):
    steps[-1] += 1
    sizes[:] = self.sizes
    return _cycle(self, b)


def counted_occupation(*args, **kwargs):
    steps.append(0)
    return _occupation(*args, **kwargs)


linsolve.VCycle.solve = counted_cycle
scf.determine_occupation = counted_occupation

p = DistributionParams()
problem = manufactured_problem(1, p)
for m in (16, 24, 32):
    steps.clear()
    mesh = build_structured_mesh(m)
    t0 = time.perf_counter()
    report = fixed_point_solve(mesh, ScfModel(problem.V0, problem.n_D, p),
                               ScfConfig())
    wall = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"m={m:3d}  n={mesh.n_interior:6d}  {wall:6.1f} s  "
          f"peak RSS {rss:6.0f} MB  {len(report.iterations)} SCF steps, "
          f"converged={report.converged}")
    print(f"       V-cycle levels (dofs): {sizes}")
    print(f"       LOBPCG iterations per SCF step: {steps}")
