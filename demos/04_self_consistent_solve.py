"""One self-consistent solve of the coupled system on a fixed mesh.

Benchmark 1 applies a sine-product potential; its doping profile is
built so the exact solution is known in closed form, which lets us
report true errors after the Anderson-mixed fixed-point iteration
converges.
"""

import math

from spfem import (DistributionParams, ScfConfig, ScfModel,
                   build_structured_mesh, fixed_point_solve, h1_error,
                   l2_norm_error, manufactured_problem)
from spfem.cli import dump_density, dump_potential

p = DistributionParams()
problem = manufactured_problem(1, p)
mesh = build_structured_mesh(8)

report = fixed_point_solve(mesh, ScfModel(problem.V0, problem.n_D, p),
                           ScfConfig())

# the increment ratio estimates the contraction factor of the mixed
# iteration; it stays well below 1 while the solve converges.  Each
# sweep's eigensolves run at a tolerance that follows the previous
# increment, down to eig_tol, for a budget trimmed to the levels that
# reach the window and end at a gap of the spectrum ("solved"; "kept"
# are the occupied ones plus one); "eigs" counts the sweep's
# eigensolves, one more per budget doubling, and "its" their LOBPCG
# iterations (0 here: m = 8 takes the dense path)
print("sweep   H1 increment   ratio      Fermi level   kept   eig tol  "
      "solved  eigs   its")
for rec in report.iterations:
    print(f"{rec.iteration:5d}   {rec.increment_h1:12.4e}   "
          f"{rec.increment_ratio:7.3f}   {rec.fermi_level:12.6f}   "
          f"{rec.level_count:4d}   {rec.eig_tol:7.1e}  {rec.levels:6d}  "
          f"{rec.eig_solves:4d}  {rec.eig_iterations:4d}")
print(f"\nconverged: {report.converged}, "
      f"self-consistency residual {report.self_consistency_h1:.2e}")

e_v0 = l2_norm_error(mesh, report.potential, problem.V_exact)
e_v1 = h1_error(mesh, report.potential, problem.V_exact)
e_n0 = l2_norm_error(mesh, report.density, problem.n_exact)
print(f"errors vs exact solution: L2(V) = {e_v0:.4e}, "
      f"H1(V) = {e_v1:.4e}, L2(n) = {e_n0:.4e}")

dump_potential(report.potential, "demo_potential.txt")
dump_density(report.density, "demo_density.txt")
print("wrote demo_potential.txt (per vertex) and demo_density.txt "
      "(per quadrature point)")
