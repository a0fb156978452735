"""spfem: P1 tetrahedral finite elements for the Schrodinger-Poisson
system on the unit cube, with a manufactured-solution convergence lab."""

from .errors import (ConvergenceError, InfeasibleOccupationError,
                     NumericsError, TruncationOverflowError)
from .fem import (FeField, ScalarFunction, assemble_load, assemble_mass,
                  assemble_stiffness, assemble_weighted_mass, h1_error,
                  h1_semi_error, l2_norm_error)
from .lab import StudyRow, emit_csv, format_table, parse_csv, run_study
from .linsolve import (EigenResult, SparseSymMatrix, lowest_eigenpairs,
                       pcg_solve)
from .mesh import Mesh, build_structured_mesh, mesh_size, write_mesh
from .occupancy import (DensityField, DistributionParams, OccupationState,
                        build_density, cutoff_chi, determine_occupation,
                        distribution, solve_fermi, truncated_distribution,
                        truncation_bound)
from .oracle import (ManufacturedProblem, SeriesDensity, continuous_fermi,
                     exact_density, manufactured_problem)
from .quadrature import QuadratureRule, tet_rule
from .scf import (IterationRecord, ScfConfig, ScfModel, ScfReport,
                  fixed_point_solve, poisson_solve)
from .spectrum import (CubeMode, SpectralSet, SpectrumSolver,
                       assemble_hamiltonian, cube_eigensequence)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
