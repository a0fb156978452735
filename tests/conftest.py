import math

import numpy as np
import pytest

from spfem import fem
from spfem.fem import ScalarFunction
from spfem.lab import run_study
from spfem.mesh import build_structured_mesh
from spfem.occupancy import DistributionParams
from spfem.scf import ScfConfig

PI = math.pi


@pytest.fixture(scope="session")
def mesh4():
    return build_structured_mesh(4)


@pytest.fixture(scope="session")
def mesh8():
    return build_structured_mesh(8)


@pytest.fixture(scope="session")
def mesh16():
    return build_structured_mesh(16)


@pytest.fixture(scope="session")
def params():
    return DistributionParams()  # boltzmann, f0=1, mu=0.1, N0=100


@pytest.fixture(scope="session")
def example1_study(params):
    """Benchmark-1 convergence study on m = 4, 8, 16 with full reports."""
    return run_study(1, params, (4, 8, 16), ScfConfig(), return_reports=True)


@pytest.fixture(scope="session")
def example2_study(params):
    """Benchmark-2 convergence study on m = 4, 8, 16 with full reports."""
    return run_study(2, params, (4, 8, 16), ScfConfig(), return_reports=True)


def per_electron(p):
    """The model ``p`` divided by its electron count: f0/N0, N0 = 1.

    For Boltzmann and Fermi-Dirac weights alike, f0/N0 sum F = 1 holds
    at the level where f0 sum F = N0 does, so this keeps the Fermi
    level, the truncation window and the kept levels, and divides every
    occupation (hence the density) by N0;
    ``test_per_electron_scaling_identity`` pins that.  It is not
    f0 = 1, N0 = 1, which lowers the Fermi level.
    """
    return DistributionParams(p.kind, f0=p.f0 / p.N0, mu=p.mu, N0=1.0)


@pytest.fixture(scope="session")
def per_electron_params(params):
    """The ``params`` model per electron (``per_electron``)."""
    return per_electron(params)


@pytest.fixture(scope="session")
def example1_per_electron_study(per_electron_params):
    """Benchmark-1 study on m = 4, 8, 16 at the per-electron density."""
    return run_study(1, per_electron_params, (4, 8, 16), ScfConfig())


@pytest.fixture(scope="session")
def example2_per_electron_study(per_electron_params):
    """Benchmark-2 study on m = 4, 8, 16 at the per-electron density."""
    return run_study(2, per_electron_params, (4, 8, 16), ScfConfig())


class Combination:
    """Weighted sum of field-like terms, evaluated per quadrature point."""

    def __init__(self, terms):
        self.terms = [(float(c), f) for c, f in terms]

    def element_values(self, mesh, rule, slabs=None):
        return sum(c * f.element_values(mesh, rule, slabs)
                   for c, f in self.terms)


def by_blocks(mesh, rule, local):
    """The rows ``local(slabs)`` of every slab block of ``fem.slab_blocks``,
    stacked in element order."""
    return np.concatenate([local(slabs)
                           for slabs in fem.slab_blocks(mesh, rule)])


def sine_product():
    """sin(pi x) sin(pi y) sin(pi z) with its analytic gradient."""

    def f(p):
        return np.sin(PI * p[..., 0]) * np.sin(PI * p[..., 1]) \
            * np.sin(PI * p[..., 2])

    def grad(p):
        sx, sy, sz = (np.sin(PI * p[..., d]) for d in range(3))
        cx, cy, cz = (np.cos(PI * p[..., d]) for d in range(3))
        return PI * np.stack([cx * sy * sz, sx * cy * sz, sx * sy * cz],
                             axis=-1)

    return ScalarFunction(f, grad=grad)
