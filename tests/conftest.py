"""Shared fixtures: meshes and solves reused across the test modules."""

import os
import weakref

# pin thread counts before numpy is imported anywhere so the determinism
# tests see a single-threaded BLAS
os.environ.setdefault("HOMOGLAB_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
import scipy.sparse as sp

from homoglab import eigensolve, geometry, spectral
from homoglab.cell import solve_cell_problem
from homoglab.eigensolve import solve_gevp
from homoglab.harness import StudyConfig, run_study

K_RECT = (0.25, 0.25, 0.75, 0.75)

# verdict lines collected by the acceptance tests, replayed after the run so
# they are visible regardless of output capture
_ACCEPTANCE_LINES = []


def expansion_matrix(dof):
    """The expansion matrix P of a node -> DoF map, built by hand for the
    tests: a one in row i, column dof[i], wherever dof[i] >= 0."""
    dof = np.asarray(dof)
    nodes = np.nonzero(dof >= 0)[0]
    return sp.csr_matrix((np.ones(len(nodes)), (nodes, dof[nodes])),
                         shape=(len(dof), dof.max() + 1))


def tiled_tolerance(eps, h_ref):
    """Bound on |tiled - per-triangle| / (largest entry) for the stiffness
    and mass of a tiled mesh.  Per triangle, the P1 data come from the
    stored node coordinates; a node near 1 is the translate of its template
    node rounded by up to u, the machine epsilon, which moves entries by
    about u / (eps * h_ref) relative, triangle sides being about eps *
    h_ref.  The tiled assembly folds cell 0's matrix, an exact translate's.
    Measured: 1.3e-14 against this bound's 1.1e-13 at eps = 1/16, h_ref =
    1/8, and 1.7e-14 against 8.5e-14 at 1/6, 1/16."""
    return 4.0 * np.finfo(float).eps / (eps * h_ref)


class _LU:
    """A weakly referenceable stand-in for the solve of one LU."""

    def __init__(self, solve):
        self.solve = solve

    def __call__(self, x):
        return self.solve(x)


@pytest.fixture
def lus(monkeypatch):
    """Every LU made while the test runs, in order: its dimension, its dtype
    kind, how many earlier LUs were alive when it was made, and a weak
    reference that dies with it."""
    made = []
    real = eigensolve.factorized_solver

    def tracked(A):
        alive = sum(ref() is not None for *_, ref in made)
        lu = _LU(real(A))
        made.append((A.shape[0], A.dtype.kind, alive, weakref.ref(lu)))
        return lu

    monkeypatch.setattr(eigensolve, "factorized_solver", tracked)
    return made


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def template8():
    """Template cell mesh at the default study resolution."""
    return geometry.build_cell_mesh(0.25, 32, 1.0 / 8.0)


@pytest.fixture(scope="session")
def cell_sol8(template8):
    return solve_cell_problem(template8)


@pytest.fixture(scope="session")
def template32():
    """Fine template, matching the resolution the study uses for a_hom."""
    return geometry.build_cell_mesh(0.25, 32, 1.0 / 32.0)


@pytest.fixture(scope="session")
def cell_sol32(template32):
    return solve_cell_problem(template32)


@pytest.fixture(scope="session")
def bundle_quarter():
    cfg = geometry.DomainConfig(eps=0.25, hole_radius=0.25, hole_poly=32,
                                k_rect=K_RECT, h_ref=1.0 / 8.0)
    return spectral.build_perforated_bundle(cfg)


@pytest.fixture(scope="session")
def spec_quarter(bundle_quarter):
    b = bundle_quarter
    return solve_gevp(b.A, b.M, 4, sectors=b.sectors)


@pytest.fixture(scope="session")
def a_mesh32():
    """Macro mesh on A = [0.25, 0.75]^2 at h = side/32."""
    return geometry.build_domain_mesh(K_RECT, 0.5 / 32.0)


@pytest.fixture(scope="session")
def dirichlet32(a_mesh32):
    """Dirichlet Laplacian eigenpairs on A and the bundle they live on."""
    return spectral.solve_dirichlet_laplacian(a_mesh32, 4)


@pytest.fixture(scope="session")
def dirichlet_spec32(dirichlet32):
    return dirichlet32[0]


@pytest.fixture(scope="session")
def dirichlet_modes32(dirichlet32):
    """The four eigenvectors as nodal fields on a_mesh32, one per row."""
    spec, bundle = dirichlet32
    return bundle.red.expand(spec.eigenvectors).T


@pytest.fixture(scope="session")
def study_report():
    """The default sweep, shared by the acceptance tests."""
    return run_study(StudyConfig())


@pytest.fixture(scope="session")
def study_report_repeat():
    """Second independent run of the same sweep, for determinism checks."""
    return run_study(StudyConfig())
