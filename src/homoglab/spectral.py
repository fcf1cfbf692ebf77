"""The three eigenproblems (perforated Neumann-Robin, homogenized Dirichlet,
plain Dirichlet Laplacian), the source operator K_eps and the extension T_eps."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import fem, geometry
from .eigensolve import Spectrum, factorized_solver, solve_gevp, solve_source
from .errors import SolverError
from .geometry import DomainConfig, Mesh

PERFORATED = "PERFORATED"
HOMOGENIZED = "HOMOGENIZED"
DIRICHLET_LAPLACIAN = "DIRICHLET_LAPLACIAN"


@dataclass
class DiscreteOperatorBundle:
    """Reduced matrices, constraint bookkeeping and the one LU of A."""

    mesh: Mesh
    red: fem.ReducedSystem
    tag: str
    k_rect: tuple | None = None
    meta: dict = field(default_factory=dict)

    @property
    def S(self):
        return self.red.S

    @property
    def M(self):
        return self.red.M

    @property
    def R(self):
        return self.red.R

    @functools.cached_property
    def A(self):
        """The bilinear-form matrix of the problem (S + R for PERFORATED)."""
        if self.R is not None:
            return (self.red.S + self.red.R).tocsr()
        return self.red.S

    @functools.cached_property
    def solve(self):
        """`factorized_solver(A)`, made on first use."""
        return factorized_solver(self.A)


def build_perforated_bundle(cfg: DomainConfig, cell_mesh: Mesh | None = None) -> DiscreteOperatorBundle:
    """Tile Omega, assemble S, M, R over its FLUID triangles (Omega_eps) and
    eliminate the outer Dirichlet nodes and the nodes off Omega_eps."""
    if cell_mesh is None:
        cell_mesh = geometry.build_cell_mesh(cfg.hole_radius, cfg.hole_poly, cfg.h_ref)
    mesh = geometry.build_perforated_mesh(cfg, cell_mesh)
    S = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    R = fem.assemble_robin_mass(mesh, cfg.k_rect)
    fixed = np.union1d(mesh.outer_nodes(), np.nonzero(~mesh.fluid_nodes())[0])
    cmap = fem.ConstraintMap(kind=fem.DIRICHLET, dirichlet=fixed)
    red = fem.apply_constraints(S, M, R, cmap, n_nodes=mesh.n_nodes)
    return DiscreteOperatorBundle(mesh=mesh, red=red, tag=PERFORATED,
                                  k_rect=cfg.k_rect,
                                  meta={"cfg": cfg, "cell_mesh": cell_mesh})


def solve_perforated_evp(cfg: DomainConfig, k: int,
                         cell_mesh: Mesh | None = None,
                         bundle: DiscreteOperatorBundle | None = None):
    """k smallest eigenpairs of (S+R) u = lambda M u on Omega_eps.

    Eigenfunctions come back L2(Omega_eps)-orthonormal on the reduced DoFs.
    """
    if bundle is None:
        bundle = build_perforated_bundle(cfg, cell_mesh)
    spec = solve_gevp(bundle.A, bundle.M, k, solve=bundle.solve)
    spec.meta["problem"] = PERFORATED
    spec.meta["eps"] = cfg.eps
    return spec, bundle


def _dirichlet_bundle(a_mesh: Mesh, coeff=None, tag: str = DIRICHLET_LAPLACIAN):
    S = fem.assemble_stiffness(a_mesh, coeff=coeff)
    M = fem.assemble_mass(a_mesh)
    cmap = fem.ConstraintMap(kind=fem.DIRICHLET, dirichlet=a_mesh.outer_nodes())
    red = fem.apply_constraints(S, M, None, cmap, n_nodes=a_mesh.n_nodes)
    return DiscreteOperatorBundle(mesh=a_mesh, red=red, tag=tag)


def solve_homogenized_evp(a_mesh: Mesh, a_hom: np.ndarray, cell_area: float, k: int):
    """Eigenpairs of -div(a_hom grad u) = |Y| lambda u on A with u = 0 on dA.

    Reported eigenvalues are mu/|Y|; eigenfunctions are rescaled so that
    int_A |u|^2 = 1/|Y|.
    """
    vals = np.linalg.eigvalsh(np.asarray(a_hom, dtype=float))
    if vals.min() <= 0.0:
        raise SolverError(f"a_hom is not positive definite: eigenvalues {vals}")
    bundle = _dirichlet_bundle(a_mesh, coeff=a_hom, tag=HOMOGENIZED)
    spec = solve_gevp(bundle.A, bundle.M, k, solve=bundle.solve)
    spec.eigenvalues = spec.eigenvalues / cell_area
    spec.eigenvectors = spec.eigenvectors / np.sqrt(cell_area)
    spec.meta["problem"] = HOMOGENIZED
    spec.meta["cell_area"] = cell_area
    return spec, bundle


def solve_dirichlet_laplacian(a_mesh: Mesh, k: int):
    """Plain Dirichlet Laplacian eigenpairs alpha^j on A."""
    bundle = _dirichlet_bundle(a_mesh)
    spec = solve_gevp(bundle.A, bundle.M, k, solve=bundle.solve)
    spec.meta["problem"] = DIRICHLET_LAPLACIAN
    return spec, bundle


def apply_Keps(bundle: DiscreteOperatorBundle, f: np.ndarray) -> np.ndarray:
    """Discrete source operator: solve (S+R) u = M f on the reduced DoFs."""
    if bundle.tag != PERFORATED:
        raise SolverError("apply_Keps needs a PERFORATED bundle")
    return solve_source(bundle.A, bundle.M @ np.asarray(f, dtype=float),
                        solve=bundle.solve)


def rayleigh_quotient(bundle: DiscreteOperatorBundle, u: np.ndarray) -> float:
    """(u'(S+R)u) / (u'Mu)."""
    u = np.asarray(u, dtype=float)
    den = float(u @ (bundle.M @ u))
    if den == 0.0:
        raise SolverError("Rayleigh quotient of a zero field")
    return float(u @ (bundle.A @ u)) / den


def extend_Teps(bundle: DiscreteOperatorBundle, u: np.ndarray) -> np.ndarray:
    """Discrete harmonic extension of a perforated field into the holes.

    Returns the field on every node of the tiled mesh: unchanged on the nodes
    of Omega_eps, the nodes off Omega_eps filled by solving the Laplace
    equation per hole with the hole-boundary trace as Dirichlet data.
    """
    if bundle.tag != PERFORATED:
        raise SolverError("extend_Teps needs a PERFORATED bundle")
    mesh = bundle.mesh
    out = bundle.red.expand(np.asarray(u, dtype=float))
    hole_tris = np.nonzero(mesh.tri_region == geometry.HOLE)[0]
    if len(hole_tris) == 0:
        return out
    cached = bundle.meta.get("hole_extension")
    if cached is None:
        in_hole_tri = np.zeros(mesh.n_nodes, dtype=bool)
        in_hole_tri[mesh.triangles[hole_tris].ravel()] = True
        fluid = mesh.fluid_nodes()
        interior = np.nonzero(~fluid)[0]
        boundary = np.nonzero(in_hole_tri & fluid)[0]

        Sh = fem.assemble_stiffness(mesh, tris=hole_tris)
        S_ii = sp.csc_matrix(Sh[interior][:, interior])
        S_ib = Sh[interior][:, boundary]
        cached = (interior, boundary, S_ii, S_ib)
        bundle.meta["hole_extension"] = cached
    interior, boundary, S_ii, S_ib = cached
    out[interior] = solve_source(S_ii, -(S_ib @ out[boundary]))
    return out

