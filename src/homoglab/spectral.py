"""The three eigenproblems (perforated Neumann-Robin, homogenized Dirichlet,
plain Dirichlet Laplacian), the source operator K_eps and the extension T_eps."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

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
    fixed = ~mesh.fluid_nodes()
    fixed[mesh.outer_nodes()] = True
    red = fem.apply_constraints(S, M, R, fem.dof_map(mesh.n_nodes, fixed))
    return DiscreteOperatorBundle(mesh=mesh, red=red, tag=PERFORATED,
                                  meta={"cfg": cfg})


def solve_perforated_evp(cfg: DomainConfig, k: int,
                         cell_mesh: Mesh | None = None,
                         bundle: DiscreteOperatorBundle | None = None):
    """k smallest eigenpairs of (S+R) u = lambda M u on Omega_eps.

    Eigenfunctions come back L2(Omega_eps)-orthonormal on the reduced DoFs.
    """
    if bundle is None:
        bundle = build_perforated_bundle(cfg, cell_mesh)
    spec = solve_gevp(bundle.A, bundle.M, k, solve=bundle.solve)
    return spec, bundle


def _dirichlet_bundle(a_mesh: Mesh, coeff=None, tag: str = DIRICHLET_LAPLACIAN):
    S = fem.assemble_stiffness(a_mesh, coeff=coeff)
    M = fem.assemble_mass(a_mesh)
    red = fem.apply_constraints(S, M, None,
                                fem.dof_map(a_mesh.n_nodes, a_mesh.outer_nodes()))
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
    return spec, bundle


def solve_dirichlet_laplacian(a_mesh: Mesh, k: int):
    """Plain Dirichlet Laplacian eigenpairs alpha^j on A."""
    bundle = _dirichlet_bundle(a_mesh)
    spec = solve_gevp(bundle.A, bundle.M, k, solve=bundle.solve)
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
        S_ii = Sh[interior][:, interior]
        S_ib = Sh[interior][:, boundary]
        cached = (interior, boundary, S_ii, S_ib, factorized_solver(S_ii))
        bundle.meta["hole_extension"] = cached
    interior, boundary, S_ii, S_ib, solve = cached
    out[interior] = solve_source(S_ii, -(S_ib @ out[boundary]), solve=solve)
    return out

