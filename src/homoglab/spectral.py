"""The three eigenproblems (perforated Neumann-Robin, homogenized Dirichlet,
plain Dirichlet Laplacian), the source operator K_eps and the extension T_eps."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import fem, geometry
from .eigensolve import factorized_solver, solve_gevp, solve_source
from .errors import SolverError
from .geometry import DomainConfig, Mesh


@dataclass
class DiscreteOperatorBundle:
    """Reduced matrices, constraint bookkeeping and the one LU of A; only a
    perforated bundle carries the Robin mass R."""

    mesh: Mesh
    red: fem.ReducedSystem

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
        """The bilinear-form matrix of the problem (S + R when perforated)."""
        if self.R is not None:
            return (self.red.S + self.red.R).tocsr()
        return self.red.S

    @functools.cached_property
    def solve(self):
        """`factorized_solver(A)`, made on first use."""
        return factorized_solver(self.A)

    @functools.cached_property
    def hole_extension(self):
        """(interior, boundary, S_ii, S_ib, LU solve of S_ii) for `extend_Teps`:
        the nodes off Omega_eps, the FLUID nodes of HOLE triangles and the
        blocks of the stiffness over the HOLE triangles; None without holes."""
        mesh = self.mesh
        hole_tris = np.nonzero(mesh.tri_region == geometry.HOLE)[0]
        if len(hole_tris) == 0:
            return None
        hole_nodes = np.unique(mesh.triangles[hole_tris])
        fluid = mesh.fluid_nodes()
        interior = np.nonzero(~fluid)[0]
        boundary = hole_nodes[fluid[hole_nodes]]
        Sh = fem.assemble_stiffness(mesh, tris=hole_tris)
        S_ii = Sh[interior][:, interior]
        return interior, boundary, S_ii, Sh[interior][:, boundary], factorized_solver(S_ii)


def build_perforated_bundle(cfg: DomainConfig) -> DiscreteOperatorBundle:
    """Tile Omega, assemble S, M, R over its FLUID triangles (Omega_eps) and
    eliminate the outer Dirichlet nodes and the nodes off Omega_eps."""
    mesh = geometry.build_perforated_mesh(cfg)
    S = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    R = fem.assemble_robin_mass(mesh, cfg.k_rect)
    fixed = ~mesh.fluid_nodes()
    fixed[mesh.outer_nodes()] = True
    red = fem.apply_constraints(S, M, R, fem.dof_map(mesh.n_nodes, fixed))
    return DiscreteOperatorBundle(mesh=mesh, red=red)


def solve_perforated_evp(cfg: DomainConfig, k: int):
    """k smallest eigenpairs of (S+R) u = lambda M u on Omega_eps.

    Eigenfunctions come back L2(Omega_eps)-orthonormal on the reduced DoFs.
    """
    bundle = build_perforated_bundle(cfg)
    spec = solve_gevp(bundle.A, bundle.M, k, solve=bundle.solve)
    return spec, bundle


def _dirichlet_bundle(a_mesh: Mesh, coeff=None):
    S = fem.assemble_stiffness(a_mesh, coeff=coeff)
    M = fem.assemble_mass(a_mesh)
    red = fem.apply_constraints(S, M, None,
                                fem.dof_map(a_mesh.n_nodes, a_mesh.outer_nodes()))
    return DiscreteOperatorBundle(mesh=a_mesh, red=red)


def solve_homogenized_evp(a_mesh: Mesh, a_hom: np.ndarray, cell_area: float, k: int):
    """Eigenpairs of -div(a_hom grad u) = |Y| lambda u on A with u = 0 on dA.

    Reported eigenvalues are mu/|Y|; eigenfunctions are rescaled so that
    int_A |u|^2 = 1/|Y|.
    """
    vals = np.linalg.eigvalsh(np.asarray(a_hom, dtype=float))
    if vals.min() <= 0.0:
        raise SolverError(f"a_hom is not positive definite: eigenvalues {vals}")
    bundle = _dirichlet_bundle(a_mesh, coeff=a_hom)
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
    if bundle.R is None:
        raise SolverError("apply_Keps needs a perforated bundle")
    return solve_source(bundle.A, bundle.M @ np.asarray(f, dtype=float),
                        solve=bundle.solve)


def extend_Teps(bundle: DiscreteOperatorBundle, u: np.ndarray) -> np.ndarray:
    """Discrete harmonic extension of a perforated field into the holes.

    Returns the field on every node of the tiled mesh: unchanged on the nodes
    of Omega_eps, the nodes off Omega_eps filled by solving the Laplace
    equation per hole with the hole-boundary trace as Dirichlet data.
    """
    if bundle.R is None:
        raise SolverError("extend_Teps needs a perforated bundle")
    out = bundle.red.expand(np.asarray(u, dtype=float))
    if bundle.hole_extension is None:
        return out
    interior, boundary, S_ii, S_ib, solve = bundle.hole_extension
    out[interior] = solve_source(S_ii, -(S_ib @ out[boundary]), solve=solve)
    return out

