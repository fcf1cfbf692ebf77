"""Desk-scale checks of the quantitative lemmas: sharp discrete constants
(extreme pencil eigenvalues) for trace, surface averaging and norm
equivalence, ratios on fixed fields for the rest; never proofs."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import fem, geometry
from .cell import CellSolution, eval_chi
from .eigensolve import extreme_eigenvalues
from .errors import ConfigError
from .geometry import Mesh
from .spectral import DiscreteOperatorBundle


@dataclass
class LabRow:
    """One check at one eps: the largest ratio of its lemma."""

    check: str
    eps: float
    worst_ratio: float
    skipped: int
    passed: bool

    def as_dict(self):
        return asdict(self)


def check_trace(bundle: DiscreteOperatorBundle) -> LabRow:
    """Sharp c in int_{Sigma_eps} u^2 <= c (eps^-1 int u^2 + eps int |grad u|^2):
    the largest theta of R_all u = theta (M/eps + eps S) u."""
    eps = bundle.mesh.eps
    R_all = bundle.red.project(fem.assemble_robin_mass(bundle.mesh, k_rect=None))
    B = bundle.M / eps + eps * bundle.S
    theta = extreme_eigenvalues(R_all, B, "LA")[-1]
    return LabRow("trace", eps, float(theta), 0, passed=bool(np.isfinite(theta)))


def _cells_outside_k(cells: np.ndarray, eps: float, k_rect) -> np.ndarray:
    """True where the cell square eps * (c + [0,1]^2) misses the open K."""
    kx0, ky0, kx1, ky1 = k_rect
    cx, cy = cells[:, 0], cells[:, 1]
    return ((eps * (cx + 1) <= kx0) | (eps * cx >= kx1)
            | (eps * (cy + 1) <= ky0) | (eps * cy >= ky1))


def _volsup_support(mesh: Mesh, k_rect):
    """FLUID triangle and HOLE_BDRY edge indices of Omega_eps^K: the cells
    whose Y^i_eps lies in Omega \\ K."""
    tris = np.nonzero((mesh.tri_region == geometry.FLUID)
                      & _cells_outside_k(mesh.tri_cell, mesh.eps, k_rect))[0]
    edges = np.nonzero((mesh.edge_kind == geometry.HOLE_BDRY)
                       & _cells_outside_k(mesh.edge_cell, mesh.eps, k_rect))[0]
    return tris, edges


def check_volsup(bundle: DiscreteOperatorBundle, sol: CellSolution,
                 k_rect) -> LabRow:
    """Sharp c in |C*/eps int w^2 - int_Sigma w^2| <= c int |grad w|^2 over
    Omega_eps^K: the largest |theta| of (C*/eps M - R) w = theta S w on the
    DoFs the subdomain touches."""
    mesh = bundle.mesh
    eps = mesh.eps
    tris, edges = _volsup_support(mesh, k_rect)
    if len(tris) == 0:
        raise ConfigError("Omega_eps^K is empty: K covers every cell")

    red = bundle.red
    M_sub = red.project(fem.assemble_mass(mesh, tris=tris))
    S_sub = red.project(fem.assemble_stiffness(mesh, tris=tris))
    R_sub = red.project(fem.assemble_robin_mass(mesh, k_rect=None, edges=edges))
    dofs = np.nonzero(S_sub.diagonal() > 0.0)[0]
    L = (sol.c_star / eps * M_sub - R_sub)[dofs][:, dofs]
    theta = extreme_eigenvalues(L, S_sub[dofs][:, dofs], "BE", k=2)
    worst = float(np.abs(theta).max())
    return LabRow("volsup", eps, worst, 0, passed=bool(np.isfinite(worst)))


def check_periodic_osc(sol: CellSolution, bundle: DiscreteOperatorBundle,
                       u_fn, v_fn) -> LabRow:
    """|int chi^1(x/eps) u v| / (eps ||u||_H1 ||v||_H1) by centroid quadrature.

    u_fn and v_fn map points (P, 2) to values (P,); the H1 norms are taken
    over Omega_eps, the FLUID triangles, from the nodal values on the mesh.
    """
    mesh = bundle.mesh
    eps = mesh.eps
    fl = mesh.fluid_triangles()
    tris = mesh.triangles[fl]
    areas = mesh.areas()[fl]
    centroids = mesh.nodes[tris].mean(axis=1)
    chi_val, _ = eval_chi(sol, sol.mesh, centroids, eps)
    total = float(np.sum(areas * chi_val[:, 0] * u_fn(centroids) * v_fn(centroids)))

    S = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    uu = u_fn(mesh.nodes)
    vv = v_fn(mesh.nodes)
    nu = np.sqrt(float(uu @ (S @ uu)) + float(uu @ (M @ uu)))
    nv = np.sqrt(float(vv @ (S @ vv)) + float(vv @ (M @ vv)))
    if nu == 0.0 or nv == 0.0:
        ratio = 0.0
    else:
        ratio = abs(total) / (eps * nu * nv)
    return LabRow("periodic_osc", eps, float(ratio), 0,
                  passed=bool(np.isfinite(ratio)))


def check_strip_poincare(a_mesh: Mesh, u: np.ndarray, delta_list) -> LabRow:
    """int_{A \\ A^delta} u^2 <= C delta^2 int_{A \\ A^delta} |grad u|^2."""
    rect = a_mesh.meta["rect"]
    fl = a_mesh.fluid_triangles()
    tris = a_mesh.triangles[fl]
    centroids = a_mesh.nodes[tris].mean(axis=1)
    dists = geometry.rect_distance(rect, centroids)
    worst = 0.0
    skipped = 0
    for delta in delta_list:
        strip = dists <= delta
        if not strip.any():
            skipped += 1
            continue
        M = fem.assemble_mass(a_mesh, tris=fl[strip])
        S = fem.assemble_stiffness(a_mesh, tris=fl[strip])
        den = delta * delta * float(u @ (S @ u))
        if den == 0.0:
            skipped += 1
            continue
        worst = max(worst, float(u @ (M @ u)) / den)
    return LabRow("strip_poincare", 0.0, float(worst), skipped,
                  passed=bool(np.isfinite(worst)))


def check_eigen_bounds(sweep: dict, homog_spec, dirichlet_spec,
                       upper_slack: float = 1.05) -> LabRow:
    """c <= lambda^j_eps <= c_j, plus the desk-scale upper-bound lemma check."""
    if len(sweep) < 2:
        raise ConfigError("eigen-bounds check needs at least two eps values")
    eps_sorted = sorted(sweep, reverse=True)
    lam1 = [sweep[e].eigenvalues[0] for e in eps_sorted]
    all_finite = all(np.isfinite(sweep[e].eigenvalues).all() for e in eps_sorted)
    alpha1 = float(dirichlet_spec.eigenvalues[0])
    upper_ok = all(sweep[e].eigenvalues[0] <= upper_slack * alpha1
                   for e in eps_sorted[-2:])
    passed = min(lam1) > 0.0 and all_finite and upper_ok
    return LabRow("eigen_bounds", min(eps_sorted), float(max(lam1)), 0,
                  passed=bool(passed))


def check_norm_equivalence(bundle: DiscreteOperatorBundle) -> LabRow:
    """Sharp c in ||u||_eps <= c ||u||_H_eps, reported, never asserted: with
    t the largest eigenvalue of R u = t (S + R) u, through the bundle's one LU
    of S + R, c = sqrt(1 / (1 - t)) = sqrt(1 + theta_max(R, S))."""
    t = extreme_eigenvalues(bundle.R, bundle.A, "LA", solve=bundle.solve)[-1]
    return LabRow("norm_equivalence", bundle.mesh.eps, float(np.sqrt(1.0 / (1.0 - t))),
                  0, passed=True)
