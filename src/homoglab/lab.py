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

_UPPER_SLACK = 1.05  # lambda^1_eps / alpha^1 allowed at the two smallest eps


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
    the largest theta of R_all u = theta (M/eps + eps S) u, over the bundle's
    sectors when R_all commutes with the quarter turn, and with it
    M/eps + eps (A - R), so one sector's LU of it is alive at a time."""
    eps = bundle.mesh.eps
    R_all = bundle.red.project(fem.assemble_robin_mass(bundle.mesh, k_rect=None))
    B = bundle.M / eps + eps * bundle.S
    theta = extreme_eigenvalues(R_all, B, "LA", sectors=bundle.sectors_of(B, R_all))[-1]
    return LabRow("trace", eps, float(theta), 0, passed=bool(np.isfinite(theta)))


def _cells_outside_k(eps: float, cells: np.ndarray, k_rect) -> np.ndarray:
    """True where the cell square eps * (c + [0,1]^2) of each row c of the
    (P, 2) lattice indices `cells` misses the open K."""
    kx0, ky0, kx1, ky1 = k_rect
    cx, cy = cells.T
    return ((eps * (cx + 1) <= kx0) | (eps * cx >= kx1)
            | (eps * (cy + 1) <= ky0) | (eps * cy >= ky1))


def require_cells_outside_k(eps: float, k_rect):
    """ConfigError unless some cell of the 1/eps x 1/eps lattice misses the
    open K: Omega_eps^K, the domain of `check_volsup`, is empty otherwise."""
    cells = np.indices((round(1.0 / eps),) * 2).reshape(2, -1).T
    if not _cells_outside_k(eps, cells, k_rect).any():
        raise ConfigError(f"Omega_eps^K is empty at eps={eps}: K covers every cell")


def _volsup_support(mesh: Mesh, k_rect):
    """FLUID triangle and HOLE_BDRY edge indices of Omega_eps^K: the cells
    whose Y^i_eps lies in Omega \\ K."""
    tris = mesh.fluid_triangles()
    edges = np.nonzero(mesh.edge_kind == geometry.HOLE_BDRY)[0]
    tri_cells, edge_cells = (mesh.cells(mesh.nodes[ends].mean(axis=1))
                             for ends in (mesh.triangles[tris], mesh.boundary_edges[edges]))
    return (tris[_cells_outside_k(mesh.eps, tri_cells, k_rect)],
            edges[_cells_outside_k(mesh.eps, edge_cells, k_rect)])


def check_volsup(bundle: DiscreteOperatorBundle, sol: CellSolution,
                 k_rect) -> LabRow:
    """Sharp c in |C*/eps int w^2 - int_Sigma w^2| <= c int |grad w|^2 over
    Omega_eps^K: the largest |theta| of (C*/eps M - R) w = theta S w on the
    reduced DoFs its triangles touch, all three eliminated at once."""
    mesh = bundle.mesh
    eps = mesh.eps
    require_cells_outside_k(eps, k_rect)
    tris, edges = _volsup_support(mesh, k_rect)

    touched = np.zeros(mesh.n_nodes, dtype=bool)
    touched[mesh.triangles[tris]] = True
    sub = fem.apply_constraints(
        fem.assemble_stiffness(mesh, tris=tris), fem.assemble_mass(mesh, tris=tris),
        fem.assemble_robin_mass(mesh, k_rect=None, edges=edges),
        fem.dof_map(mesh.n_nodes, ~(touched & (bundle.red.dof >= 0))))
    theta = extreme_eigenvalues(sol.c_star / eps * sub.M - sub.R, sub.A, "BE", k=2)
    worst = float(np.abs(theta).max())
    return LabRow("volsup", eps, worst, 0, passed=bool(np.isfinite(worst)))


def check_periodic_osc(sol: CellSolution, bundle: DiscreteOperatorBundle,
                       u_fn, v_fn) -> LabRow:
    """|int chi^1(x/eps) u v| / (eps ||u||_H1 ||v||_H1) by centroid quadrature.

    u_fn and v_fn map points (P, 2) to values (P,) and vanish on the outer
    boundary; the H1 norms over Omega_eps come from the bundle's S and M at
    the nodes of the reduced DoFs.
    """
    mesh = bundle.mesh
    eps = mesh.eps
    fl = mesh.fluid_triangles()
    tris = mesh.triangles[fl]
    areas = mesh.areas()[fl]
    centroids = mesh.nodes[tris].mean(axis=1)
    chi_val = eval_chi(sol, mesh, fl, centroids=True)
    total = float(np.sum(areas * chi_val[:, 0] * u_fn(centroids) * v_fn(centroids)))

    dof_nodes = mesh.nodes[bundle.red.keep]
    S = bundle.S  # A - R, made on each access
    nu, nv = (np.sqrt(float(w @ (S @ w)) + float(w @ (bundle.M @ w)))
              for w in (u_fn(dof_nodes), v_fn(dof_nodes)))
    if nu == 0.0 or nv == 0.0:
        ratio = 0.0
    else:
        ratio = abs(total) / (eps * nu * nv)
    return LabRow("periodic_osc", eps, float(ratio), 0,
                  passed=bool(np.isfinite(ratio)))


def check_strip_poincare(a_mesh: Mesh, u: np.ndarray, delta_list) -> LabRow:
    """int_{A \\ A^delta} u^2 <= C delta^2 int_{A \\ A^delta} |grad u|^2."""
    fl = a_mesh.fluid_triangles()
    tris = a_mesh.triangles[fl]
    centroids = a_mesh.nodes[tris].mean(axis=1)
    dists = geometry.rect_distance(a_mesh.bounds(), centroids)
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


def check_eigen_bounds(sweep: dict, dirichlet_eigenvalues: np.ndarray) -> LabRow:
    """c <= lambda^j_eps <= c_j, plus the desk-scale upper-bound lemma check;
    `sweep` maps each eps to its perforated eigenvalues."""
    if len(sweep) < 2:
        raise ConfigError("eigen-bounds check needs at least two eps values")
    eps_sorted = sorted(sweep, reverse=True)
    lam1 = [sweep[e][0] for e in eps_sorted]
    all_finite = all(np.isfinite(sweep[e]).all() for e in eps_sorted)
    alpha1 = float(dirichlet_eigenvalues[0])
    upper_ok = all(sweep[e][0] <= _UPPER_SLACK * alpha1 for e in eps_sorted[-2:])
    passed = min(lam1) > 0.0 and all_finite and upper_ok
    return LabRow("eigen_bounds", min(eps_sorted), float(max(lam1)), 0,
                  passed=bool(passed))


def check_norm_equivalence(bundle: DiscreteOperatorBundle, sectors=None) -> LabRow:
    """Sharp c in ||u||_eps <= c ||u||_H_eps, reported, never asserted: with
    t the largest eigenvalue of R u = t (S + R) u, over `sectors`, by
    default all the bundle's, through their LUs of S + R (the bundle's
    `red.A`, so no full-size matrix is made under a sector's LU),
    c = sqrt(1 / (1 - t)) = sqrt(1 + theta_max(R, S)).  Over some of the
    bundle's sectors it is the sharp c in their span, and c is the largest
    of the sectors' (c grows with t), so a study runs the check in each
    sector while the eigensolve's LU of it is alive."""
    t = extreme_eigenvalues(bundle.R, bundle.red.A, "LA",
                            sectors=sectors or bundle.sectors)[-1]
    return LabRow("norm_equivalence", bundle.mesh.eps, float(np.sqrt(1.0 / (1.0 - t))),
                  0, passed=True)
