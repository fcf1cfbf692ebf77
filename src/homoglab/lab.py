"""Randomized desk-scale stress tests of the quantitative boundary and
oscillation lemmas; reports worst-case ratios, never proofs."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import fem, geometry
from .cell import CellSolution, eval_chi
from .errors import ConfigError
from .geometry import Mesh
from .spectral import DiscreteOperatorBundle, PERFORATED


@dataclass
class LabRow:
    """One check at one eps: the worst observed ratio over the sample set."""

    check: str
    eps: float
    worst_ratio: float
    samples: int
    skipped: int
    seed: int
    passed: bool

    def as_dict(self):
        return asdict(self)


def _random_fields(bundle: DiscreteOperatorBundle, n_samples: int, seed: int) -> np.ndarray:
    """Standard-normal nodal coefficients on the reduced (Dirichlet-free) DoFs."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_samples, bundle.red.dim))


def check_trace(bundle: DiscreteOperatorBundle, n_samples: int, seed: int) -> LabRow:
    """ratio = int_{Sigma_eps} u^2 / (eps^-1 int u^2 + eps int |grad u|^2)."""
    eps = bundle.mesh.eps
    R_all = fem.assemble_robin_mass(bundle.mesh, k_rect=None)
    R_all = (bundle.red.P.T @ R_all @ bundle.red.P).tocsr()
    worst = 0.0
    skipped = 0
    for u in _random_fields(bundle, n_samples, seed):
        num = float(u @ (R_all @ u))
        den = float(u @ (bundle.M @ u)) / eps + eps * float(u @ (bundle.S @ u))
        if den == 0.0:
            skipped += 1
            continue
        worst = max(worst, num / den)
    return LabRow("trace", eps, float(worst), n_samples, skipped, seed,
                  passed=bool(np.isfinite(worst)))


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
                 k_rect, n_samples: int, seed: int) -> LabRow:
    """|C*/eps int w^2 - int_Sigma w^2| <= c int |grad w|^2 over Omega_eps^K."""
    mesh = bundle.mesh
    eps = mesh.eps
    tris, edges = _volsup_support(mesh, k_rect)
    if len(tris) == 0:
        raise ConfigError("Omega_eps^K is empty: K covers every cell")

    P = bundle.red.P
    M_sub = P.T @ fem.assemble_mass(mesh, tris=tris) @ P
    S_sub = P.T @ fem.assemble_stiffness(mesh, tris=tris) @ P
    R_sub = P.T @ fem.assemble_robin_mass(mesh, k_rect=None, edges=edges) @ P

    c_star = sol.c_star
    worst = 0.0
    skipped = 0
    for w in _random_fields(bundle, n_samples, seed):
        rhs = float(w @ (S_sub @ w))
        if rhs == 0.0:
            skipped += 1
            continue
        lhs = abs(c_star / eps * float(w @ (M_sub @ w)) - float(w @ (R_sub @ w)))
        worst = max(worst, lhs / rhs)
    return LabRow("volsup", eps, float(worst), n_samples, skipped, seed,
                  passed=bool(np.isfinite(worst)))


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
    return LabRow("periodic_osc", eps, float(ratio), 1, 0, 0,
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
    return LabRow("strip_poincare", 0.0, float(worst), len(list(delta_list)),
                  skipped, 0, passed=bool(np.isfinite(worst)))


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
    return LabRow("eigen_bounds", min(eps_sorted), float(max(lam1)),
                  len(eps_sorted), 0, 0, passed=bool(passed))


def check_norm_equivalence(bundle: DiscreteOperatorBundle, n_samples: int,
                           seed: int) -> LabRow:
    """Empirical ||u||_eps / ||u||_H_eps ratio; reported, never asserted."""
    worst = 0.0
    skipped = 0
    for u in _random_fields(bundle, n_samples, seed):
        h = float(u @ (bundle.S @ u))
        if h == 0.0:
            skipped += 1
            continue
        e = h + (float(u @ (bundle.R @ u)) if bundle.R is not None else 0.0)
        worst = max(worst, float(np.sqrt(e / h)))
    return LabRow("norm_equivalence", bundle.mesh.eps, worst, n_samples, skipped,
                  seed, passed=True)
