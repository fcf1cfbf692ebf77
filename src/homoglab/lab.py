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


def _subdomain_masks(mesh: Mesh, k_rect):
    """Cells with Y^i_eps inside Omega \\ K, by lattice arithmetic."""
    eps = mesh.eps
    n = mesh.meta.get("n", int(round(1.0 / eps)))
    ok_cells = set()
    for iy in range(n):
        for ix in range(n):
            x0, y0 = eps * ix, eps * iy
            x1, y1 = eps * (ix + 1), eps * (iy + 1)
            kx0, ky0, kx1, ky1 = k_rect
            overlaps_k = not (x1 <= kx0 or x0 >= kx1 or y1 <= ky0 or y0 >= ky1)
            if not overlaps_k:
                ok_cells.add((ix, iy))
    tri_mask = np.array([(int(cx), int(cy)) in ok_cells
                         for cx, cy in mesh.tri_cell])
    edge_mask = np.array([kind == geometry.HOLE_BDRY and (int(cx), int(cy)) in ok_cells
                          for kind, (cx, cy) in zip(mesh.edge_kind, mesh.edge_cell)])
    return ok_cells, tri_mask, edge_mask


def check_volsup(bundle: DiscreteOperatorBundle, sol: CellSolution,
                 k_rect, n_samples: int, seed: int) -> LabRow:
    """|C*/eps int w^2 - int_Sigma w^2| <= c int |grad w|^2 over Omega_eps^K."""
    mesh = bundle.mesh
    eps = mesh.eps
    ok_cells, tri_mask, edge_mask = _subdomain_masks(mesh, k_rect)
    if not ok_cells:
        raise ConfigError("Omega_eps^K is empty: K covers every cell")

    sub = Mesh(
        nodes=mesh.nodes, triangles=mesh.triangles[tri_mask],
        tri_region=np.zeros(int(tri_mask.sum()), dtype=np.int64),
        tri_cell=mesh.tri_cell[tri_mask],
        boundary_edges=mesh.boundary_edges[edge_mask],
        edge_kind=np.full(int(edge_mask.sum()), geometry.HOLE_BDRY, dtype=np.int64),
        edge_cell=mesh.edge_cell[edge_mask],
        eps=eps,
    )
    M_sub = bundle.red.P.T @ fem.assemble_mass(sub) @ bundle.red.P
    S_sub = bundle.red.P.T @ fem.assemble_stiffness(sub) @ bundle.red.P
    R_sub = bundle.red.P.T @ fem.assemble_robin_mass(sub, k_rect=None) @ bundle.red.P

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
                       u_fn, v_fn, norm_mesh: Mesh | None = None) -> LabRow:
    """|int chi^1(x/eps) u v| / (eps ||u||_H1 ||v||_H1) by centroid quadrature."""
    mesh = bundle.mesh
    eps = mesh.eps
    fl = mesh.fluid_triangles()
    tris = mesh.triangles[fl]
    areas = mesh.areas()[fl]
    centroids = mesh.nodes[tris].mean(axis=1)
    chi_val, _ = eval_chi(sol, sol.mesh, centroids, eps)
    fu = np.array([u_fn(c) for c in centroids])
    fv = np.array([v_fn(c) for c in centroids])
    total = float(np.sum(areas * chi_val[:, 0] * fu * fv))

    nm = norm_mesh if norm_mesh is not None else mesh.meta["full_mesh"]
    S = fem.assemble_stiffness(nm)
    M = fem.assemble_mass(nm)
    uu = np.array([u_fn(p) for p in nm.nodes])
    vv = np.array([v_fn(p) for p in nm.nodes])
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
        sub = Mesh(
            nodes=a_mesh.nodes, triangles=tris[strip],
            tri_region=np.zeros(int(strip.sum()), dtype=np.int64),
            tri_cell=a_mesh.tri_cell[fl][strip],
            boundary_edges=np.empty((0, 2), dtype=np.int64),
            edge_kind=np.empty(0, dtype=np.int64),
            edge_cell=np.empty((0, 2), dtype=np.int64),
        )
        M = fem.assemble_mass(sub)
        S = fem.assemble_stiffness(sub)
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
