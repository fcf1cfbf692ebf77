"""Periodic cell problem: corrector chi, effective tensor a_hom and f_hom."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem, geometry
from .eigensolve import solve_source
from .errors import GeometryError
from .geometry import Mesh


@dataclass
class CellSolution:
    """Corrector fields chi^1, chi^2 on the template nodes (mean zero over Y),
    the effective tensor and the cell constants."""

    chi: np.ndarray               # (n_nodes, 2), column i is chi^i
    a_hom: np.ndarray             # 2x2
    cell_area: float              # |Y|
    hole_perimeter: float         # |Sigma^0|
    mesh: Mesh = field(repr=False, default=None)

    @property
    def c_star(self) -> float:
        return self.hole_perimeter / self.cell_area


def solve_cell_problem(cell_mesh: Mesh) -> CellSolution:
    """Solve int_Y (e_i + grad chi^i) . grad v = 0 over periodic v, both i.

    One node->DoF map folds the periodic faces, fixes the hole-interior nodes
    (they touch no FLUID triangle) and pins the first remaining DoF for
    uniqueness; the Y-mean is removed afterwards so int_Y chi^i = 0 holds
    exactly up to quadrature roundoff.  |Sigma^0| is the length of the
    HOLE_BDRY edges, the boundary the Robin mass integrates over.
    """
    dof = fem.dof_map(cell_mesh.n_nodes, ~cell_mesh.fluid_nodes(),
                      fold=fem.periodic_fold(cell_mesh))
    S = fem.assemble_stiffness(cell_mesh)
    M = fem.assemble_mass(cell_mesh)
    red = fem.apply_constraints(S, M, None, np.maximum(dof - 1, -1))  # pin DoF 0

    # load: b_v = -int_Y e_i . grad(phi_v), assembled over fluid triangles
    tris, areas, grads = cell_mesh.p1()
    loads = np.zeros((cell_mesh.n_nodes, 2))
    for i in range(2):
        contrib = -areas[:, None] * grads[:, :, i]
        np.add.at(loads[:, i], tris.ravel(), contrib.ravel())
    full = red.expand(solve_source(red.A, red.restrict(loads)))
    area_y = cell_mesh.fluid_area()
    chi = full - np.ones(cell_mesh.n_nodes) @ (M @ full) / area_y
    ends = cell_mesh.boundary_edges[cell_mesh.edge_kind == geometry.HOLE_BDRY]
    d = cell_mesh.nodes[ends[:, 1]] - cell_mesh.nodes[ends[:, 0]]

    sol = CellSolution(
        chi=chi,
        a_hom=np.eye(2),
        cell_area=area_y,
        hole_perimeter=float(np.sum(np.hypot(d[:, 0], d[:, 1]))),
        mesh=cell_mesh,
    )
    sol.a_hom = compute_ahom(sol)
    return sol


def compute_ahom(sol: CellSolution) -> np.ndarray:
    """a_hom[k,l] = int_Y (e_k + grad chi^k) . (e_l + grad chi^l) dx over
    the FLUID triangles of sol.mesh."""
    tris, areas, grads = sol.mesh.p1()
    # piecewise-constant corrected gradients e_k + grad chi^k per triangle
    gchi = np.einsum("tla,tlk->tka", grads, sol.chi[tris])  # (T, k, 2)
    eye = np.eye(2)
    corr = gchi + eye[None, :, :]
    a = np.einsum("t,tka,tla->kl", areas, corr, corr)
    return 0.5 * (a + a.T)


def fhom(xi, sol: CellSolution, direct: bool = False) -> float:
    """Homogenized energy density at xi.

    Default path is the quadratic form xi' a_hom xi; direct=True instead
    integrates |xi + grad(xi . chi)|^2 over Y as a cross check.
    """
    xi = np.asarray(xi, dtype=float)
    if not direct:
        return float(xi @ sol.a_hom @ xi)
    tris, areas, grads = sol.mesh.p1()
    w = sol.chi @ xi  # w_xi = xi . chi nodal field
    gw = np.einsum("tla,tl->ta", grads, w[tris])
    corr = gw + xi[None, :]
    return float(np.einsum("t,ta,ta->", areas, corr, corr))


def eval_chi(sol: CellSolution, mesh: Mesh, index, centroids: bool = False) -> np.ndarray:
    """chi(x/eps), (P, 2), at the P nodes `index` of a `geometry.tile_template`
    mesh, or at the centroids of its P triangles `index` if `centroids`.  chi
    is Y-periodic: they take the values at cell 0's template points 0 .. i,
    i the last asked for (`geometry.template_index`), the only points located
    in sol.mesh.  One asked for that is not located raises GeometryError."""
    idx = geometry.template_index(mesh, index, triangles=centroids)
    at = np.arange(np.max(idx, initial=-1) + 1)
    x = mesh.nodes[mesh.triangles[at]].mean(axis=1) if centroids else mesh.nodes[at]
    chi, hit = geometry.interpolate(sol.mesh, sol.chi, x / mesh.eps)
    if not hit[idx].all():
        raise GeometryError(f"template point {x[idx[np.argmin(hit[idx])]] / mesh.eps} "
                            "lies in no FLUID triangle of the cell solution's mesh")
    return chi[idx]
