"""Periodic cell problem, effective tensor and corrector evaluation."""

import numpy as np
import pytest

from homoglab import geometry
from homoglab.cell import CellSolution, compute_ahom, eval_chi, fhom, solve_cell_problem
from homoglab.errors import GeometryError, OutsideDomainError

from conftest import expansion_matrix

# frozen fine-mesh regression value for the isotropic effective coefficient
# at template resolution 1/32 (self-convergence sequence 0.68867, 0.67790,
# 0.67458, 0.67368 for h in {1/8, 1/16, 1/32, 1/64}; Richardson limit 0.6733)
A_STAR_H32 = 0.67457510


def test_no_hole_gives_zero_corrector():
    mesh = geometry.build_cell_mesh(0.0, 32, 1.0 / 8.0)
    sol = solve_cell_problem(mesh)
    assert np.max(np.abs(sol.chi)) <= 1e-10
    assert np.allclose(sol.a_hom, np.eye(2), atol=1e-10)
    assert sol.cell_area == pytest.approx(1.0, abs=1e-12)
    assert sol.c_star == 0.0
    assert fhom((1.0, 0.0), sol) == pytest.approx(1.0, abs=1e-10)


def test_requires_template_mesh():
    mesh = geometry.build_domain_mesh((0.25, 0.25, 0.75, 0.75), 0.5 / 8.0)
    with pytest.raises(GeometryError):
        solve_cell_problem(mesh)


def test_chi_mean_zero(cell_sol8, template8):
    from homoglab import fem
    M = fem.assemble_mass(template8)
    ones = np.ones(template8.n_nodes)
    for i in range(2):
        assert abs(float(ones @ (M @ cell_sol8.chi[:, i]))) <= 1e-12


def test_ahom_invariants(cell_sol8):
    a = cell_sol8.a_hom
    assert np.max(np.abs(a - a.T)) <= 1e-12
    vals = np.linalg.eigvalsh(a)
    assert vals.min() > 0.0
    assert vals.max() <= cell_sol8.cell_area + 1e-12
    # centered polygonal hole: isotropy by symmetry
    assert abs(a[0, 1]) <= 1e-3 * a[0, 0]
    assert abs(a[0, 0] - a[1, 1]) <= 1e-3 * a[0, 0]
    # recomputation path agrees with the stored tensor
    assert np.allclose(compute_ahom(cell_sol8), a, atol=1e-14)


def test_c_star_consistency(cell_sol8):
    assert cell_sol8.c_star == pytest.approx(
        cell_sol8.hole_perimeter / cell_sol8.cell_area, abs=1e-15)


def test_fhom_paths_agree(cell_sol8):
    assert fhom((0.0, 0.0), cell_sol8) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(10):
        xi = rng.standard_normal(2)
        quad = fhom(xi, cell_sol8)
        direct = fhom(xi, cell_sol8, direct=True)
        assert abs(quad - direct) <= 1e-12 * max(1.0, abs(quad))


def test_variational_bound(cell_sol8):
    rng = np.random.default_rng(6)
    for _ in range(100):
        xi = rng.standard_normal(2)
        xi /= np.linalg.norm(xi)
        val = fhom(xi, cell_sol8)
        assert 0.0 < val <= cell_sol8.cell_area + 1e-12


def test_eval_chi_periodicity(cell_sol8):
    eps = 0.25
    # dyadic coordinates so the periodic wrap is exact in floating point
    x = np.array([0.015625, 0.03125])
    v0 = eval_chi(cell_sol8, x[None], eps)
    v1 = eval_chi(cell_sol8, (x + np.array([eps, 0.0]))[None], eps)
    assert np.array_equal(v0[0], v1[0])
    # generic point: agreement up to roundoff in the wrap
    y = np.array([0.012, 0.027])
    w0 = eval_chi(cell_sol8, y[None], eps)
    w1 = eval_chi(cell_sol8, (y + np.array([0.0, eps]))[None], eps)
    assert np.allclose(w0[0], w1[0], atol=1e-10)


def test_eval_chi_nodal_exactness(cell_sol8, template8):
    # a template node strictly inside the fluid part, away from the seams
    fluid_nodes = np.unique(template8.triangles[template8.fluid_triangles()])
    for n in fluid_nodes:
        x, y = template8.nodes[n]
        if 0.02 < x < 0.2 and 0.02 < y < 0.2:
            break
    val = eval_chi(cell_sol8, 0.25 * template8.nodes[n][None], 0.25)
    assert np.allclose(val[0], cell_sol8.chi[n], atol=1e-12)


def test_eval_chi_hole_raises(cell_sol8):
    with pytest.raises(OutsideDomainError):
        eval_chi(cell_sol8, np.array([[0.5, 0.5]]) * 0.25, 0.25)


def test_eval_chi_batched(cell_sol8, template8):
    eps = 0.25
    fl = template8.fluid_triangles()
    y = np.vstack([np.unique(template8.nodes[template8.triangles[fl]].reshape(-1, 2), axis=0),
                   template8.nodes[template8.triangles[fl]].mean(axis=1)])
    X = eps * (y + np.array([1.0, 2.0]))
    vals = eval_chi(cell_sol8, X, eps)
    assert vals.shape == (len(X), 2)
    for x, v in zip(X, vals):
        assert np.array_equal(v, eval_chi(cell_sol8, x[None], eps)[0])
    # one point in the hole fails the whole batch and is named
    bad = np.vstack([X[:3], [0.5 * eps, 0.5 * eps], X[3:5]])
    with pytest.raises(OutsideDomainError, match=r"\[0\.125, 0\.125\]"):
        eval_chi(cell_sol8, bad, eps)


def test_eval_chi_locates_through_interpolate(cell_sol8, template8, monkeypatch):
    """One call of eval_chi is one `geometry.interpolate`, which locates
    every point once."""
    counts = {"interpolate": 0, "locate_point": 0}
    for name in counts:
        real = getattr(geometry, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(geometry, name, counted)
    fl = template8.fluid_triangles()
    X = 0.25 * (template8.nodes[template8.triangles[fl]].mean(axis=1) + 1.0)
    assert eval_chi(cell_sol8, X, 0.25).shape == (len(X), 2)
    assert counts == {"interpolate": 1, "locate_point": 1}


def test_chi_odd_under_cell_rotation(cell_sol8):
    # the discrete template is invariant under rotation by pi about the cell
    # center, so chi is exactly odd under y -> 1 - y (both components)
    pts = [(0.07, 0.11), (0.31, 0.04), (0.13, 0.42)]
    for p in pts:
        q = (1.0 - p[0], 1.0 - p[1])
        vp = eval_chi(cell_sol8, np.array([p]), 1.0)
        vq = eval_chi(cell_sol8, np.array([q]), 1.0)
        assert np.allclose(vq[0], -vp[0], atol=1e-10)


def test_refinement_convergence(cell_sol8, cell_sol32):
    sol16 = solve_cell_problem(geometry.build_cell_mesh(0.25, 32, 1.0 / 16.0))
    a8 = cell_sol8.a_hom[0, 0]
    a16 = sol16.a_hom[0, 0]
    a32 = cell_sol32.a_hom[0, 0]
    d1 = abs(a8 - a16)
    d2 = abs(a16 - a32)
    assert d2 < d1
    assert d1 / d2 >= 1.5  # successive differences shrink on halving
    # frozen regression value at the fine template
    assert a32 == pytest.approx(A_STAR_H32, abs=1e-6)


def _reference_two_stage_chi(cell_mesh):
    """The elimination `solve_cell_problem` made before its one node->DoF
    map, kept as its reference: fold the periodic faces, then solve only
    over the reduced DoFs on FLUID triangles with the first one pinned."""
    from homoglab import fem
    from homoglab.eigensolve import solve_source
    S = fem.assemble_stiffness(cell_mesh)
    M = fem.assemble_mass(cell_mesh)
    dof = fem.dof_map(cell_mesh.n_nodes, [], fold=fem.periodic_fold(cell_mesh))
    red = fem.apply_constraints(S, M, None, dof)
    fl = cell_mesh.fluid_triangles()
    tris = cell_mesh.triangles[fl]
    areas = cell_mesh.areas()[fl]
    grads = cell_mesh.grads()[fl]
    loads = np.zeros((cell_mesh.n_nodes, 2))
    for i in range(2):
        contrib = -areas[:, None] * grads[:, :, i]
        np.add.at(loads[:, i], tris.ravel(), contrib.ravel())
    loads_red = expansion_matrix(red.dof).T @ loads
    active = np.nonzero(cell_mesh.fluid_nodes()[red.keep])[0]
    free = active[1:]
    sol_red = np.zeros((red.dim, 2))
    sol_red[free] = solve_source(red.A[free][:, free], loads_red[free])
    full = red.expand(sol_red)
    return full - np.ones(cell_mesh.n_nodes) @ (M @ full) / cell_mesh.fluid_area()


@pytest.mark.parametrize("r, h_ref", [(0.25, 1 / 8), (0.25, 1 / 32), (0.0, 1 / 8),
                                      (0.2, 1 / 12)])
def test_one_dof_map_matches_two_stage_elimination(r, h_ref):
    mesh = geometry.build_cell_mesh(r, 32, h_ref)
    sol = solve_cell_problem(mesh)
    chi = _reference_two_stage_chi(mesh)
    assert sol.chi.tobytes() == chi.tobytes()
    ref = compute_ahom(CellSolution(chi=chi, a_hom=None, cell_area=sol.cell_area,
                                    hole_perimeter=sol.hole_perimeter, mesh=mesh))
    assert sol.a_hom.tobytes() == ref.tobytes()
