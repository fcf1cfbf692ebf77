"""Periodic cell problem, effective tensor and corrector evaluation."""

import numpy as np
import pytest

from homoglab import geometry
from homoglab.cell import CellSolution, compute_ahom, eval_chi, fhom, solve_cell_problem
from homoglab.errors import GeometryError

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


def _tiled(eps):
    """The perforated mesh the study tiles at eps, from the 1/8 template."""
    return geometry.build_perforated_mesh(geometry.DomainConfig(
        eps=eps, hole_radius=0.25, hole_poly=32, h_ref=1.0 / 8.0))


def _wrapped_chi(sol, x, eps):
    """chi(x/eps) as `eval_chi` found it before it read the tiling: each
    point wrapped into the unit cell, a coordinate within 1e-12 of a face
    put on the face at 0, and interpolated in sol.mesh."""
    y = x / eps
    y -= np.floor(y)
    y[(y < 1e-12) | (y > 1.0 - 1e-12)] = 0.0
    chi, hit = geometry.interpolate(sol.mesh, sol.chi, y)
    assert hit.all()
    return chi


@pytest.mark.parametrize("eps", [1 / 3, 1 / 4, 1 / 8])
def test_eval_chi_matches_wrapped_interpolation(eps, cell_sol32):
    # the study's pair: chi on the refined template, the mesh tiled from the
    # coarse one, so the template's points fall inside fine triangles
    mesh = _tiled(eps)
    nodes = np.flatnonzero(mesh.fluid_nodes())
    fl = mesh.fluid_triangles()
    centroids = mesh.nodes[mesh.triangles[fl]].mean(axis=1)
    for got, x in ((eval_chi(cell_sol32, mesh, nodes), mesh.nodes[nodes]),
                   (eval_chi(cell_sol32, mesh, fl, centroids=True), centroids)):
        assert got.shape == (len(x), 2)
        assert np.max(np.abs(got - _wrapped_chi(cell_sol32, x, eps))) <= 1e-14


def test_eval_chi_periodicity(cell_sol32):
    """A template point has one value in every cell: bitwise off the faces,
    to roundoff on a face two cells share (each maps to its own side)."""
    mesh = _tiled(0.25)
    l2g = geometry.cell_node_map(mesh)
    t0 = mesh.n_triangles // len(l2g)
    fl0 = np.flatnonzero(mesh.tri_region[:t0] == geometry.FLUID)
    fluid0 = np.unique(mesh.triangles[fl0])
    vals = eval_chi(cell_sol32, mesh, l2g[:, fluid0].ravel()).reshape(len(l2g), -1, 2)
    face = ((mesh.nodes[fluid0] == 0.0) | (mesh.nodes[fluid0] == 0.25)).any(axis=1)
    assert np.array_equal(vals[:, ~face], np.broadcast_to(vals[0, ~face], vals[:, ~face].shape))
    assert np.allclose(vals, vals[0], rtol=0.0, atol=1e-15)
    tris = (fl0 + t0 * np.arange(len(l2g))[:, None]).ravel()
    per_cell = eval_chi(cell_sol32, mesh, tris, centroids=True).reshape(len(l2g), -1, 2)
    assert np.array_equal(per_cell, np.broadcast_to(per_cell[0], per_cell.shape))


def test_eval_chi_nodal_exactness(cell_sol8):
    # chi solved on the template the mesh is tiled from: a tiled node is a
    # template node, so its value is chi there up to barycentric roundoff
    mesh = _tiled(0.25)
    l2g = geometry.cell_node_map(mesh)
    fluid0 = np.flatnonzero(cell_sol8.mesh.fluid_nodes())
    vals = eval_chi(cell_sol8, mesh, l2g[:, fluid0].ravel()).reshape(len(l2g), -1, 2)
    assert np.allclose(vals, cell_sol8.chi[fluid0], rtol=0.0, atol=1e-12)


def test_eval_chi_hole_raises(cell_sol8):
    """The template points of a mesh tiled around holes of radius 0.25 that
    lie in a cell solution's larger hole are located nowhere; so are the
    hole's own centre and HOLE triangles."""
    wide = solve_cell_problem(geometry.build_cell_mesh(0.35, 32, 1.0 / 8.0))
    mesh = _tiled(0.25)
    with pytest.raises(GeometryError, match="no FLUID triangle"):
        eval_chi(wide, mesh, np.flatnonzero(mesh.fluid_nodes()))
    with pytest.raises(GeometryError):
        eval_chi(wide, mesh, mesh.fluid_triangles(), centroids=True)
    hole = np.flatnonzero(mesh.tri_region == geometry.HOLE)
    with pytest.raises(GeometryError):
        eval_chi(cell_sol8, mesh, hole[-1:], centroids=True)
    with pytest.raises(GeometryError):
        eval_chi(cell_sol8, mesh, np.flatnonzero(~mesh.fluid_nodes())[:1])


def test_eval_chi_batched(cell_sol32):
    """One call over many points, in any order, gives each point the value
    of a call on it alone."""
    mesh = _tiled(1.0 / 3.0)
    rng = np.random.default_rng(3)
    nodes = rng.permutation(np.flatnonzero(mesh.fluid_nodes()))
    tris = rng.permutation(mesh.fluid_triangles())
    for centroids, pts in ((False, nodes), (True, tris)):
        vals = eval_chi(cell_sol32, mesh, pts, centroids)
        assert vals.shape == (len(pts), 2)
        for p, v in zip(pts[:40], vals[:40]):
            assert np.array_equal(v, eval_chi(cell_sol32, mesh, [p], centroids)[0])


def test_eval_chi_locates_through_interpolate(cell_sol32, monkeypatch):
    """One call of eval_chi is one `geometry.interpolate` of at most the
    template's N0 nodes or T0 triangles, the same count at every eps."""
    calls = []
    real = geometry.interpolate

    def counted(mesh, u, X):
        calls.append(len(X))
        return real(mesh, u, X)

    monkeypatch.setattr(geometry, "interpolate", counted)
    counts = {}
    for eps in (1 / 4, 1 / 8, 1 / 16):
        mesh = _tiled(eps)
        n0, t0 = geometry.cell_node_map(mesh).shape[1], mesh.n_triangles // round(1 / eps) ** 2
        for centroids, pts, most in ((False, np.flatnonzero(mesh.fluid_nodes()), n0),
                                     (True, mesh.fluid_triangles(), t0)):
            calls.clear()
            assert eval_chi(cell_sol32, mesh, pts, centroids).shape == (len(pts), 2)
            assert len(calls) == 1 and calls[0] <= most
            counts.setdefault(centroids, set()).add(calls[0])
    # the default template: 96 FLUID nodes (the hole's centre is not one)
    # and 128 FLUID triangles, whatever eps is
    assert counts == {False: {96}, True: {128}}


def test_chi_odd_under_cell_rotation(cell_sol8):
    # the discrete template is invariant under rotation by pi about the cell
    # center, so chi is exactly odd under y -> 1 - y (both components)
    p = np.array([(0.07, 0.11), (0.31, 0.04), (0.13, 0.42)])
    vp, hit_p = geometry.interpolate(cell_sol8.mesh, cell_sol8.chi, p)
    vq, hit_q = geometry.interpolate(cell_sol8.mesh, cell_sol8.chi, 1.0 - p)
    assert hit_p.all() and hit_q.all()
    assert np.allclose(vq, -vp, atol=1e-10)


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
