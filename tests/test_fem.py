"""P1 assembly against hand-computed local matrices, constraints and the
quadratic forms the matrices define."""

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from homoglab import fem, geometry
from homoglab.errors import AssemblyError, ConstraintError
from homoglab.geometry import DomainConfig, build_domain_mesh, build_perforated_mesh

from conftest import expansion_matrix, tiled_tolerance

K_RECT = (0.25, 0.25, 0.75, 0.75)


def _single_triangle(pts):
    return geometry.Mesh(
        nodes=np.asarray(pts, dtype=float),
        triangles=np.array([[0, 1, 2]], dtype=np.int64),
        tri_region=np.zeros(1, dtype=np.int64),
        boundary_edges=np.empty((0, 2), dtype=np.int64),
        edge_kind=np.empty(0, dtype=np.int64),
    )


def test_stiffness_reference_triangle():
    mesh = _single_triangle([(0, 0), (1, 0), (0, 1)])
    S = fem.assemble_stiffness(mesh).toarray()
    expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], dtype=float)
    assert np.allclose(S, expected, atol=1e-15)
    assert np.allclose(S @ np.ones(3), 0.0, atol=1e-15)


def test_stiffness_linear_exactness():
    mesh = build_domain_mesh((0.0, 0.0, 1.0, 1.0), 1.0)  # two triangles
    S = fem.assemble_stiffness(mesh)
    u = mesh.nodes[:, 0]
    assert float(u @ (S @ u)) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(S @ np.ones(mesh.n_nodes), 0.0, atol=1e-14)


def test_mass_reference_triangle():
    mesh = _single_triangle([(0, 0), (2, 0), (0, 1)])  # area 1
    M = fem.assemble_mass(mesh).toarray()
    expected = (1.0 / 12.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=float)
    assert np.allclose(M, expected, atol=1e-15)


def test_mass_area_identities(bundle_quarter):
    mesh = build_domain_mesh((0.0, 0.0, 1.0, 1.0), 1.0)
    M = fem.assemble_mass(mesh)
    ones = np.ones(mesh.n_nodes)
    assert float(ones @ (M @ ones)) == pytest.approx(1.0, abs=1e-14)
    # perforated unit square: total mass equals the fluid area |Y|
    pm = bundle_quarter.mesh
    Mp = fem.assemble_mass(pm)
    onesp = np.ones(pm.n_nodes)
    y_exact = 1.0 - 16.0 * 0.25**2 * np.sin(2.0 * np.pi / 32.0)
    assert float(onesp @ (Mp @ onesp)) == pytest.approx(y_exact, abs=1e-12)
    # the same mesh: all its triangles cover the unit square, the HOLE ones
    # the 16 scaled hole polygons
    M_all = fem.assemble_mass(pm, tris=np.arange(pm.n_triangles))
    assert float(onesp @ (M_all @ onesp)) == pytest.approx(1.0, abs=1e-12)
    M_hole = fem.assemble_mass(pm, tris=np.nonzero(pm.tri_region == geometry.HOLE)[0])
    # exact area of the inscribed 32-gon, n r^2 sin(2 pi / n) / 2
    hole_area = 16.0 * 0.25**2 * (0.5 * 32 * 0.25 * 0.25 * np.sin(2.0 * np.pi / 32))
    assert float(onesp @ (M_hole @ onesp)) == pytest.approx(hole_area, abs=1e-12)


def _sub_mesh(mesh, tris, edges):
    """A copy of `mesh` holding only the given triangles (as FLUID) and edges."""
    return geometry.Mesh(
        nodes=mesh.nodes, triangles=mesh.triangles[tris],
        tri_region=np.zeros(len(tris), dtype=np.int64),
        boundary_edges=mesh.boundary_edges[edges],
        edge_kind=mesh.edge_kind[edges],
        eps=mesh.eps,
    )


def _bitwise_equal(A, B):
    return (np.array_equal(A.data, B.data) and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.indptr, B.indptr))


def test_index_set_assembly_matches_sub_mesh(bundle_quarter, template8):
    mesh = bundle_quarter.mesh
    fluid = mesh.fluid_triangles()
    hole_bdry = np.nonzero(mesh.edge_kind == geometry.HOLE_BDRY)[0]
    iy, ix = np.divmod(fluid // template8.n_triangles, 4)   # cells run row by row
    tri_sets = {
        "hole": np.nonzero(mesh.tri_region == geometry.HOLE)[0],
        "all": np.arange(mesh.n_triangles),
        "fluid subset": fluid[(ix + iy) % 2 == 0],
    }
    coeff = np.array([[2.0, 0.3], [0.3, 1.0]])
    for name, tris in tri_sets.items():
        sub = _sub_mesh(mesh, tris, np.empty(0, dtype=np.int64))
        for got, ref in (
                (fem.assemble_stiffness(mesh, tris=tris), fem.assemble_stiffness(sub)),
                (fem.assemble_stiffness(mesh, coeff=coeff, tris=tris),
                 fem.assemble_stiffness(sub, coeff=coeff)),
                (fem.assemble_mass(mesh, tris=tris), fem.assemble_mass(sub))):
            assert _bitwise_equal(got, ref), name
    edge_sets = {
        "hole_bdry": hole_bdry,
        "one column of cells": hole_bdry[mesh.cells(
            mesh.nodes[mesh.boundary_edges[hole_bdry]].mean(axis=1))[:, 0] == 1],
    }
    for name, edges in edge_sets.items():
        sub = _sub_mesh(mesh, np.empty(0, dtype=np.int64), edges)
        for k_rect in (None, K_RECT):
            got = fem.assemble_robin_mass(mesh, k_rect=k_rect, edges=edges)
            ref = fem.assemble_robin_mass(sub, k_rect=k_rect)
            assert got.nnz > 0, name
            assert _bitwise_equal(got, ref), name


def test_degenerate_triangle_rejected():
    mesh = _single_triangle([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(AssemblyError):
        fem.assemble_stiffness(mesh)


def test_robin_mass_support(bundle_quarter):
    mesh = bundle_quarter.mesh
    # q = 1 everywhere on the perforation boundary: u = 1 gives the total
    # hole perimeter, 16 holes scaled by eps
    R_all = fem.assemble_robin_mass(mesh, k_rect=None)
    ones = np.ones(mesh.n_nodes)
    # exact perimeter of the inscribed 32-gon, 2 n r sin(pi / n)
    total = 16 * 0.25 * (2.0 * 32 * 0.25 * np.sin(np.pi / 32))
    assert float(ones @ (R_all @ ones)) == pytest.approx(total, abs=1e-12)

    # K covering every hole midpoint kills the matrix
    R_zero = fem.assemble_robin_mass(mesh, k_rect=(0.01, 0.01, 0.99, 0.99))
    assert R_zero.nnz == 0

    # default K: exactly the 12 boundary-cell holes contribute
    R = fem.assemble_robin_mass(mesh, k_rect=K_RECT)
    contributing = set()
    for (a, b), kind in zip(mesh.boundary_edges, mesh.edge_kind):
        if kind != geometry.HOLE_BDRY:
            continue
        mid = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
        if not geometry.point_in_closed_rect(K_RECT, mid):
            contributing.add((int(mid[0] // 0.25), int(mid[1] // 0.25)))
    assert len(contributing) == 12
    assert all(c not in contributing for c in [(1, 1), (1, 2), (2, 1), (2, 2)])
    # R carries less mass than the unrestricted matrix, but not none
    assert 0.0 < float(ones @ (R @ ones)) < total


def test_robin_mass_matches_per_edge_sum(bundle_quarter):
    mesh = bundle_quarter.mesh
    for k_rect in (None, K_RECT):
        ref = np.zeros((mesh.n_nodes, mesh.n_nodes))
        for (a, b), kind in zip(mesh.boundary_edges, mesh.edge_kind):
            mid = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
            if kind != geometry.HOLE_BDRY or (
                    k_rect is not None and geometry.point_in_closed_rect(k_rect, mid)):
                continue
            length = float(np.linalg.norm(mesh.nodes[b] - mesh.nodes[a]))
            ref[[a, b, a, b], [a, b, b, a]] += [length / 3.0, length / 3.0,
                                                length / 6.0, length / 6.0]
        R = fem.assemble_robin_mass(mesh, k_rect=k_rect)
        assert np.abs(R.toarray() - ref).max() <= 1e-15


def test_matrix_symmetry_and_definiteness(bundle_quarter):
    mesh = bundle_quarter.mesh
    S = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    R = fem.assemble_robin_mass(mesh, k_rect=K_RECT)
    for A in (S, M, R):
        assert (A - A.T).nnz == 0  # symmetric to the last bit
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = rng.standard_normal(mesh.n_nodes)
        assert float(u @ (S @ u)) >= -1e-12
        assert float(u @ (R @ u)) >= -1e-12
        assert float(u @ (M @ u)) > 0.0
    fl = mesh.fluid_nodes()
    la.cholesky(M[fl][:, fl].toarray())  # M positive definite on Omega_eps


def test_anisotropic_stiffness_scaling():
    mesh = build_domain_mesh(K_RECT, 0.5 / 8.0)
    S1 = fem.assemble_stiffness(mesh)
    S2 = fem.assemble_stiffness(mesh, coeff=2.0 * np.eye(2))
    assert np.allclose((S2 - 2.0 * S1).toarray(), 0.0, atol=1e-13)


def test_apply_constraints_dirichlet():
    mesh = build_domain_mesh(K_RECT, 0.5 / 4.0)
    S = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    # empty constraint set: identity transformation
    red = fem.apply_constraints(S, M, None, fem.dof_map(mesh.n_nodes, []))
    assert red.dim == mesh.n_nodes
    assert (expansion_matrix(red.dof) - sp.eye(mesh.n_nodes)).nnz == 0
    # all nodes constrained: degenerate space
    with pytest.raises(ConstraintError):
        fem.apply_constraints(S, M, None, np.full(mesh.n_nodes, -1))
    # a map that does not cover every node
    with pytest.raises(ConstraintError):
        fem.apply_constraints(S, M, None, np.arange(mesh.n_nodes + 1))
    # a map that leaves a reduced DoF without nodes
    with pytest.raises(ConstraintError):
        fem.apply_constraints(S, M, None, 2 * np.arange(mesh.n_nodes))
    # expansion round trip
    red = fem.apply_constraints(S, M, None,
                                fem.dof_map(mesh.n_nodes, mesh.outer_nodes()))
    u = np.arange(red.dim, dtype=float)
    full = red.expand(u)
    assert np.allclose(full[mesh.outer_nodes()], 0.0)
    assert np.allclose(full[red.keep], u)


def test_apply_constraints_periodic(template8):
    S = fem.assemble_stiffness(template8)
    M = fem.assemble_mass(template8)
    dof = fem.dof_map(template8.n_nodes, [], fold=fem.periodic_fold(template8))
    red = fem.apply_constraints(S, M, None, dof)
    # constants stay in the stiffness kernel after periodic folding
    ones = np.ones(red.dim)
    assert np.max(np.abs(red.A @ ones)) <= 1e-10


def _assert_same_bytes(got, want, name):
    for part in ("data", "indices", "indptr"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), f"{name}.{part}"


def _reference_periodic_P(template, h_ref):
    """The master/slave pair list and chain resolution the periodic fold
    replaced, kept as its reference; returns the expansion matrix P.  Face
    nodes are keyed by their coordinates in units of 1/m, m = 1/h_ref."""
    m = int(round(1.0 / h_ref))
    by_key = {}
    for node in template.outer_nodes().tolist():
        x, y = template.nodes[node]
        by_key[(int(round(x * m)), int(round(y * m)))] = node
    pairs = []
    for (kx, ky), node in sorted(by_key.items()):
        if kx == m and ky == m:
            pairs.append((by_key[(0, 0)], node))
        elif kx == m and 0 < ky < m:
            pairs.append((by_key[(0, ky)], node))
        elif ky == m and 0 < kx < m:
            pairs.append((by_key[(kx, 0)], node))
        elif kx == m and ky == 0:
            pairs.append((by_key[(0, 0)], node))
        elif kx == 0 and ky == m:
            pairs.append((by_key[(0, 0)], node))
    n = template.n_nodes
    target = np.arange(n)
    for mref, s in pairs:
        target[s] = mref
    for _ in range(4):
        target = target[target]
    retained = np.nonzero(target == np.arange(n))[0]
    red_index = -np.ones(n, dtype=np.int64)
    red_index[retained] = np.arange(len(retained))
    col = red_index[target]
    assert (col >= 0).all()
    return sp.csr_matrix((np.ones(n), (np.arange(n), col)), shape=(n, len(retained)))


@pytest.mark.parametrize("r, h_ref", [(0.25, 1 / 8), (0.25, 1 / 16), (0.25, 1 / 32),
                                      (0.0, 1 / 8), (0.2, 1 / 12)])
def test_periodic_fold_matches_pair_list(r, h_ref):
    """Folding face keys mod m gives the pair list's P and reduced S bitwise."""
    template = geometry.build_cell_mesh(r, 32, h_ref)
    S = fem.assemble_stiffness(template)
    P_ref = _reference_periodic_P(template, h_ref)
    dof = fem.dof_map(template.n_nodes, [], fold=fem.periodic_fold(template))
    red = fem.apply_constraints(S, fem.assemble_mass(template), None, dof)
    S_ref = (P_ref.T @ S @ P_ref).tocsr()
    _assert_same_bytes(expansion_matrix(red.dof), P_ref, "P")
    _assert_same_bytes(red.A, S_ref, "S")


def _cell_map(template, pin: bool):
    """The cell problem's map: periodic faces folded, hole nodes fixed and,
    with `pin`, DoF 0 pinned as `solve_cell_problem` pins it."""
    dof = fem.dof_map(template.n_nodes, ~template.fluid_nodes(),
                      fold=fem.periodic_fold(template))
    return np.maximum(dof - 1, -1) if pin else dof


def test_project_matches_triple_product(bundle_quarter, a_mesh32, template8):
    """project folds A through the node -> DoF map into P' A P bitwise: on
    the perforated map, on the Dirichlet map of the structured macro mesh,
    whose stiffness stores exact zeros, and on the cell's maps, where up to
    four nodes share a DoF.  Canonical CSR in every case."""
    mesh, red = bundle_quarter.mesh, bundle_quarter.red
    S_a = fem.assemble_stiffness(a_mesh32)
    red_a = fem.apply_constraints(S_a, fem.assemble_mass(a_mesh32), None,
                                  fem.dof_map(a_mesh32.n_nodes, a_mesh32.outer_nodes()))
    assert (S_a.data == 0.0).any()
    S_c, M_c = fem.assemble_stiffness(template8), fem.assemble_mass(template8)
    cell, pinned = (fem.apply_constraints(S_c, M_c, None, _cell_map(template8, pin))
                    for pin in (False, True))
    assert np.bincount(cell.dof[cell.dof >= 0]).max() == 4  # the corners
    cases = {"S": (red, fem.assemble_stiffness(mesh)),
             "M": (red, fem.assemble_mass(mesh)),
             "R": (red, fem.assemble_robin_mass(mesh, K_RECT)),
             "R_all": (red, fem.assemble_robin_mass(mesh, None)),
             "S on A": (red_a, S_a),
             "S on the cell": (cell, S_c), "M on the cell": (cell, M_c),
             "S pinned": (pinned, S_c), "M pinned": (pinned, M_c)}
    for name, (r, A) in cases.items():
        P = expansion_matrix(r.dof)
        got, want = r.project(A), (P.T @ A @ P).tocsr()
        assert got.has_canonical_format, name
        _assert_same_bytes(got, want, name)


def test_restrict_matches_transpose(template8):
    """restrict sums through the map into P' f bitwise, for one vector and
    for a block of them, with folded, fixed and pinned nodes."""
    red = fem.apply_constraints(fem.assemble_stiffness(template8),
                                fem.assemble_mass(template8), None,
                                _cell_map(template8, pin=True))
    P = expansion_matrix(red.dof)
    f = np.sin(np.arange(2 * template8.n_nodes, dtype=float)).reshape(-1, 2)
    for x in (f, f[:, 0]):
        got = red.restrict(x)
        assert got.shape == (red.dim,) + x.shape[1:]
        assert got.tobytes() == (P.T @ x).tobytes()


def test_fold_matrix_drops_and_phases():
    """Entries mapped to -1 and sums that cancel are dropped, duplicates
    are summed and the phase scales each column."""
    A = sp.csr_matrix(np.array([[1.0, 2.0, 0.0],
                                [3.0, 4.0, 5.0],
                                [0.0, -1.0, 6.0]]))
    rows, cols = np.array([0, 1, 0]), np.array([0, 0, -1])
    out = fem.fold_matrix(A, rows, cols, 2, phase=np.array([1.0, -1.0, 7.0]))
    assert out.has_canonical_format and out.format == "csr"
    # (0, 0): 1 - 2 + 1, which cancels; (1, 0): 3 - 4
    assert out.nnz == 1 and out[1, 0] == -1.0


def test_fold_matrix_copies(monkeypatch):
    """(c, n) maps sum c copies of A, copy k through row k of the maps, as
    the 1-D maps fold the block-diagonal matrix of the copies; no entry is
    dropped when no map holds -1, and the triplets keep int32."""
    A = sp.csr_matrix(np.array([[1.0, 2.0, 0.0],
                                [3.0, 4.0, 5.0],
                                [0.0, -1.0, 6.0]]))
    rows = np.array([[0, 1, 2], [2, 3, 4]], dtype=np.int32)
    cols = np.array([[0, 1, 2], [2, 3, 1]], dtype=np.int32)
    seen = []
    accumulate = fem._accumulate

    def recording(n, i, j, vals):
        seen.append((i.dtype, j.dtype, len(i)))
        return accumulate(n, i, j, vals)

    monkeypatch.setattr(fem, "_accumulate", recording)
    got = fem.fold_matrix(A, rows, cols, 5)
    monkeypatch.undo()
    want = fem.fold_matrix(sp.block_diag([A, A], format="csr"), rows.ravel(),
                           cols.ravel(), 5)
    assert seen == [(np.int32, np.int32, 2 * A.nnz)]
    for part in ("data", "indices", "indptr"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part


def test_fold_matrix_drops_rows_before_values(monkeypatch):
    """With (c, n) maps and a phase indexed like the column map, copy k's
    entry (i, j) goes to (rows[k, i], cols[k, j]) times phase[k, j], as
    the 1-D maps fold the block-diagonal matrix of the copies; a row or a
    column mapped to -1 is dropped before the triplets are summed, so only
    the kept ones are."""
    A = sp.csr_matrix(np.array([[1.0, 2.0, 0.0],
                                [3.0, 4.0, 5.0],
                                [0.0, -1.0, 6.0]]))
    rows = np.array([[0, -1, 2], [-1, 3, 1]], dtype=np.int32)
    cols = np.array([[0, 1, 2], [2, 3, -1]], dtype=np.int32)
    phase = np.array([[1.0, 1j, -1.0], [-1j, 2.0, 3.0]])
    want = np.zeros((4, 4), dtype=complex)
    for k in range(2):
        for i, j in zip(*A.nonzero()):
            if rows[k, i] >= 0 and cols[k, j] >= 0:
                want[rows[k, i], cols[k, j]] += A[i, j] * phase[k, j]
    seen = []
    accumulate = fem._accumulate

    def recording(n, i, j, vals):
        seen.append(len(i))
        return accumulate(n, i, j, vals)

    monkeypatch.setattr(fem, "_accumulate", recording)
    got = fem.fold_matrix(A, rows, cols, 4, phase)
    block = fem.fold_matrix(sp.block_diag([A, A], format="csr"), rows.ravel(),
                            cols.ravel(), 4, phase.ravel())
    # copy 0 keeps rows 0 and 2, 4 entries; copy 1 rows 1 and 2, less the
    # entries in column 2, which it maps to -1
    assert seen == [7, 7]
    assert np.array_equal(got.toarray(), want)
    for part in ("data", "indices", "indptr"):
        assert getattr(got, part).tobytes() == getattr(block, part).tobytes(), part


def _cell_zero(mesh):
    """Cell 0's FLUID triangles of a tiled mesh and the cell node map."""
    l2g = geometry.cell_node_map(mesh)
    T = mesh.n_triangles // len(l2g)
    return np.nonzero(mesh.tri_region[:T] == geometry.FLUID)[0], l2g


def _tiled(mesh, assemble, dof):
    """The stiffness or mass of a tiled mesh on the DoFs of `dof`, as the
    perforated bundle keeps it: cell 0's matrix and dof[cell_node_map]."""
    l2g = geometry.cell_node_map(mesh)
    return fem.Tiled(fem.cell_matrix(mesh, assemble, l2g), dof[l2g], int(dof.max()) + 1)


@pytest.mark.parametrize("assemble", [fem.assemble_stiffness, fem.assemble_mass])
@pytest.mark.parametrize("eps, r, h_ref", [(1 / 4, 0.25, 1 / 8), (1 / 6, 0.25, 1 / 16),
                                           (1 / 4, 0.0, 1 / 8), (1 / 16, 0.25, 1 / 8)])
def test_tiled_assembly(assemble, eps, r, h_ref):
    """The tiled stiffness and mass, through the identity node -> DoF map,
    are, bitwise, the fold of n^2 copies of cell 0's matrix through the
    cell node map, and they equal the triangle-by-triangle assembly in
    sparsity bitwise and in value to that assembly's rounding
    (`tiled_tolerance`).  Folded straight onto the
    reduced DoFs of a node -> DoF map, they are the reduction of the full
    matrix, bitwise."""
    mesh = build_perforated_mesh(DomainConfig(eps=eps, hole_radius=r, h_ref=h_ref))
    fluid, l2g = _cell_zero(mesh)
    n0 = l2g.shape[1]
    assert np.array_equal(l2g[:, mesh.triangles[:len(mesh.triangles) // len(l2g)]]
                          .reshape(-1, 3), mesh.triangles)
    cell = assemble(mesh, tris=fluid)[:n0, :n0]
    got = _tiled(mesh, assemble, fem.dof_map(mesh.n_nodes, [])).tocsr()
    want = fem.fold_matrix(sp.block_diag([cell] * len(l2g), format="csr"),
                           l2g.ravel(), l2g.ravel(), mesh.n_nodes)
    for part in ("data", "indices", "indptr"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part
    fixed = ~mesh.fluid_nodes()
    fixed[mesh.outer_nodes()] = True
    red = fem.apply_constraints(got, None, None, fem.dof_map(mesh.n_nodes, fixed))
    folded = _tiled(mesh, assemble, red.dof).tocsr()
    for part in ("data", "indices", "indptr"):
        assert getattr(folded, part).tobytes() == getattr(red.A, part).tobytes(), part

    each = assemble(mesh)
    each.eliminate_zeros()
    assert np.array_equal(got.indptr, each.indptr)
    assert np.array_equal(got.indices, each.indices)
    assert (np.abs(got.data - each.data).max()
            <= tiled_tolerance(eps, h_ref) * np.abs(each.data).max())


def test_norms():
    mesh = build_domain_mesh((0.0, 0.0, 1.0, 1.0), 0.5)
    S = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    # l2 = u'Mu, h1_semi = u'Su
    z = np.zeros(mesh.n_nodes)
    assert (float(z @ (M @ z)), float(z @ (S @ z))) == (0.0, 0.0)
    u = mesh.nodes[:, 0]
    assert float(u @ (S @ u)) == pytest.approx(1.0, abs=1e-14)


def test_eps_norm_dominates_h1(bundle_quarter):
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.standard_normal(bundle_quarter.red.dim)
        h1 = float(u @ (bundle_quarter.S @ u))
        eps_sq = h1 + float(u @ (bundle_quarter.R @ u))
        assert eps_sq >= h1 - 1e-12


def _reference_stiffness(mesh, coeff=None, tris=None):
    """List-and-concatenate stiffness assembly, the reference for the
    preallocated (9, T) blocks."""
    if tris is None:
        tris = mesh.fluid_triangles()
    areas = mesh.areas()[tris]
    grads = mesh.grads()[tris]  # (T,3,2)
    tri_nodes = mesh.triangles[tris]
    if coeff is not None:
        cg = np.einsum("ab,tlb->tla", np.asarray(coeff, dtype=float), grads)
    else:
        cg = grads
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(i, 3):
            kij = areas * np.einsum("ta,ta->t", grads[:, i], cg[:, j])
            rows.append(tri_nodes[:, i]); cols.append(tri_nodes[:, j]); vals.append(kij)
            if j != i:
                rows.append(tri_nodes[:, j]); cols.append(tri_nodes[:, i]); vals.append(kij)
    n = mesh.n_nodes
    mat = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def _reference_mass(mesh, tris=None):
    if tris is None:
        tris = mesh.fluid_triangles()
    areas = mesh.areas()[tris]
    tri_nodes = mesh.triangles[tris]
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(tri_nodes[:, i]); cols.append(tri_nodes[:, j])
            vals.append(areas * fem._MASS_LOCAL[i, j])
    n = mesh.n_nodes
    mat = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def test_assembly_matches_concatenated_coo():
    """Stiffness and mass written into preallocated int32 blocks equal the
    list-and-concatenate assembly bitwise, index dtype included."""
    coeff = np.array([[2.0, 0.3], [0.3, 1.0]])
    for eps in (1 / 8, 1 / 16):
        cfg = DomainConfig(eps=eps, hole_radius=0.25, k_rect=K_RECT, h_ref=1.0 / 8.0)
        mesh = build_perforated_mesh(cfg)
        hole = np.nonzero(mesh.tri_region == geometry.HOLE)[0]
        every = np.arange(mesh.n_triangles)
        cases = {
            "stiffness": (fem.assemble_stiffness(mesh), _reference_stiffness(mesh)),
            "stiffness, coeff": (fem.assemble_stiffness(mesh, coeff=coeff),
                                 _reference_stiffness(mesh, coeff=coeff)),
            "stiffness, HOLE tris": (fem.assemble_stiffness(mesh, tris=hole),
                                     _reference_stiffness(mesh, tris=hole)),
            "stiffness, all tris": (fem.assemble_stiffness(mesh, tris=every),
                                    _reference_stiffness(mesh, tris=every)),
            "mass": (fem.assemble_mass(mesh), _reference_mass(mesh)),
            "mass, all tris": (fem.assemble_mass(mesh, tris=every),
                               _reference_mass(mesh, tris=every)),
        }
        for name, (got, ref) in cases.items():
            assert got.has_canonical_format, name
            assert got.indices.dtype == ref.indices.dtype, name
            assert got.indptr.dtype == ref.indptr.dtype, name
            assert _bitwise_equal(got, ref), f"{name} at eps={eps}"
