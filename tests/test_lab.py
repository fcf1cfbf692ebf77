"""Lemma checks: sharp constants against dense eigensolves and white noise,
determinism, guards and ratio properties."""

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as spla

from homoglab import eigensolve, fem, geometry, lab, spectral
from homoglab.cell import eval_chi
from homoglab.errors import ConfigError

from conftest import expansion_matrix

K_RECT = (0.25, 0.25, 0.75, 0.75)


def test_trace_check_deterministic(bundle_quarter):
    r1 = lab.check_trace(bundle_quarter)
    r2 = lab.check_trace(bundle_quarter)
    assert r1.as_dict() == r2.as_dict()
    assert r1.check == "trace"
    assert r1.eps == 0.25
    assert np.isfinite(r1.worst_ratio) and r1.worst_ratio > 0.0
    assert r1.passed


def test_trace_ratio_scale_invariant(bundle_quarter):
    # both sides of the trace bound are quadratic in the field
    R_all = bundle_quarter.red.project(
        fem.assemble_robin_mass(bundle_quarter.mesh, k_rect=None))
    eps = bundle_quarter.mesh.eps
    rng = np.random.default_rng(1)
    u = rng.standard_normal(bundle_quarter.red.dim)

    def ratio(w):
        num = float(w @ (R_all @ w))
        den = float(w @ (bundle_quarter.M @ w)) / eps + eps * float(w @ (bundle_quarter.S @ w))
        return num / den

    assert ratio(2.0 * u) == pytest.approx(ratio(u), rel=1e-12)


def test_volsup_check(bundle_quarter, cell_sol8):
    row = lab.check_volsup(bundle_quarter, cell_sol8, K_RECT)
    assert row.check == "volsup"
    assert np.isfinite(row.worst_ratio) and row.worst_ratio >= 0.0
    assert row.passed
    # reproducible bitwise
    assert row.as_dict() == lab.check_volsup(bundle_quarter, cell_sol8,
                                             K_RECT).as_dict()


def _chained_volsup_pencil(bundle, sol, k_rect):
    """The volsup pencil (L, S) as the DoF selection makes it: each matrix
    reduced to every DoF, then rows and columns cut to the DoFs where the
    subdomain stiffness has a positive diagonal."""
    mesh, red = bundle.mesh, bundle.red
    tris, edges = lab._volsup_support(mesh, k_rect)
    M_sub = red.project(fem.assemble_mass(mesh, tris=tris))
    S_sub = red.project(fem.assemble_stiffness(mesh, tris=tris))
    R_sub = red.project(fem.assemble_robin_mass(mesh, k_rect=None, edges=edges))
    dofs = np.nonzero(S_sub.diagonal() > 0.0)[0]
    L = (sol.c_star / mesh.eps * M_sub - R_sub)[dofs][:, dofs]
    return L, S_sub[dofs][:, dofs]


@pytest.mark.parametrize("eps, k_rect", [(1 / 8, K_RECT), (1 / 16, K_RECT),
                                         (1 / 8, (0.2, 0.25, 0.7, 0.75))],
                         ids=["eps8", "eps16", "off_centre_K"])
def test_volsup_pencil_matches_chained_selection(eps, k_rect, cell_sol8, monkeypatch):
    """check_volsup's one elimination gives, bitwise, the pencil of the
    reduce-then-select chain."""
    bundle = spectral.build_perforated_bundle(geometry.DomainConfig(
        eps=eps, hole_radius=0.25, k_rect=k_rect))
    if k_rect != K_RECT:
        assert len(bundle.sectors) == 1
    seen = []
    real = lab.extreme_eigenvalues

    def keeping(A, B, *args, **kw):
        seen.append((A, B))
        return real(A, B, *args, **kw)

    monkeypatch.setattr(lab, "extreme_eigenvalues", keeping)
    lab.check_volsup(bundle, cell_sol8, k_rect)
    assert len(seen) == 1
    for got, want in zip(seen[0], _chained_volsup_pencil(bundle, cell_sol8, k_rect)):
        assert got.shape == want.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), part


def _pencils(bundle, sol):
    """The three lemma pencils (A, B, which, k) as sparse matrices, reduced
    by hand so they share no code with lab: trace, volsup on the DoFs
    Omega_eps^K touches, R against S."""
    mesh, P, eps = bundle.mesh, expansion_matrix(bundle.red.dof), bundle.mesh.eps
    R_all = P.T @ fem.assemble_robin_mass(mesh, k_rect=None) @ P
    tris, edges = lab._volsup_support(mesh, K_RECT)
    M_sub = P.T @ fem.assemble_mass(mesh, tris=tris) @ P
    S_sub = P.T @ fem.assemble_stiffness(mesh, tris=tris) @ P
    R_sub = P.T @ fem.assemble_robin_mass(mesh, k_rect=None, edges=edges) @ P
    on = np.nonzero(S_sub.diagonal() > 0.0)[0]
    L = (sol.c_star / eps * M_sub - R_sub).tocsr()
    return {"trace": (R_all, bundle.M / eps + eps * bundle.S, "LA", 1),
            "volsup": (L[on][:, on], S_sub.tocsr()[on][:, on], "BE", 2),
            "norm_equivalence": (bundle.R, bundle.S, "LA", 1)}


def _sharp_rows(bundle, sol):
    return {"trace": lab.check_trace(bundle),
            "volsup": lab.check_volsup(bundle, sol, K_RECT),
            "norm_equivalence": lab.check_norm_equivalence(bundle)}


def _sharp_constants(ends):
    """The reported constants from each pencil's (lowest, highest) eigenvalue."""
    return {"trace": ends["trace"][1],
            "volsup": max(-ends["volsup"][0], ends["volsup"][1]),
            "norm_equivalence": np.sqrt(1.0 + ends["norm_equivalence"][1])}


def test_sharp_constants_match_dense_eigh(bundle_quarter, cell_sol8):
    # LAPACK on the full pencils shares no code with the Lanczos path
    ends = {}
    for name, (A, B, _, _) in _pencils(bundle_quarter, cell_sol8).items():
        vals = la.eigh(A.toarray(), B.toarray(), eigvals_only=True)
        ends[name] = (vals[0], vals[-1])
    want = _sharp_constants(ends)
    # the surface-averaging pencil is indefinite and its negative end wins
    assert ends["volsup"][0] < 0.0 < ends["volsup"][1]
    assert -ends["volsup"][0] > ends["volsup"][1]
    for name, row in _sharp_rows(bundle_quarter, cell_sol8).items():
        assert row.check == name and row.passed
        assert row.worst_ratio == pytest.approx(want[name], rel=1e-12), name


@pytest.fixture(scope="module")
def bundle_eighth():
    cfg = geometry.DomainConfig(eps=0.125, hole_radius=0.25, hole_poly=32,
                                k_rect=K_RECT, h_ref=1.0 / 8.0)
    return spectral.build_perforated_bundle(cfg)


def test_sharp_constants_match_converged_eigsh(bundle_eighth, cell_sol8):
    # scipy's defaults iterate to machine precision (tol=0) from a random
    # start in a 20-vector basis; the lab stops at a residual of sqrt(u)
    ends = {}
    for name, (A, B, which, k) in _pencils(bundle_eighth, cell_sol8).items():
        vals = np.sort(spla.eigsh(A, k=k, M=B, which=which, return_eigenvectors=False))
        ends[name] = (vals[0], vals[-1])
    want = _sharp_constants(ends)
    for name, row in _sharp_rows(bundle_eighth, cell_sol8).items():
        assert row.worst_ratio == pytest.approx(want[name], rel=1e-12), name


def _trace_pencil(bundle):
    eps = bundle.mesh.eps
    R_all = bundle.red.project(fem.assemble_robin_mass(bundle.mesh, k_rect=None))
    return R_all, bundle.M / eps + eps * bundle.S


def _sectors_seen(monkeypatch):
    """The sectors each lab call hands extreme_eigenvalues, in call order."""
    seen = []
    real = lab.extreme_eigenvalues

    def keeping(A, B, *args, sectors=None, **kw):
        seen.append(sectors)
        return real(A, B, *args, sectors=sectors, **kw)

    monkeypatch.setattr(lab, "extreme_eigenvalues", keeping)
    return seen


@pytest.mark.parametrize("which", ["bundle_quarter", "bundle_eighth"])
def test_trace_in_sectors_matches_one_sector(which, request, monkeypatch):
    """The trace pencil commutes with the quarter turn, so its constant is
    the largest over the E, A and B sectors of M/eps + eps S: the one-sector
    value to 1e-12 relative (3.9e-15 is the largest drift at 1/4 to 1/16)."""
    bundle = request.getfixturevalue(which)
    seen = _sectors_seen(monkeypatch)
    row = lab.check_trace(bundle)
    R_all, B = _trace_pencil(bundle)
    assert [(s.dim, s.weight) for s in seen[0]] == [
        (s.dim, s.weight) for s in bundle.sectors]
    assert all(s.A is seen[0][0].A for s in seen[0])
    assert (seen[0][0].A != B).nnz == 0
    one = eigensolve.extreme_eigenvalues(R_all, B, "LA")[-1]
    assert row.worst_ratio == pytest.approx(one, rel=1e-12)


def test_trace_falls_back_to_one_sector(bundle_eighth, monkeypatch):
    """An off-centre K has one sector, and so has any trace pencil whose
    matrices fail the commutation check."""
    off = spectral.build_perforated_bundle(geometry.DomainConfig(
        eps=1 / 8, hole_radius=0.25, k_rect=(0.2, 0.25, 0.7, 0.75)))
    seen = _sectors_seen(monkeypatch)
    lab.check_trace(off)
    assert len(seen[0]) == 1 and seen[0][0].dim == off.red.dim

    R_all, B = _trace_pencil(bundle_eighth)
    assert len(bundle_eighth.sectors_of(B, R_all)) == 3
    skewed = R_all.copy()
    skewed.data[skewed.indptr[-1] // 2] *= 1.0 + 1e-6   # off its orbit's value
    assert len(bundle_eighth.sectors_of(B, skewed)) == 1
    monkeypatch.setattr(spectral, "_commutes", lambda X, turn: False)
    row = lab.check_trace(bundle_eighth)
    assert len(seen[1]) == 1
    one = eigensolve.extreme_eigenvalues(R_all, B, "LA")[-1]
    assert row.worst_ratio == one


def test_sharp_constants_solve_counts(bundle_eighth, cell_sol8, monkeypatch):
    # applications of B^-1 per Lanczos run at eps = 1/8, one LU per run:
    # 15 in each of the trace's E, A and B sectors, 17 for volsup and 10,
    # 10 and 15 in norm equivalence's E, A and B sectors as measured,
    # against 21, 39 and 21 when the one-sector trace, volsup and
    # norm-equivalence pencils are iterated to machine precision in a
    # 20-vector basis
    counts = []

    def counted(solve):
        run = len(counts)
        counts.append(0)

        def apply(x):
            counts[run] += 1
            return solve(x)
        return apply

    factorized = eigensolve.factorized_solver
    monkeypatch.setattr(eigensolve, "factorized_solver",
                        lambda B: counted(factorized(B)))
    # a bundle of the session's matrices whose sectors hold no LU yet, so
    # that norm equivalence makes (and counts) its own
    own = spectral.DiscreteOperatorBundle(mesh=bundle_eighth.mesh, red=bundle_eighth.red)
    _sharp_rows(own, cell_sol8)
    # one LU per trace sector, one for volsup and one per bundle sector, in
    # run order; each bundle sector's LU is dropped as its run ends
    assert len(counts) == 7
    assert [s._lu for s in own.sectors] == [None] * 3
    runs = ("trace_E", "trace_A", "trace_B", "volsup", "norm_E", "norm_A", "norm_B")
    solves = dict(zip(runs, counts))
    assert max(solves[f"trace_{s}"] for s in "EAB") <= 15
    assert solves["volsup"] <= 17
    assert all(solves[f"norm_{s}"] <= cap for s, cap in zip("EAB", (10, 10, 15)))


def _random_fields(bundle, n_samples, seed):
    """Standard-normal nodal coefficients on the reduced (Dirichlet-free) DoFs."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_samples, bundle.red.dim))


def _noise_trace(bundle, n_samples, seed):
    """The white-noise search the trace check used to run."""
    eps = bundle.mesh.eps
    R_all = bundle.red.project(fem.assemble_robin_mass(bundle.mesh, k_rect=None))
    worst = 0.0
    for u in _random_fields(bundle, n_samples, seed):
        num = float(u @ (R_all @ u))
        den = float(u @ (bundle.M @ u)) / eps + eps * float(u @ (bundle.S @ u))
        if den == 0.0:
            continue
        worst = max(worst, num / den)
    return worst


def _noise_volsup(bundle, sol, k_rect, n_samples, seed):
    """The white-noise search the surface-averaging check used to run."""
    mesh = bundle.mesh
    eps = mesh.eps
    tris, edges = lab._volsup_support(mesh, k_rect)
    red = bundle.red
    M_sub = red.project(fem.assemble_mass(mesh, tris=tris))
    S_sub = red.project(fem.assemble_stiffness(mesh, tris=tris))
    R_sub = red.project(fem.assemble_robin_mass(mesh, k_rect=None, edges=edges))
    worst = 0.0
    for w in _random_fields(bundle, n_samples, seed):
        rhs = float(w @ (S_sub @ w))
        if rhs == 0.0:
            continue
        lhs = abs(sol.c_star / eps * float(w @ (M_sub @ w)) - float(w @ (R_sub @ w)))
        worst = max(worst, lhs / rhs)
    return worst


def _noise_norm_equivalence(bundle, n_samples, seed):
    """The white-noise search the norm-equivalence check used to run."""
    worst = 0.0
    for u in _random_fields(bundle, n_samples, seed):
        h = float(u @ (bundle.S @ u))
        if h == 0.0:
            continue
        e = h + (float(u @ (bundle.R @ u)) if bundle.R is not None else 0.0)
        worst = max(worst, float(np.sqrt(e / h)))
    return worst


def test_sharp_constants_bound_white_noise(bundle_quarter, cell_sol8):
    # a sharp constant is the supremum over all fields, so it bounds the
    # worst of any sample; the seeds are those the study used at eps = 1/4
    seed = 20240901 + 4
    noise = {"trace": _noise_trace(bundle_quarter, 100, seed),
             "volsup": _noise_volsup(bundle_quarter, cell_sol8, K_RECT, 100, seed + 1),
             "norm_equivalence": _noise_norm_equivalence(bundle_quarter, 100, seed + 2)}
    for name, row in _sharp_rows(bundle_quarter, cell_sol8).items():
        assert noise[name] > 0.0
        assert row.worst_ratio >= noise[name], name


def test_volsup_empty_subdomain(cell_sol8):
    # at eps = 1/2 every cell overlaps K, so Omega_eps^K is empty
    cfg = geometry.DomainConfig(eps=0.5, hole_radius=0.25, hole_poly=32,
                                k_rect=K_RECT, h_ref=1.0 / 8.0)
    bundle = spectral.build_perforated_bundle(cfg)
    with pytest.raises(ConfigError):
        lab.check_volsup(bundle, cell_sol8, K_RECT)


def _reference_cells(mesh, template, n):
    """The cell of every triangle and of every HOLE_BDRY edge, from the
    tiling order alone: cells run row by row, each adding the template's
    triangles and its HOLE_BDRY edges in template order."""
    c = np.arange(mesh.n_triangles) // template.n_triangles
    tri_cell = np.column_stack([c % n, c // n]).astype(np.int32)
    hole = mesh.edge_kind == geometry.HOLE_BDRY
    c = np.arange(np.count_nonzero(hole)) // np.count_nonzero(
        template.edge_kind == geometry.HOLE_BDRY)
    edge_cell = np.full((len(hole), 2), -1, dtype=np.int32)
    edge_cell[hole] = np.column_stack([c % n, c // n])
    return tri_cell, edge_cell


def _volsup_support_per_cell(mesh, tri_cell, edge_cell, n, k_rect):
    """Reference selection: loop over the n x n cells, keep the FLUID
    triangles and HOLE_BDRY edges of those off K."""
    eps = mesh.eps
    kx0, ky0, kx1, ky1 = k_rect
    ok_cells = set()
    for iy in range(n):
        for ix in range(n):
            x0, y0 = eps * ix, eps * iy
            x1, y1 = eps * (ix + 1), eps * (iy + 1)
            if x1 <= kx0 or x0 >= kx1 or y1 <= ky0 or y0 >= ky1:
                ok_cells.add((ix, iy))
    tri_mask = np.array([reg == geometry.FLUID and (int(cx), int(cy)) in ok_cells
                         for reg, (cx, cy) in zip(mesh.tri_region, tri_cell)])
    edge_mask = np.array([kind == geometry.HOLE_BDRY and (int(cx), int(cy)) in ok_cells
                          for kind, (cx, cy) in zip(mesh.edge_kind, edge_cell)])
    return np.nonzero(tri_mask)[0], np.nonzero(edge_mask)[0]


@pytest.mark.parametrize("eps", [1.0 / 8.0, 1.0 / 16.0])
def test_volsup_support_matches_per_cell_loop(template8, eps):
    cfg = geometry.DomainConfig(eps=eps, hole_radius=0.25, hole_poly=32,
                                k_rect=K_RECT, h_ref=1.0 / 8.0)
    mesh = geometry.build_perforated_mesh(cfg)
    tri_cell, edge_cell = _reference_cells(mesh, template8, cfg.n_cells)
    # the cells Mesh.cells derives from centroids and midpoints are the same
    hole = mesh.edge_kind == geometry.HOLE_BDRY
    assert mesh.cells(mesh.nodes[mesh.triangles].mean(axis=1)).tobytes() == tri_cell.tobytes()
    assert mesh.cells(mesh.nodes[mesh.boundary_edges[hole]].mean(axis=1)).tobytes() \
        == edge_cell[hole].tobytes()
    tris, edges = lab._volsup_support(mesh, K_RECT)
    ref_tris, ref_edges = _volsup_support_per_cell(mesh, tri_cell, edge_cell,
                                                   cfg.n_cells, K_RECT)
    assert len(tris) and len(edges)
    assert np.array_equal(tris, ref_tris)
    assert np.array_equal(edges, ref_edges)


def _osc_u(p):
    return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])


def _osc_v(p):
    return (p[:, 0] + 2.0 * p[:, 1]) * _osc_u(p)


def test_periodic_osc(bundle_quarter, cell_sol8):
    u_fn, v_fn = _osc_u, _osc_v
    row = lab.check_periodic_osc(cell_sol8, bundle_quarter, u_fn, v_fn)
    assert row.check == "periodic_osc"
    assert np.isfinite(row.worst_ratio) and row.worst_ratio > 0.0
    # zero field short-circuits to ratio 0
    zero = lab.check_periodic_osc(cell_sol8, bundle_quarter,
                                  lambda p: np.zeros(len(p)), v_fn)
    assert zero.worst_ratio == 0.0
    # scale invariance: doubling u doubles numerator and denominator alike
    row2 = lab.check_periodic_osc(cell_sol8, bundle_quarter,
                                  lambda p: 2.0 * u_fn(p), v_fn)
    assert row2.worst_ratio == pytest.approx(row.worst_ratio, rel=1e-12)


def _periodic_osc_full_mesh(sol, bundle, u_fn, v_fn):
    """The ratio with its H1 norms from S and M assembled over the FLUID
    triangles of the whole mesh, the fields sampled at every node."""
    mesh, eps = bundle.mesh, bundle.mesh.eps
    fl = mesh.fluid_triangles()
    centroids = mesh.nodes[mesh.triangles[fl]].mean(axis=1)
    chi1 = eval_chi(sol, mesh, fl, centroids=True)[:, 0]
    total = np.sum(mesh.areas()[fl] * chi1 * u_fn(centroids) * v_fn(centroids))
    H1 = fem.assemble_stiffness(mesh) + fem.assemble_mass(mesh)
    uu, vv = u_fn(mesh.nodes), v_fn(mesh.nodes)
    return abs(total) / (eps * np.sqrt(uu @ (H1 @ uu)) * np.sqrt(vv @ (H1 @ vv)))


@pytest.mark.parametrize("which", ["bundle_quarter", "bundle_eighth"])
def test_periodic_osc_matches_full_mesh_norms(which, cell_sol8, request):
    # both fields vanish on the outer boundary, where the reduced DoFs end
    bundle = request.getfixturevalue(which)
    row = lab.check_periodic_osc(cell_sol8, bundle, _osc_u, _osc_v)
    assert row.worst_ratio == pytest.approx(
        _periodic_osc_full_mesh(cell_sol8, bundle, _osc_u, _osc_v), rel=1e-12)


def test_strip_poincare(a_mesh32, dirichlet_modes32):
    u = dirichlet_modes32[0]
    row = lab.check_strip_poincare(a_mesh32, u, [0.2, 0.1, 0.05])
    assert row.check == "strip_poincare"
    assert np.isfinite(row.worst_ratio) and row.worst_ratio > 0.0
    assert row.passed
    # delta larger than the inradius degenerates to the whole of A and is
    # still a valid ratio
    wide = lab.check_strip_poincare(a_mesh32, u, [10.0])
    assert np.isfinite(wide.worst_ratio) and wide.worst_ratio > 0.0


def test_eigen_bounds():
    alpha = np.array([79.0, 197.0])
    sweep = {0.25: np.array([19.0, 21.0]), 0.125: np.array([21.0, 24.0])}
    row = lab.check_eigen_bounds(sweep, alpha)
    assert row.passed
    # upper-bound violation flips the flag
    sweep_bad = {0.25: np.array([19.0, 21.0]), 0.125: np.array([90.0, 95.0])}
    assert not lab.check_eigen_bounds(sweep_bad, alpha).passed
    with pytest.raises(ConfigError):
        lab.check_eigen_bounds({0.25: np.array([19.0])}, alpha)


def test_norm_equivalence(bundle_quarter):
    row = lab.check_norm_equivalence(bundle_quarter)
    assert row.check == "norm_equivalence"
    assert row.passed  # report-only check
    assert row.worst_ratio >= 1.0 - 1e-12  # eps-norm dominates the H1 seminorm


@pytest.mark.parametrize("which", ["bundle_quarter", "bundle_eighth"])
def test_norm_equivalence_in_sectors_matches_one_sector(which, request, monkeypatch):
    """R commutes with the quarter turn, so norm equivalence runs in the
    bundle's own E, A and B sectors, through their LUs of A, and its
    constant is the one-sector value to 1e-12 relative."""
    bundle = request.getfixturevalue(which)
    seen = _sectors_seen(monkeypatch)
    row = lab.check_norm_equivalence(bundle)
    assert seen == [bundle.sectors] and len(seen[0]) == 3
    t = eigensolve.extreme_eigenvalues(bundle.R, bundle.A, "LA")[-1]
    assert row.worst_ratio == pytest.approx(np.sqrt(1.0 / (1.0 - t)), rel=1e-12)


def test_rows_are_json_clean(bundle_quarter):
    import json
    row = lab.check_trace(bundle_quarter).as_dict()
    json.dumps(row)  # no numpy scalar types may leak into the report
    assert isinstance(row["passed"], bool)
    assert isinstance(row["worst_ratio"], float)
