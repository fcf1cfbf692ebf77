"""Lemma checks: sharp constants against dense eigensolves and white noise,
determinism, guards and ratio properties."""

import numpy as np
import pytest
import scipy.linalg as la

from homoglab import fem, geometry, lab, spectral
from homoglab.errors import ConfigError

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


def _pencils(bundle, sol):
    """The three lemma pencils (A, B) as dense arrays, reduced by hand so they
    share no code with lab: trace, volsup on the DoFs Omega_eps^K touches,
    R against S."""
    mesh, P, eps = bundle.mesh, bundle.red.P, bundle.mesh.eps
    R_all = P.T @ fem.assemble_robin_mass(mesh, k_rect=None) @ P
    tris, edges = lab._volsup_support(mesh, K_RECT)
    M_sub = P.T @ fem.assemble_mass(mesh, tris=tris) @ P
    S_sub = P.T @ fem.assemble_stiffness(mesh, tris=tris) @ P
    R_sub = P.T @ fem.assemble_robin_mass(mesh, k_rect=None, edges=edges) @ P
    on = S_sub.diagonal() > 0.0
    L = sol.c_star / eps * M_sub - R_sub
    return {"trace": (R_all.toarray(), (bundle.M / eps + eps * bundle.S).toarray()),
            "volsup": (L.toarray()[np.ix_(on, on)], S_sub.toarray()[np.ix_(on, on)]),
            "norm_equivalence": (bundle.R.toarray(), bundle.S.toarray())}


def _sharp_rows(bundle, sol):
    return {"trace": lab.check_trace(bundle),
            "volsup": lab.check_volsup(bundle, sol, K_RECT),
            "norm_equivalence": lab.check_norm_equivalence(bundle)}


def test_sharp_constants_match_dense_eigh(bundle_quarter, cell_sol8):
    # LAPACK on the full pencils shares no code with the Lanczos path
    ends = {}
    for name, (A, B) in _pencils(bundle_quarter, cell_sol8).items():
        vals = la.eigh(A, B, eigvals_only=True)
        ends[name] = (vals[0], vals[-1])
    want = {"trace": ends["trace"][1],
            "volsup": max(-ends["volsup"][0], ends["volsup"][1]),
            "norm_equivalence": np.sqrt(1.0 + ends["norm_equivalence"][1])}
    # the surface-averaging pencil is indefinite and its negative end wins
    assert ends["volsup"][0] < 0.0 < ends["volsup"][1]
    assert -ends["volsup"][0] > ends["volsup"][1]
    for name, row in _sharp_rows(bundle_quarter, cell_sol8).items():
        assert row.check == name and row.passed
        assert row.worst_ratio == pytest.approx(want[name], rel=1e-12), name


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


def test_periodic_osc(bundle_quarter, cell_sol8):
    def u_fn(p):
        return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

    def v_fn(p):
        return (p[:, 0] + 2.0 * p[:, 1]) * u_fn(p)

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


def test_rows_are_json_clean(bundle_quarter):
    import json
    row = lab.check_trace(bundle_quarter).as_dict()
    json.dumps(row)  # no numpy scalar types may leak into the report
    assert isinstance(row["passed"], bool)
    assert isinstance(row["worst_ratio"], float)
