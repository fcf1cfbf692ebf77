"""Randomized lemma stress checks: determinism, guards and ratio properties."""

import numpy as np
import pytest

from homoglab import fem, geometry, lab, spectral
from homoglab.eigensolve import Spectrum
from homoglab.errors import ConfigError
from homoglab.harness import _expand_dirichlet

K_RECT = (0.25, 0.25, 0.75, 0.75)


def test_trace_check_deterministic(bundle_quarter):
    r1 = lab.check_trace(bundle_quarter, 20, seed=42)
    r2 = lab.check_trace(bundle_quarter, 20, seed=42)
    assert r1.as_dict() == r2.as_dict()
    assert r1.check == "trace"
    assert r1.eps == 0.25
    assert np.isfinite(r1.worst_ratio) and r1.worst_ratio > 0.0
    assert r1.passed
    # different seed gives a different (finite) worst case in general
    r3 = lab.check_trace(bundle_quarter, 20, seed=43)
    assert np.isfinite(r3.worst_ratio)


def test_trace_ratio_scale_invariant(bundle_quarter):
    # both sides of the trace bound are quadratic in the field
    R_all = fem.assemble_robin_mass(bundle_quarter.mesh, k_rect=None)
    R_all = (bundle_quarter.red.P.T @ R_all @ bundle_quarter.red.P).tocsr()
    eps = bundle_quarter.mesh.eps
    rng = np.random.default_rng(1)
    u = rng.standard_normal(bundle_quarter.red.dim)

    def ratio(w):
        num = float(w @ (R_all @ w))
        den = float(w @ (bundle_quarter.M @ w)) / eps + eps * float(w @ (bundle_quarter.S @ w))
        return num / den

    assert ratio(2.0 * u) == pytest.approx(ratio(u), rel=1e-12)


def test_volsup_check(bundle_quarter, cell_sol8):
    row = lab.check_volsup(bundle_quarter, cell_sol8, K_RECT, 20, seed=5)
    assert row.check == "volsup"
    assert np.isfinite(row.worst_ratio) and row.worst_ratio >= 0.0
    assert row.passed
    assert row.samples == 20
    # reproducible bitwise
    assert row.as_dict() == lab.check_volsup(bundle_quarter, cell_sol8,
                                             K_RECT, 20, seed=5).as_dict()


def test_volsup_empty_subdomain(template8, cell_sol8):
    # at eps = 1/2 every cell overlaps K, so Omega_eps^K is empty
    cfg = geometry.DomainConfig(eps=0.5, hole_radius=0.25, hole_poly=32,
                                k_rect=K_RECT, h_ref=1.0 / 8.0)
    bundle = spectral.build_perforated_bundle(cfg, template8)
    with pytest.raises(ConfigError):
        lab.check_volsup(bundle, cell_sol8, K_RECT, 5, seed=0)


def _volsup_support_per_cell(mesh, k_rect):
    """Reference selection: loop over the cells, keep the FLUID triangles and
    HOLE_BDRY edges of those off K."""
    eps = mesh.eps
    n = mesh.meta["n"]
    kx0, ky0, kx1, ky1 = k_rect
    ok_cells = set()
    for iy in range(n):
        for ix in range(n):
            x0, y0 = eps * ix, eps * iy
            x1, y1 = eps * (ix + 1), eps * (iy + 1)
            if x1 <= kx0 or x0 >= kx1 or y1 <= ky0 or y0 >= ky1:
                ok_cells.add((ix, iy))
    tri_mask = np.array([reg == geometry.FLUID and (int(cx), int(cy)) in ok_cells
                         for reg, (cx, cy) in zip(mesh.tri_region, mesh.tri_cell)])
    edge_mask = np.array([kind == geometry.HOLE_BDRY and (int(cx), int(cy)) in ok_cells
                          for kind, (cx, cy) in zip(mesh.edge_kind, mesh.edge_cell)])
    return np.nonzero(tri_mask)[0], np.nonzero(edge_mask)[0]


@pytest.mark.parametrize("eps", [1.0 / 8.0, 1.0 / 16.0])
def test_volsup_support_matches_per_cell_loop(template8, eps):
    cfg = geometry.DomainConfig(eps=eps, hole_radius=0.25, hole_poly=32,
                                k_rect=K_RECT, h_ref=1.0 / 8.0)
    mesh = geometry.build_perforated_mesh(cfg, template8)
    tris, edges = lab._volsup_support(mesh, K_RECT)
    ref_tris, ref_edges = _volsup_support_per_cell(mesh, K_RECT)
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


def test_strip_poincare(a_mesh32, dirichlet_spec32):
    u = _expand_dirichlet(a_mesh32, dirichlet_spec32.eigenvectors[:, 0])
    row = lab.check_strip_poincare(a_mesh32, u, [0.2, 0.1, 0.05])
    assert row.check == "strip_poincare"
    assert np.isfinite(row.worst_ratio) and row.worst_ratio > 0.0
    assert row.passed
    # delta larger than the inradius degenerates to the whole of A and is
    # still a valid ratio
    wide = lab.check_strip_poincare(a_mesh32, u, [10.0])
    assert np.isfinite(wide.worst_ratio) and wide.worst_ratio > 0.0


def _dummy_spec(values):
    v = np.asarray(values, dtype=float)
    return Spectrum(eigenvalues=v, eigenvectors=np.eye(len(v)),
                    residuals=np.zeros(len(v)))


def test_eigen_bounds():
    homog = _dummy_spec([66.0, 165.0])
    alpha = _dummy_spec([79.0, 197.0])
    sweep = {0.25: _dummy_spec([19.0, 21.0]), 0.125: _dummy_spec([21.0, 24.0])}
    row = lab.check_eigen_bounds(sweep, homog, alpha)
    assert row.passed
    # upper-bound violation flips the flag
    sweep_bad = {0.25: _dummy_spec([19.0, 21.0]), 0.125: _dummy_spec([90.0, 95.0])}
    assert not lab.check_eigen_bounds(sweep_bad, homog, alpha).passed
    with pytest.raises(ConfigError):
        lab.check_eigen_bounds({0.25: _dummy_spec([19.0])}, homog, alpha)


def test_norm_equivalence(bundle_quarter):
    row = lab.check_norm_equivalence(bundle_quarter, 20, seed=8)
    assert row.check == "norm_equivalence"
    assert row.passed  # report-only check
    assert row.worst_ratio >= 1.0 - 1e-12  # eps-norm dominates the H1 seminorm


def test_rows_are_json_clean(bundle_quarter):
    import json
    row = lab.check_trace(bundle_quarter, 5, seed=1).as_dict()
    json.dumps(row)  # no numpy scalar types may leak into the report
    assert isinstance(row["passed"], bool)
    assert isinstance(row["worst_ratio"], float)
