"""The three eigenproblems, the source operator and the extension operator."""

import numpy as np
import pytest

from homoglab import fem, geometry, spectral
from homoglab.eigensolve import solve_gevp
from homoglab.errors import SolverError

K_RECT = (0.25, 0.25, 0.75, 0.75)
PI2 = np.pi * np.pi


def test_perforated_spectrum_structure(spec_quarter):
    lam = spec_quarter.eigenvalues
    assert (lam > 0.0).all()
    assert (np.diff(lam) >= 0.0).all()
    # first eigenvalue simple, first eigenfunction sign-definite
    assert lam[1] - lam[0] > 1e-8
    u1 = spec_quarter.eigenvectors[:, 0]
    assert float(u1.min()) * float(u1.max()) >= -1e-6 * float(np.max(np.abs(u1)))**2


def test_neumann_monotonicity(spec_quarter, bundle_quarter):
    # dropping the Robin mass never increases an eigenvalue
    neumann = solve_gevp(bundle_quarter.S, bundle_quarter.M, 4)
    assert (neumann.eigenvalues <= spec_quarter.eigenvalues + 1e-9).all()


def test_perforated_reduces_to_laplacian_without_holes():
    cfg = geometry.DomainConfig(eps=0.5, hole_radius=0.0, hole_poly=32,
                                k_rect=K_RECT, h_ref=1.0 / 16.0)
    spec, bundle = spectral.solve_perforated_evp(cfg, 3)
    assert bundle.R.nnz == 0
    assert spec.eigenvalues[0] == pytest.approx(2.0 * PI2, rel=2e-2)
    assert spec.eigenvalues[1] == pytest.approx(5.0 * PI2, rel=2e-2)


def test_homogenized_identity_tensor():
    mesh = geometry.build_domain_mesh((0.0, 0.0, 1.0, 1.0), 1.0 / 32.0)
    spec, _ = spectral.solve_homogenized_evp(mesh, np.eye(2), 1.0, 3)
    assert spec.eigenvalues[0] == pytest.approx(2.0 * PI2, rel=1e-2)
    assert spec.eigenvalues[1] == pytest.approx(5.0 * PI2, rel=1e-2)
    assert spec.eigenvalues[2] == pytest.approx(5.0 * PI2, rel=1e-2)


def test_homogenized_scaling_and_normalization(a_mesh32):
    c = 1.7
    s1, b1 = spectral.solve_homogenized_evp(a_mesh32, np.eye(2), 1.0, 2)
    s2, _ = spectral.solve_homogenized_evp(a_mesh32, c * np.eye(2), 1.0, 2)
    assert np.allclose(s2.eigenvalues, c * s1.eigenvalues, rtol=1e-9)
    assert np.allclose(np.abs(s2.eigenvectors[:, 0]), np.abs(s1.eigenvectors[:, 0]),
                       atol=1e-8)
    # normalization int |u|^2 = 1/|Y|
    area = 0.8
    s3, b3 = spectral.solve_homogenized_evp(a_mesh32, np.eye(2), area, 1)
    u = s3.eigenvectors[:, 0]
    assert float(u @ (b3.M @ u)) == pytest.approx(1.0 / area, rel=1e-12)
    # non positive definite tensor rejected
    with pytest.raises(SolverError):
        spectral.solve_homogenized_evp(a_mesh32, np.diag([1.0, -1.0]), 1.0, 1)


def test_dirichlet_laplacian_on_half_square(dirichlet_spec32):
    # A has side 1/2: eigenvalues are 4x the unit-square values
    assert dirichlet_spec32.eigenvalues[0] == pytest.approx(8.0 * PI2, rel=1e-2)
    assert dirichlet_spec32.eigenvalues[0] < dirichlet_spec32.eigenvalues[1]
    assert (np.diff(dirichlet_spec32.eigenvalues) >= 0.0).all()


def test_apply_Keps(spec_quarter, bundle_quarter):
    # eigen-identity K u = u / lambda
    u = spec_quarter.eigenvectors[:, 0]
    lam = spec_quarter.eigenvalues[0]
    Ku = spectral.apply_Keps(bundle_quarter, u)
    assert np.allclose(Ku, u / lam, atol=1e-8)
    # zero maps to zero
    assert np.allclose(spectral.apply_Keps(bundle_quarter, np.zeros_like(u)), 0.0)
    # self-adjointness in the energy inner product
    rng = np.random.default_rng(9)
    A = bundle_quarter.A
    for _ in range(5):
        f = rng.standard_normal(len(u))
        g = rng.standard_normal(len(u))
        lhs = float(spectral.apply_Keps(bundle_quarter, f) @ (A @ g))
        rhs = float(f @ (A @ spectral.apply_Keps(bundle_quarter, g)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    # wrong bundle kind
    _, b_dir = spectral.solve_dirichlet_laplacian(
        geometry.build_domain_mesh(K_RECT, 0.5 / 8.0), 1)
    with pytest.raises(SolverError):
        spectral.apply_Keps(b_dir, np.zeros(b_dir.red.dim))


def test_one_factorization_per_bundle(monkeypatch, template8):
    from homoglab import eigensolve
    original = eigensolve.factorized_solver
    made = []

    def counting(A):
        made.append(A.shape)
        return original(A)

    monkeypatch.setattr(spectral, "factorized_solver", counting)
    monkeypatch.setattr(eigensolve, "factorized_solver", counting)
    cfg = geometry.DomainConfig(eps=0.25, hole_radius=0.25, hole_poly=32,
                                k_rect=K_RECT, h_ref=1.0 / 8.0)
    spec, bundle = spectral.solve_perforated_evp(cfg, 4, cell_mesh=template8)
    for j in range(2):
        spectral.apply_Keps(bundle, spec.eigenvectors[:, j])
    assert made == [bundle.A.shape]


def test_rayleigh_quotient(spec_quarter, bundle_quarter):
    u1 = spec_quarter.eigenvectors[:, 0]
    lam1 = spec_quarter.eigenvalues[0]
    assert spectral.rayleigh_quotient(bundle_quarter, u1) == pytest.approx(lam1, rel=1e-10)
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = rng.standard_normal(len(u1))
        assert spectral.rayleigh_quotient(bundle_quarter, v) >= lam1 - 1e-9
    with pytest.raises(SolverError):
        spectral.rayleigh_quotient(bundle_quarter, np.zeros(len(u1)))


def _fluid_only_mesh(cfg, cell):
    """The FLUID-only renumbered copy of the tiled mesh that the perforated
    problem used to be assembled on, kept as the reference."""
    n = cfg.n_cells
    full = geometry.tile_template(cfg, cell)

    keep_tri = full.tri_region == geometry.FLUID
    tris = full.triangles[keep_tri]
    used = np.zeros(full.n_nodes, dtype=bool)
    used[tris.ravel()] = True
    new_of_old = -np.ones(full.n_nodes, dtype=np.int64)
    new_of_old[used] = np.arange(int(used.sum()))

    keep_edge = used[full.boundary_edges].all(axis=1)

    mesh = geometry.Mesh(
        nodes=full.nodes[used],
        triangles=new_of_old[tris],
        tri_region=np.zeros(len(tris), dtype=np.int64),
        tri_cell=full.tri_cell[keep_tri],
        boundary_edges=new_of_old[full.boundary_edges[keep_edge]],
        edge_kind=full.edge_kind[keep_edge],
        edge_cell=full.edge_cell[keep_edge],
        eps=cfg.eps,
        meta={
            "template": cell,
            "full_mesh": full,
            "fluid_to_full": np.nonzero(used)[0],
            "n": n,
            "n_holes": n * n if cfg.hole_radius > 0.0 else 0,
        },
    )
    return geometry._validate(mesh, "perforated mesh")


@pytest.mark.parametrize("eps, r, h_ref", [
    (1 / 4, 0.25, 1 / 8), (1 / 8, 0.25, 1 / 8), (1 / 16, 0.25, 1 / 8),
    (1 / 4, 0.0, 1 / 8),      # hole-free template
    (1 / 6, 0.25, 1 / 16), (1 / 2, 0.25, 1 / 8)])
def test_bundle_matches_fluid_only_mesh(eps, r, h_ref):
    """Assembling over the FLUID triangles of the tiled mesh and eliminating
    the nodes off Omega_eps gives the reduced matrices of the FLUID-only
    copy bitwise."""
    cfg = geometry.DomainConfig(eps=eps, hole_radius=r, k_rect=K_RECT, h_ref=h_ref)
    cell = geometry.build_cell_mesh(r, 32, h_ref)
    bundle = spectral.build_perforated_bundle(cfg, cell)
    ref_mesh = _fluid_only_mesh(cfg, cell)
    ref = fem.apply_constraints(
        fem.assemble_stiffness(ref_mesh), fem.assemble_mass(ref_mesh),
        fem.assemble_robin_mass(ref_mesh, K_RECT),
        fem.ConstraintMap(kind=fem.DIRICHLET, dirichlet=ref_mesh.outer_nodes()),
        n_nodes=ref_mesh.n_nodes)
    assert bundle.red.dim == ref.dim
    assert np.array_equal(bundle.red.keep, ref_mesh.meta["fluid_to_full"][ref.keep])
    for name, got, want in (("S", bundle.S, ref.S), ("M", bundle.M, ref.M),
                            ("R", bundle.R, ref.R),
                            ("A", bundle.A, (ref.S + ref.R).tocsr())):
        for part in ("data", "indices", "indptr"):
            g, w = getattr(got, part), getattr(want, part)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), f"{name}.{part}"


def test_extend_constant_field(bundle_quarter):
    red = bundle_quarter.red
    out = spectral.extend_Teps(bundle_quarter, np.ones(red.dim))
    mesh = bundle_quarter.mesh
    # the input is 1 on every non-Dirichlet node; holes are interior, so the
    # harmonic fill reproduces 1 there, while outer nodes stay at 0
    outer = set(int(n) for n in mesh.outer_nodes())
    for n in range(mesh.n_nodes):
        expect = 0.0 if n in outer else 1.0
        assert out[n] == pytest.approx(expect, abs=1e-10)


def test_extend_linear_field(bundle_quarter):
    red = bundle_quarter.red
    mesh = bundle_quarter.mesh
    lin = 0.3 * mesh.nodes[:, 0] + 0.7 * mesh.nodes[:, 1] + 0.1
    out = spectral.extend_Teps(bundle_quarter, red.restrict(lin))
    # hole-interior nodes reproduce the linear field exactly (the hole
    # boundary data is linear and linears are discrete harmonic)
    interior = ~mesh.fluid_nodes()
    assert interior.sum() > 0
    assert np.allclose(out[interior], lin[interior], atol=1e-10)


def test_extension_energy_uniform(template8, spec_quarter, bundle_quarter):
    ratios = []
    for eps, (spec, bundle) in {
        0.25: (spec_quarter, bundle_quarter),
        0.125: spectral.solve_perforated_evp(
            geometry.DomainConfig(eps=0.125, hole_radius=0.25, hole_poly=32,
                                  k_rect=K_RECT, h_ref=1.0 / 8.0),
            1, cell_mesh=template8),
    }.items():
        # int_Omega |grad T_eps u|^2 / int_Omega_eps |grad u|^2
        mesh = bundle.mesh
        ext = spectral.extend_Teps(bundle, spec.eigenvectors[:, 0])
        S_all = fem.assemble_stiffness(mesh, tris=np.arange(mesh.n_triangles))
        r = float(ext @ (S_all @ ext)) / float(ext @ (fem.assemble_stiffness(mesh) @ ext))
        assert r >= 1.0 - 1e-12
        ratios.append(r)
    assert max(ratios) / min(ratios) <= 2.0
