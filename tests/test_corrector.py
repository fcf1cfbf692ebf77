"""Two-scale correctors, Procrustes alignment, principal-angle gaps and the
residual localization certificate."""

import numpy as np
import pytest

from homoglab import corrector as corr
from homoglab import geometry, spectral
from homoglab.cell import solve_cell_problem
from homoglab.errors import AlignmentError, SolverError

K_RECT = (0.25, 0.25, 0.75, 0.75)


@pytest.fixture(scope="module")
def hom_field(a_mesh32, cell_sol8):
    spec, bundle = spectral.solve_homogenized_evp(
        a_mesh32, cell_sol8.a_hom, cell_sol8.cell_area, 1)
    return bundle.red.expand(spec.eigenvectors[:, 0])


@pytest.fixture(scope="module")
def sweep(cell_sol8, a_mesh32, hom_field):
    """Correctors with and without cutoff over three cell sizes."""
    out = {}
    for eps in (0.25, 0.125, 0.0625):
        cfg = geometry.DomainConfig(eps=eps, hole_radius=0.25, hole_poly=32,
                                    k_rect=K_RECT, h_ref=1.0 / 8.0)
        bundle = spectral.build_perforated_bundle(cfg)
        u_off = corr.build_corrector(hom_field[:, None], a_mesh32, cell_sol8,
                                     eps, bundle, cutoff=False)[0]
        u_on = corr.build_corrector(hom_field[:, None], a_mesh32, cell_sol8,
                                    eps, bundle, cutoff=True)[0]
        out[eps] = (bundle, u_off, u_on)
    return out


def test_no_hole_corrector_is_interpolant(a_mesh32, hom_field):
    cell0 = geometry.build_cell_mesh(0.0, 32, 1.0 / 8.0)
    sol0 = solve_cell_problem(cell0)
    cfg = geometry.DomainConfig(eps=0.25, hole_radius=0.0, hole_poly=32,
                                k_rect=K_RECT, h_ref=1.0 / 8.0)
    bundle = spectral.build_perforated_bundle(cfg)
    U = corr.build_corrector(hom_field[:, None], a_mesh32, sol0, 0.25, bundle,
                             cutoff=False)
    interp = geometry.interpolate(
        a_mesh32, hom_field, bundle.mesh.nodes)[0][bundle.red.keep]
    assert np.allclose(U[0], interp, atol=1e-12)


def test_batched_corrector_matches_single_modes(sweep, a_mesh32, cell_sol8):
    # one call over three macro modes gives each mode's own corrector
    spec, hbundle = spectral.solve_homogenized_evp(
        a_mesh32, cell_sol8.a_hom, cell_sol8.cell_area, 3)
    modes = hbundle.red.expand(spec.eigenvectors)
    bundle = sweep[0.125][0]
    U = corr.build_corrector(modes, a_mesh32, cell_sol8, 0.125, bundle,
                             cutoff=True)
    assert U.shape == (3, bundle.red.dim)
    for j in range(3):
        one = corr.build_corrector(modes[:, j:j + 1], a_mesh32, cell_sol8,
                                   0.125, bundle, cutoff=True)
        assert np.array_equal(U[j], one[0])


def test_cutoff_only_acts_near_boundary(sweep, a_mesh32):
    rect = a_mesh32.bounds()
    for eps, (bundle, u_off, u_on) in sweep.items():
        d = geometry.rect_distance(rect, bundle.mesh.nodes[bundle.red.keep])
        far = d > 2.0 * eps
        assert np.array_equal(u_on[far], u_off[far])
        inside = d > 0.0
        # outside A both correctors vanish
        assert np.max(np.abs(u_on[~inside])) == 0.0


def test_corrector_amplitude_scales_with_eps(sweep, a_mesh32, hom_field):
    # the corrector term is eps * chi * grad u, so its L2 size decreases
    # with eps (each eps is measured on its own matched mesh)
    norms = []
    for eps in (0.25, 0.125, 0.0625):
        bundle, u_off, _ = sweep[eps]
        interp = geometry.interpolate(
            a_mesh32, hom_field, bundle.mesh.nodes)[0][bundle.red.keep]
        d = u_off - interp
        norms.append(float(np.sqrt(d @ (bundle.M @ d))))
    for a, b in zip(norms, norms[1:]):
        assert a >= b - 1e-12


def test_alignment_identity_and_sign(a_mesh32, dirichlet_modes32):
    # two well-separated modes of the Dirichlet problem as the test family
    from homoglab import fem
    M = fem.assemble_mass(a_mesh32)
    u = dirichlet_modes32[[0, 3]]
    res = corr.align_eigenspaces(u, u, M)
    assert np.allclose(res.matrix, np.eye(2), atol=1e-10)
    assert np.allclose(res.l2_errors, 0.0, atol=1e-10)
    assert corr.eigenspace_gap(u, u, M) <= 1e-10

    res = corr.align_eigenspaces(u, -u, M)
    assert np.allclose(res.matrix, -np.eye(2), atol=1e-10)
    assert np.allclose(res.l2_errors, 0.0, atol=1e-10)


def test_alignment_recovers_rotation(a_mesh32, dirichlet_modes32):
    from homoglab import fem
    M = fem.assemble_mass(a_mesh32)
    u = dirichlet_modes32[[0, 3]]
    th = 0.37
    Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    res = corr.align_eigenspaces(u, Q @ u, M)
    assert np.allclose(res.matrix, Q, atol=1e-10)
    assert np.max(res.l2_errors) <= 1e-10
    # Procrustes never does worse than the identity alignment
    ident_err = np.sqrt(np.einsum("ln,ln->l", (Q @ u - u) @ M.toarray(), Q @ u - u))
    assert res.l2_errors.sum() <= ident_err.sum() + 1e-12


def test_alignment_errors(a_mesh32, dirichlet_modes32):
    from homoglab import fem
    M = fem.assemble_mass(a_mesh32)
    v1 = dirichlet_modes32[0]
    v2 = dirichlet_modes32[1]
    with pytest.raises(AlignmentError):
        corr.align_eigenspaces(v1[None, :], v2[None, :], M)  # orthogonal pair
    with pytest.raises(AlignmentError):
        corr.align_eigenspaces(np.stack([v1, v2]), v1[None, :], M)


def test_eigenspace_gap_limits(a_mesh32, dirichlet_modes32):
    from homoglab import fem
    M = fem.assemble_mass(a_mesh32)
    v1 = dirichlet_modes32[0]
    v2 = dirichlet_modes32[1]
    assert corr.eigenspace_gap(v1[None, :], v1[None, :], M) <= 1e-12
    assert corr.eigenspace_gap(v1[None, :], v2[None, :], M) == pytest.approx(1.0, abs=1e-10)
    # basis invariance: a rotated basis of the same span has zero gap
    u = np.stack([v1, v2])
    th = 1.1
    Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert corr.eigenspace_gap(u, Q @ u, M) <= 1e-10


def test_visik_certificate(spec_quarter, bundle_quarter):
    u1 = spec_quarter.eigenvectors[:, 0]
    mu1 = 1.0 / spec_quarter.eigenvalues[0]
    res = corr.visik_check(bundle_quarter, u1, mu1, spec_quarter)
    assert res.residual <= 1e-8
    assert res.nearest_distance <= 1e-12
    assert res.nearest_index == 0
    assert res.certificate

    # detuned trial value: residual equals the detuning exactly, so the
    # certificate still holds with zero slack
    delta = 1e-3
    res = corr.visik_check(bundle_quarter, u1, mu1 + delta, spec_quarter)
    assert res.residual == pytest.approx(delta, rel=1e-6)
    assert res.nearest_distance == pytest.approx(delta, rel=1e-9)
    assert res.certificate

    # random trial field against twelve modes
    rng = np.random.default_rng(12)
    w = rng.standard_normal(len(u1))
    from homoglab.eigensolve import solve_gevp
    full = solve_gevp(bundle_quarter.A, bundle_quarter.M, 12)
    res = corr.visik_check(bundle_quarter, w, 1.0 / full.eigenvalues[5], full)
    assert res.nearest_distance <= res.residual * (1.0 + 1e-8)

    with pytest.raises(SolverError):
        corr.visik_check(bundle_quarter, np.zeros(len(u1)), mu1, spec_quarter)


def test_visik_check_solves_the_modes_it_needs(spec_quarter, bundle_quarter, lus):
    # lambda_4 = 72.6 is the discrete eigenvalue nearest 1/mu = 70; a one-mode
    # spectrum ends below 70, so the check has to solve further modes itself,
    # in the bundle's sectors, each LU made with no other alive
    from homoglab.eigensolve import solve_gevp
    u1 = spec_quarter.eigenvectors[:, 0]
    mu = 1.0 / 70.0
    one = solve_gevp(bundle_quarter.A, bundle_quarter.M, 1)
    twelve = solve_gevp(bundle_quarter.A, bundle_quarter.M, 12)
    del lus[:]
    short = corr.visik_check(bundle_quarter, u1, mu, one)
    assert len(lus) > len(bundle_quarter.sectors)
    assert [alive for *_, alive, _ in lus] == [0] * len(lus)
    full = corr.visik_check(bundle_quarter, u1, mu, twelve)
    assert short.nearest_index == full.nearest_index == 3
    assert short.nearest_distance == pytest.approx(full.nearest_distance, rel=1e-10)
    assert short.certificate and full.certificate


def test_corrector_consistency_order_eps(sweep, a_mesh32, hom_field):
    """Consistency with the cutoff off: U - u = eps chi(x/eps) . grad u is
    O(eps) in L2, so its L2 norm halves with eps (ratio in [1.5, 2.5]).

    The order holds in L2 only.  In the energy norm the gradient of the term,
    (grad_y chi)(x/eps) . grad u, is O(1): the cell equation gives
    int_Y |grad_y(xi . chi)|^2 = |Y| |xi|^2 - xi . a_hom xi, so the energy
    norm tends to the eps-independent sqrt(|Y| - a*) ||grad u||_L2(A).
    """
    errs = []
    for eps in (0.25, 0.125, 0.0625):
        bundle, u_off, _ = sweep[eps]
        interp = geometry.interpolate(
            a_mesh32, hom_field, bundle.mesh.nodes)[0][bundle.red.keep]
        d = u_off - interp
        errs.append(float(np.sqrt(d @ (bundle.M @ d))))
    for a, b in zip(errs, errs[1:]):
        assert 1.5 <= a / b <= 2.5


def test_cutoff_proximity_scaling(sweep):
    """||U_cutoff - U_plain||_L2 / eps^(3/2) stays in a factor-4 band."""
    vals = []
    for eps, (bundle, u_off, u_on) in sweep.items():
        d = u_on - u_off
        vals.append(float(np.sqrt(d @ (bundle.M @ d))) / eps**1.5)
    assert max(vals) / min(vals) <= 4.0
