"""The three eigenproblems, the source operator and the extension operator."""

import dataclasses
import gc
import types
import weakref

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from homoglab import eigensolve, fem, geometry, spectral
from homoglab.eigensolve import solve_gevp
from homoglab.errors import ConfigError, SolverError

from conftest import tiled_tolerance

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


def test_one_factorization_per_bundle(lus):
    """The solve makes one LU per sector, E first, and drops each as the
    sector's visit ends, before the next is made; the complex sector stands
    for two, so the sectors cover the reduced DoFs.  A later apply_Keps
    makes each sector's LU again, uses it and drops it before the next."""
    cfg = geometry.DomainConfig(eps=0.25, hole_radius=0.25, hole_poly=32,
                                k_rect=K_RECT, h_ref=1.0 / 8.0)
    spec, bundle = spectral.solve_perforated_evp(cfg, 4)
    sectors = [s.dim for s in bundle.sectors]
    assert [n for n, *_ in lus] == sectors
    assert [s.weight for s in bundle.sectors] == [2, 1, 1]
    assert sum(s.weight * s.dim for s in bundle.sectors) == bundle.red.dim
    for j in range(2):
        spectral.apply_Keps(bundle, spec.eigenvectors[:, j])
    assert [n for n, *_ in lus] == sectors * 3
    assert [alive for *_, alive, _ in lus] == [0] * 9
    assert all(ref() is None for *_, ref in lus)


def test_one_lu_alive_on_the_eigenvalue_path(lus):
    """`readers(bundle)` is called once the bundle is built, before any LU;
    each reader it returns runs on each sector in turn, in order, while
    that sector's LU and no other is alive.  The eigenpairs are bitwise
    those of a solve without readers, and no LU outlives its visit."""
    cfg = geometry.DomainConfig(eps=1 / 8, hole_radius=0.25, k_rect=K_RECT)
    plain, _ = spectral.solve_perforated_evp(cfg, 4)
    del lus[:]
    seen = []

    def readers(bundle):
        assert lus == []

        def reader(name):
            def read(s):
                alive = [ref() is not None for *_, ref in lus]
                seen.append((name, s.dim, alive))
            return read
        return reader("first"), reader("second")

    spec, bundle = spectral.solve_perforated_evp(cfg, 4, readers=readers)
    dims = [s.dim for s in bundle.sectors]
    assert [n for n, *_ in lus] == dims
    assert [alive for *_, alive, _ in lus] == [0, 0, 0]
    assert all(ref() is None for *_, ref in lus)
    assert seen == [(name, n, [j == i for j in range(i + 1)])
                    for i, n in enumerate(dims) for name in ("first", "second")]
    assert spec.eigenvalues.tobytes() == plain.eigenvalues.tobytes()
    assert spec.eigenvectors.tobytes() == plain.eigenvectors.tobytes()


def test_readers_run_once_when_a_sector_is_solved_again(lus, monkeypatch):
    """At eps = 1/8 and k = 15 the A sector's 5 values end below the merged
    15th, so it is solved again for 10, its LU made again: the readers run
    in the first visit of each sector only."""
    bundle = _bundle(eps=1 / 8)
    runs, read = [], []
    pairs = eigensolve.Sector.pairs

    def counting(self, B, k):
        runs.append((self.dim, k))
        return pairs(self, B, k)

    monkeypatch.setattr(eigensolve.Sector, "pairs", counting)
    solve_gevp(bundle.A, bundle.M, 15, sectors=bundle.sectors,
               readers=(lambda s: read.append(s.dim),))
    dims = [s.dim for s in bundle.sectors]
    assert runs == [(n, 5) for n in dims] + [(dims[1], 10)]
    assert read == dims
    assert [n for n, *_ in lus] == dims + dims[1:2]
    assert [alive for *_, alive, _ in lus] == [0] * 4


@pytest.mark.parametrize("k", [0, -1, 2.0, True, "4"])
def test_bad_k_refused_before_meshing(monkeypatch, k):
    def no_mesh(cfg):
        raise AssertionError("mesh built for an invalid k")

    monkeypatch.setattr(geometry, "build_perforated_mesh", no_mesh)
    cfg = geometry.DomainConfig(eps=0.25, hole_radius=0.25, k_rect=K_RECT)
    with pytest.raises(ConfigError, match="k must be an integer >= 1"):
        spectral.solve_perforated_evp(cfg, k)


def test_k_at_dimension_refused_before_factorizing(monkeypatch):
    def no_lu(A):
        raise AssertionError("LU made for k >= dimension")

    monkeypatch.setattr(eigensolve, "factorized_solver", no_lu)
    cfg = geometry.DomainConfig(eps=0.5, hole_radius=0.25, k_rect=K_RECT)
    with pytest.raises(SolverError, match="need 1 <= k < dimension, got k=285, n=285"):
        spectral.solve_perforated_evp(cfg, 285)


def _sparse_reachable(root):
    """The sparse matrices reachable from root through attributes,
    containers, bound methods and closures; classes, modules and the
    globals of functions are not followed."""
    found, seen, todo = [], set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if sp.issparse(obj):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            todo.extend(c.cell_contents for c in obj.__closure__ or ())
        else:
            todo.extend(gc.get_referents(obj))
    return found


def test_one_copy_per_operator(monkeypatch):
    """After the solve, the bundle holds A, M and R and no other matrix: S is
    derived, no P is built and no sector keeps a projected mass.
    Each sector's mass is projected for its own run and freed before the
    next sector's is projected."""
    built, masses = [], []
    build, project = spectral.build_perforated_bundle, spectral._TurnSector.project

    def keeping(cfg):
        built.append(build(cfg))
        return built[-1]

    def tracking(sector, X):
        out = project(sector, X)
        if X is built[0].M:
            assert all(ref() is None for ref in masses), "an earlier sector mass is alive"
            masses.append(weakref.ref(out))
        return out

    monkeypatch.setattr(spectral, "build_perforated_bundle", keeping)
    monkeypatch.setattr(spectral._TurnSector, "project", tracking)
    cfg = geometry.DomainConfig(eps=1 / 8, hole_radius=0.25, k_rect=K_RECT)
    _, bundle = spectral.solve_perforated_evp(cfg, 4)
    assert len(masses) == 3 and all(ref() is None for ref in masses)
    assert len(bundle.sectors) == 3
    operators = {id(bundle.A), id(bundle.M), id(bundle.R)}
    assert len(operators) == 3
    for root in (bundle, bundle.red):
        assert sorted(map(id, _sparse_reachable(root))) == sorted(operators)
    for s in bundle.sectors:
        assert [id(X) for X in _sparse_reachable(s)] == [id(bundle.A)]


def test_rayleigh_quotient(spec_quarter, bundle_quarter):
    def rq(u):  # (u'(S+R)u) / (u'Mu)
        return float(u @ (bundle_quarter.A @ u)) / float(u @ (bundle_quarter.M @ u))

    u1 = spec_quarter.eigenvectors[:, 0]
    lam1 = spec_quarter.eigenvalues[0]
    assert rq(u1) == pytest.approx(lam1, rel=1e-10)
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = rng.standard_normal(len(u1))
        assert rq(v) >= lam1 - 1e-9


def _fluid_only_mesh(cfg, cell):
    """The FLUID-only renumbered copy of the tiled mesh that the perforated
    problem used to be assembled on, kept as the reference, and the tiled
    node of each of its nodes."""
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
        boundary_edges=new_of_old[full.boundary_edges[keep_edge]],
        edge_kind=full.edge_kind[keep_edge],
        eps=cfg.eps,
    )
    return geometry._validate(mesh, "perforated mesh"), np.nonzero(used)[0]


@pytest.mark.parametrize("eps, r, h_ref", [
    (1 / 4, 0.25, 1 / 8), (1 / 8, 0.25, 1 / 8), (1 / 16, 0.25, 1 / 8),
    (1 / 4, 0.0, 1 / 8),      # hole-free template
    (1 / 6, 0.25, 1 / 16), (1 / 2, 0.25, 1 / 8)])
def test_bundle_matches_fluid_only_mesh(eps, r, h_ref):
    """Assembling over the FLUID triangles of the tiled mesh and eliminating
    the nodes off Omega_eps gives the reduced matrices of the FLUID-only
    copy, assembled triangle by triangle: the same sparsity bitwise, R
    bitwise, and S, M and A to the rounding of that per-triangle assembly
    (`conftest.tiled_tolerance`), since the bundle folds one cell's S and M
    onto every cell."""
    cfg = geometry.DomainConfig(eps=eps, hole_radius=r, k_rect=K_RECT, h_ref=h_ref)
    bundle = spectral.build_perforated_bundle(cfg)
    ref_mesh, fluid_to_full = _fluid_only_mesh(cfg, geometry.build_cell_mesh(r, 32, h_ref))
    ref = fem.apply_constraints(
        fem.assemble_stiffness(ref_mesh), fem.assemble_mass(ref_mesh),
        fem.assemble_robin_mass(ref_mesh, K_RECT),
        fem.dof_map(ref_mesh.n_nodes, ref_mesh.outer_nodes()))
    assert bundle.red.dim == ref.dim
    assert np.array_equal(bundle.red.keep, fluid_to_full[ref.keep])
    tol = tiled_tolerance(eps, h_ref)
    for name, got, want in (("S", bundle.S, ref.A), ("M", bundle.M, ref.M),
                            ("R", bundle.R, ref.R),
                            ("A", bundle.A, (ref.A + ref.R).tocsr())):
        for part in ("indices", "indptr"):
            g, w = getattr(got, part), getattr(want, part)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), f"{name}.{part}"
        assert got.data.dtype == want.data.dtype
        err = np.abs(got.data - want.data).max(initial=0.0)
        scale = np.abs(want.data).max(initial=0.0)
        assert err <= (0.0 if name == "R" else tol) * scale, f"{name}.data off by {err:.2e}"


def test_bundle_assembles_from_one_cell(monkeypatch):
    """Building the bundle sums no more COO triplets in one go than n^2
    copies of one cell's matrix hold (triangle by triangle, S and M would
    take 9 per FLUID triangle), and every triplet index is int32."""
    seen = []
    accumulate = fem._accumulate

    def recording(n, i, j, vals):
        seen.append((len(i), i.dtype, j.dtype))
        return accumulate(n, i, j, vals)

    monkeypatch.setattr(fem, "_accumulate", recording)
    cfg = geometry.DomainConfig(eps=1 / 8, hole_radius=0.25, k_rect=K_RECT)
    spectral.build_perforated_bundle(cfg)
    monkeypatch.undo()
    cell = fem.assemble_mass(geometry.build_cell_mesh(0.25, 32, 1 / 8))
    # R and its reduction; cell 0's M and S, each folded straight onto the
    # reduced DoFs, so no full-size S or M is made
    assert len(seen) == 6
    assert max(n for n, *_ in seen) <= 64 * cell.nnz
    assert all(i == j == np.int32 for _, i, j in seen)


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
    out = spectral.extend_Teps(bundle_quarter, lin[red.keep])
    # hole-interior nodes reproduce the linear field exactly (the hole
    # boundary data is linear and linears are discrete harmonic)
    interior = ~mesh.fluid_nodes()
    assert interior.sum() > 0
    assert np.allclose(out[interior], lin[interior], atol=1e-10)


def test_extend_factorizes_once(monkeypatch):
    # one LU of the hole Laplacian per call, whatever the number of fields,
    # and nothing kept on the bundle between calls
    made = []

    def counting(A):
        made.append(A.shape)
        return real(A)

    real = eigensolve.factorized_solver
    monkeypatch.setattr(eigensolve, "factorized_solver", counting)
    cfg = geometry.DomainConfig(eps=0.25, hole_radius=0.25, hole_poly=32,
                                k_rect=K_RECT, h_ref=1.0 / 8.0)
    bundle = spectral.build_perforated_bundle(cfg)
    U = np.random.default_rng(3).standard_normal((bundle.red.dim, 3))
    batch = spectral.extend_Teps(bundle, U)
    assert len(made) == 1
    singles = [spectral.extend_Teps(bundle, U[:, j]) for j in range(3)]
    assert len(made) == 4
    assert batch.shape == (bundle.mesh.n_nodes, 3)
    for j, single in enumerate(singles):
        assert batch[:, j].tobytes() == single.tobytes()
    assert not hasattr(bundle, "hole_extension")


def test_dirichlet_laplacian_is_the_identity_homogenized_problem(a_mesh32):
    spec, bundle = spectral.solve_dirichlet_laplacian(a_mesh32, 3)
    S = fem.apply_constraints(
        fem.assemble_stiffness(a_mesh32), fem.assemble_mass(a_mesh32), None,
        fem.dof_map(a_mesh32.n_nodes, a_mesh32.outer_nodes())).A
    for part in ("data", "indices", "indptr"):
        assert getattr(bundle.S, part).tobytes() == getattr(S, part).tobytes()
    want = solve_gevp(S, bundle.M, 3)
    assert spec.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert spec.eigenvectors.tobytes() == want.eigenvectors.tobytes()


def test_extension_energy_uniform(spec_quarter, bundle_quarter):
    ratios = []
    for eps, (spec, bundle) in {
        0.25: (spec_quarter, bundle_quarter),
        0.125: spectral.solve_perforated_evp(
            geometry.DomainConfig(eps=0.125, hole_radius=0.25, hole_poly=32,
                                  k_rect=K_RECT, h_ref=1.0 / 8.0),
            1),
    }.items():
        # int_Omega |grad T_eps u|^2 / int_Omega_eps |grad u|^2
        mesh = bundle.mesh
        ext = spectral.extend_Teps(bundle, spec.eigenvectors[:, 0])
        S_all = fem.assemble_stiffness(mesh, tris=np.arange(mesh.n_triangles))
        r = float(ext @ (S_all @ ext)) / float(ext @ (fem.assemble_stiffness(mesh) @ ext))
        assert r >= 1.0 - 1e-12
        ratios.append(r)
    assert max(ratios) / min(ratios) <= 2.0


# the default geometry, with a hole at the centre for odd n (eps 1/5), and the
# coarser-polygon geometry of the lab tests
_SYMMETRIC = {"eps4": dict(eps=1 / 4), "eps5": dict(eps=1 / 5), "eps8": dict(eps=1 / 8),
              "eps16": dict(eps=1 / 16),
              "r02_24gon": dict(eps=1 / 8, hole_radius=0.2, hole_poly=24, h_ref=1 / 12)}


def _bundle(**kw):
    return spectral.build_perforated_bundle(geometry.DomainConfig(
        **{"hole_radius": 0.25, "k_rect": K_RECT, **kw}))


def _basis_matrix(sector):
    """The sector's P, column by column through its expand."""
    return sp.csr_matrix(np.column_stack([sector.expand(e)
                                          for e in np.eye(sector.dim)]))


@pytest.mark.parametrize("kw", _SYMMETRIC.values(), ids=_SYMMETRIC.keys())
def test_rotation_sectors(kw):
    """The quarter turn is a symmetry: three sectors E, A and B whose bases
    span the DoFs orthogonally, and eigenvalues that agree with the full
    solve."""
    bundle = _bundle(**kw)
    sectors = bundle.sectors
    assert [s.weight for s in sectors] == [2, 1, 1]
    dims = [s.dim for s in sectors]
    n = bundle.red.dim
    # the centre node is a DoF for even n and a hole's centre for odd n
    centre = 1 if round(1 / kw["eps"]) % 2 == 0 else 0
    assert dims == [dims[2], dims[2] + centre, dims[2]]
    assert 2 * dims[0] + dims[1] + dims[2] == n
    if n < 5000:  # the bases as matrices, built column by column
        Ps = [_basis_matrix(s) for s in sectors]
        Q = sp.hstack(Ps, format="csr")
        G = (Q.conj().T @ Q).tocoo()
        G.eliminate_zeros()
        assert np.array_equal(G.row, G.col) and G.nnz == Q.shape[1]
        assert sorted(set(G.data)) == ([1.0, 4.0] if centre else [4.0])
        # restrict is the adjoint of expand
        f = np.sin(np.arange(n, dtype=float))
        for s, P in zip(sectors, Ps):
            assert np.allclose(s.restrict(f), P.conj().T @ f, rtol=0.0, atol=1e-14)

    full = solve_gevp(bundle.A, bundle.M, 4)
    spec = solve_gevp(bundle.A, bundle.M, 4, sectors=sectors)
    assert np.allclose(spec.eigenvalues, full.eigenvalues, rtol=1e-11, atol=0.0)
    assert spec.eigenvalues[1] == spec.eigenvalues[2]


def _sector_P(sector):
    """The sector's P built from its orbits, as the sector defines it:
    column o carries chi^g in row orbits[o, g], and column m + f a one in
    row fixed[f]."""
    m, k = len(sector.orbits), len(sector.fixed)
    return sp.csr_matrix(
        (np.concatenate([np.tile(sector.chi, m), np.ones(k)]),
         (np.concatenate([sector.orbits.ravel(), sector.fixed]),
          np.concatenate([np.repeat(np.arange(m), 4), m + np.arange(k)]))),
        shape=(sector.n, m + k))


@pytest.mark.parametrize("kw", _SYMMETRIC.values(), ids=_SYMMETRIC.keys())
def test_sector_project_matches_triple_product(kw):
    """Each sector's project of A and M, as canonical CSR: bitwise the
    quarter-row form of P^H A P, (D W + (D W)^H) / 2 with W = (A P)[first
    rows] and D = P^H P, made here with sparse products; and the full triple
    product entry for entry, to the roundoff by which A commutes with the
    turn."""
    bundle = _bundle(**kw)
    for s in bundle.sectors:
        P = _sector_P(s)
        y = np.cos(np.arange(s.dim, dtype=float))
        assert np.array_equal(P @ y, s.expand(y))
        first = np.concatenate([s.orbits[:, 0], s.fixed])
        D = sp.diags(P.getnnz(axis=0).astype(float))
        for X in (bundle.A, bundle.M):
            got = s.project(X)
            assert got.format == "csr" and got.has_canonical_format
            Z = D @ (X[first] @ P)
            quarter = ((Z + Z.conj().T) * 0.5).tocsr().sorted_indices()
            full = (P.conj().T @ X @ P).tocsr().sorted_indices()
            full.eliminate_zeros()
            for part in ("data", "indices", "indptr"):
                g, w = getattr(got, part), getattr(quarter, part)
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), part
                if part != "data":
                    assert np.array_equal(g, getattr(full, part)), part
            assert np.abs(got.data - full.data).max() <= 1e-13 * np.abs(full.data).max()


def _one_lu_eigenvalues(A, M, k):
    """The one-LU solve: shift-invert Lanczos at 0 from the all-ones start,
    inverting A through the LU of its CSC form."""
    n = A.shape[0]
    OPinv = spla.LinearOperator((n, n), matvec=spla.splu(A.tocsc()).solve, dtype=float)
    vals, _ = spla.eigsh(A, k=k, M=M, sigma=0.0, which="LM", v0=np.ones(n) / np.sqrt(n),
                         OPinv=OPinv, tol=eigensolve._EIG_TOL)
    return np.sort(vals)


@pytest.mark.parametrize("kw", [
    dict(eps=1 / 4, hole_poly=30),                    # no node map
    dict(eps=1 / 8, k_rect=(0.2, 0.25, 0.7, 0.75)),   # S + R off by 5.5e-4
    dict(eps=1 / 4, hole_radius=0.0)],                # one-diagonal grid: M off by 17%
    ids=["30gon", "off_centre_K", "no_hole"])
def test_one_sector_without_symmetry(kw):
    spec, bundle = spectral.solve_perforated_evp(geometry.DomainConfig(
        **{"hole_radius": 0.25, "k_rect": K_RECT, **kw}), 4)
    assert len(bundle.sectors) == 1
    assert type(bundle.sectors[0]) is eigensolve.Sector
    ref = _one_lu_eigenvalues(bundle.A, bundle.M, 4)
    assert spec.eigenvalues.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kw, count", [(dict(eps=1 / 4), 3),
                                       (dict(eps=1 / 4, hole_poly=30), 1)],
                         ids=["c4", "one_sector"])
def test_one_sector_type(kw, count):
    """Every sector, the whole space included, is a `Sector` that holds the
    bundle's own A and no separate basis object."""
    bundle = _bundle(**kw)
    assert not hasattr(eigensolve, "WholeSpace")
    assert len(bundle.sectors) == count
    for s in bundle.sectors:
        assert isinstance(s, eigensolve.Sector) and not hasattr(s, "basis")
        assert s.A is bundle.A


def test_sector_eigenvalues_match_dense():
    """Every k from 1 to 8, against LAPACK on the full pencil."""
    bundle = _bundle(eps=1 / 4)
    dense = la.eigh(bundle.A.toarray(), bundle.M.toarray(), eigvals_only=True)
    for k in range(1, 9):
        spec = solve_gevp(bundle.A, bundle.M, k, sectors=bundle.sectors)
        assert np.allclose(spec.eigenvalues, dense[:k], rtol=1e-10, atol=0.0), k


def test_sector_request_near_dimension():
    """At eps 1/2 (285 DoFs, sectors E/A/B 71/72/71): k = n // 2 is solved by
    Lanczos in every sector; at k = 140 the A sector's 36 values end below
    the merged 140th, and doubling asks for all 72 of them; k = n - 2 asks
    every sector for all of its modes.  A sector asked for dim - 1 modes
    or more is solved densely from its projected pencil."""
    bundle = _bundle(eps=1 / 2)
    n = bundle.red.dim
    assert [s.dim for s in bundle.sectors] == [71, 72, 71] and n == 285
    dense = la.eigh(bundle.A.toarray(), bundle.M.toarray(), eigvals_only=True)
    for k in (n // 2, 140, n - 2):
        spec = solve_gevp(bundle.A, bundle.M, k, sectors=bundle.sectors)
        assert np.allclose(spec.eigenvalues, dense[:k], rtol=1e-10, atol=0.0), k


def test_sector_solved_again(monkeypatch):
    """At eps 1/8 and k = 16, a sector's first ceil(16/4) + 1 = 5 values end
    below the merged 16th, so it is solved again for 10; the merged values
    match the one-sector solve."""
    bundle = _bundle(eps=1 / 8)
    calls = []
    pairs = eigensolve.Sector.pairs

    def counting(self, B, k):
        calls.append(k)
        return pairs(self, B, k)

    monkeypatch.setattr(eigensolve.Sector, "pairs", counting)
    spec = solve_gevp(bundle.A, bundle.M, 16, sectors=bundle.sectors)
    assert calls[:3] == [5, 5, 5] and 10 in calls[3:]
    full = solve_gevp(bundle.A, bundle.M, 16)
    assert np.allclose(spec.eigenvalues, full.eigenvalues, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_sector_runs_stop_after_one_pass(monkeypatch, n):
    """At k = 4 each sector's Lanczos run converges within one pass of the
    20-vector basis (21 operator solves, with the start vector's), and the
    merged pairs stay far inside the 1e-9 (1 + |lambda|) residual gate."""
    runs = []
    pairs = eigensolve.Sector.pairs

    def counting(self, B, k):
        out = pairs(self, B, k)
        runs.append(out[2])
        return out

    monkeypatch.setattr(eigensolve.Sector, "pairs", counting)
    bundle = _bundle(eps=1 / n)
    spec = solve_gevp(bundle.A, bundle.M, 4, sectors=bundle.sectors)
    assert len(runs) == 3 and max(runs) <= 21
    assert spec.solves == sum(runs)
    assert (spec.residuals < 1e-11 * (1.0 + np.abs(spec.eigenvalues))).all()


def test_bundle_solve_through_sectors(lus):
    """apply_Keps's source solve in the bundle's sectors, each refined in
    itself: the sum over them of weight * Re(P y), against one LU of A to
    1e-12, and against the two-pass solve (one refinement step on the full
    residual through every sector's LU) to 1e-13.  Each sector's LU is
    made, used and dropped before the next, and the parts solved sector by
    sector, summed in sector order, are the whole solve bitwise."""
    bundle = _bundle(eps=1 / 8)
    f = np.sin(np.arange(bundle.red.dim, dtype=float))
    b = bundle.M @ f
    got = spectral.apply_Keps(bundle, f)
    assert len(bundle.sectors) == 3 and got.dtype == float
    assert [n for n, *_ in lus] == [s.dim for s in bundle.sectors]
    assert [alive for *_, alive, _ in lus] == [0, 0, 0]
    want = spla.splu(bundle.A.tocsc()).solve(b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    u, r = 0.0, b
    for _ in range(2):
        u = u + sum(s.weight * s.expand(s.lu()(s.restrict(r))).real
                    for s in bundle.sectors)
        r = b - bundle.A @ u
    for s in bundle.sectors:
        s.drop()
    assert np.linalg.norm(got - u) <= 1e-13 * np.linalg.norm(u)
    parts = [spectral.apply_Keps(bundle, f, sectors=(s,)) for s in bundle.sectors]
    assert sum(parts).tobytes() == got.tobytes()


def test_one_sector_when_only_R_breaks_the_turn():
    """A and M commute with the quarter turn, but R is off its orbit's value
    in one entry: the orbits are refused, so every bundle matrix, R
    included, is run in one sector."""
    bundle = _bundle(eps=1 / 8)
    assert spectral._rotation_orbits(bundle) is not None
    R = bundle.R.copy()
    R.data[R.indptr[-1] // 2] *= 1.0 + 1e-6
    skewed = spectral.DiscreteOperatorBundle(mesh=bundle.mesh,
                                             red=dataclasses.replace(bundle.red, R=R))
    assert spectral._rotation_orbits(skewed) is None
    assert len(skewed.sectors) == 1 and skewed.sectors[0].A is bundle.A


def test_commutes_compares_rows_with_entries():
    """`_commutes` turns and compares only the rows with entries, once the
    turn keeps every row's entry count.  It agrees with the turned matrix
    X[turn][:, turn] on the bundle's A, M and R (R has entries on the hole
    boundary's rows alone), and refuses an R with one more entry in a row
    the turn maps onto an empty one, or with one entry fewer."""
    bundle = _bundle(eps=1 / 8)
    orbits, _ = spectral._rotation_orbits(bundle)
    turn = np.arange(bundle.red.dim)
    turn[orbits] = np.roll(orbits, -1, axis=1)
    for X in (bundle.A, bundle.M, bundle.R):
        assert spectral._commutes(X, turn)
        assert abs(X[turn][:, turn] - X).max() <= 1e-12 * abs(X).max()
    counts = np.diff(bundle.R.indptr)
    assert 0 < np.count_nonzero(counts) < len(counts)
    empty = int(np.flatnonzero(counts == 0)[0])
    extra = bundle.R.tolil()
    extra[empty, empty] = 1.0
    assert not spectral._commutes(extra.tocsr(), turn)
    fewer = bundle.R.copy()
    fewer.data[fewer.indptr[-1] // 2] = 0.0
    fewer.eliminate_zeros()
    assert not spectral._commutes(fewer, turn)
