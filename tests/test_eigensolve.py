"""Generalized eigensolver and direct source solves."""

import ast
import inspect
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from homoglab import eigensolve
from homoglab.eigensolve import (Spectrum, extreme_eigenvalues, factorized_solver,
                                 solve_gevp, solve_source)
from homoglab.errors import SolverError


def test_diagonal_case():
    A = np.diag([1.0, 2.0, 3.0])
    B = np.eye(3)
    spec = solve_gevp(A, B, 2)
    assert np.allclose(spec.eigenvalues, [1.0, 2.0], atol=1e-12)
    assert np.allclose(np.abs(spec.eigenvectors),
                       np.eye(3)[:, :2], atol=1e-12)
    # sign convention: first significant component positive
    assert spec.eigenvectors[0, 0] > 0.0
    assert spec.eigenvectors[1, 1] > 0.0


def test_residual_postcondition_and_orthonormality(spec_quarter, bundle_quarter):
    A = bundle_quarter.A
    B = bundle_quarter.M
    V = spec_quarter.eigenvectors
    lam = spec_quarter.eigenvalues
    assert (np.diff(lam) >= 0.0).all()
    assert (lam > 0.0).all()
    G = V.T @ (B @ V)
    assert np.max(np.abs(G - np.eye(V.shape[1]))) <= 1e-9
    for j in range(len(lam)):
        r = np.linalg.norm(A @ V[:, j] - lam[j] * (B @ V[:, j]))
        assert r <= 1e-9 * (1.0 + abs(lam[j]))


def test_shift_invariance(bundle_quarter):
    A = bundle_quarter.A
    B = bundle_quarter.M
    sigma = 5.0
    s0 = solve_gevp(A, B, 3)
    s1 = solve_gevp(A + sigma * B, B, 3)
    assert np.allclose(s1.eigenvalues - s0.eigenvalues, sigma, atol=1e-7)
    # the first eigenvalue is simple, so its vector is pinned by the sign
    # convention; higher modes may rotate inside near-degenerate pairs
    assert np.allclose(s1.eigenvectors[:, 0], s0.eigenvectors[:, 0], atol=1e-7)


def test_b_not_positive_definite():
    A = np.eye(3)
    B = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(SolverError):
        solve_gevp(A, B, 1)


def test_k_out_of_range():
    A = np.eye(3)
    with pytest.raises(SolverError):
        solve_gevp(A, A, 0)
    with pytest.raises(SolverError):
        solve_gevp(A, A, 3)


def test_extreme_eigenvalues_small_pencils():
    # theta = a / b is exact on a diagonal pencil; the Krylov basis is
    # clamped to n, which is below the basis floor of these pencils
    A2, B2 = sp.diags([2.0, -3.0]).tocsr(), sp.diags([4.0, 1.0]).tocsr()
    assert extreme_eigenvalues(A2, B2, "LA") == pytest.approx([0.5], rel=1e-12)
    assert extreme_eigenvalues(A2, B2, "SA") == pytest.approx([-3.0], rel=1e-12)
    A4 = sp.diags([3.0, -1.0, 2.0, 5.0]).tocsr()
    B4 = sp.diags([1.0, 2.0, 1.0, 0.5]).tocsr()
    assert extreme_eigenvalues(A4, B4, "LA") == pytest.approx([10.0], rel=1e-12)
    assert extreme_eigenvalues(A4, B4, "SA") == pytest.approx([-0.5], rel=1e-12)
    assert extreme_eigenvalues(A4, B4, "BE", k=2) == pytest.approx([-0.5, 10.0], rel=1e-12)
    assert extreme_eigenvalues(A4, B4, "LA", k=3) == pytest.approx([2.0, 3.0, 10.0],
                                                                   rel=1e-12)


def test_extreme_eigenvalues_complex_hermitian():
    """A complex Hermitian pencil, as the E sector of a quarter turn gives:
    B^-1 applied and the start vector in B's dtype, and real Ritz values."""
    n = 40
    rng = np.random.default_rng(7)
    X, Y = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(2))
    A, B = (X + X.conj().T) / 2.0, Y @ Y.conj().T + n * np.eye(n)
    want = la.eigh(A, B, eigvals_only=True)
    for which, k, ends in (("LA", 1, want[-1:]), ("SA", 1, want[:1]),
                           ("LA", 3, want[-3:]), ("SA", 2, want[:2])):
        got = extreme_eigenvalues(sp.csr_matrix(A), sp.csr_matrix(B), which, k=k)
        assert got.dtype.kind == "f"
        assert got == pytest.approx(ends, rel=1e-12), (which, k)


def test_extreme_eigenvalues_k_out_of_range(monkeypatch):
    # rejected before B is factorized
    def no_factorization(B):
        raise AssertionError("factorized before k was checked")

    monkeypatch.setattr(eigensolve, "factorized_solver", no_factorization)
    A2, B2 = sp.diags([2.0, -3.0]).tocsr(), sp.diags([4.0, 1.0]).tocsr()
    with pytest.raises(SolverError, match="k=2, n=2"):
        extreme_eigenvalues(A2, B2, "BE", k=2)
    A4 = sp.identity(4, format="csr")
    for k in (0, 4, 5):
        with pytest.raises(SolverError):
            extreme_eigenvalues(A4, A4, "LA", k=k)


def test_lus_are_made_only_in_sector_lu():
    """Every factorization in the package is a Sector's: `factorized_solver`
    is named in one place, the call in `Sector.lu`; no solve is passed in
    as a callable, and neither a sector nor a bundle solves by itself."""
    src = Path(eigensolve.__file__).parent
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}")
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and name == "factorized_solver":
                sites.append(where)
            visit(child, where)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert sites == ["eigensolve.Sector.lu"]
    for fn in (extreme_eigenvalues, solve_source):
        assert "solve" not in inspect.signature(fn).parameters, fn.__name__
    from homoglab.spectral import DiscreteOperatorBundle
    assert not hasattr(eigensolve.Sector, "solve")
    assert not hasattr(DiscreteOperatorBundle, "solve")


def test_sparse_path_diagonal():
    n = 3100
    A = sp.diags(np.arange(1.0, n + 1.0)).tocsr()
    B = sp.identity(n, format="csr")
    spec = solve_gevp(A, B, 3)
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-8)


def test_sparse_path_matches_dense_reference(bundle_quarter):
    A, M = bundle_quarter.A, bundle_quarter.M
    sparse = solve_gevp(A, M, 4)
    dense = solve_gevp(A.toarray(), M.toarray(), 4)
    assert np.allclose(sparse.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0.0)


def test_determinism(bundle_quarter):
    s0 = solve_gevp(bundle_quarter.A, bundle_quarter.M, 4)
    s1 = solve_gevp(bundle_quarter.A, bundle_quarter.M, 4)
    assert np.array_equal(s0.eigenvalues, s1.eigenvalues)
    assert np.array_equal(s0.eigenvectors, s1.eigenvectors)


def test_solve_source_identities():
    A = sp.identity(5, format="csc")
    rhs = np.arange(5.0)
    assert np.allclose(solve_source(A, rhs), rhs, atol=1e-14)
    assert np.allclose(solve_source(A, np.zeros(5)), 0.0, atol=1e-15)
    with pytest.raises(SolverError):
        solve_source(A, np.zeros(4))


def test_solve_source_round_trip(bundle_quarter):
    A = sp.csc_matrix(bundle_quarter.A)
    rng = np.random.default_rng(3)
    u_star = rng.standard_normal(A.shape[0])
    u = solve_source(A, A @ u_star)
    assert np.linalg.norm(u - u_star) <= 1e-10 * np.linalg.norm(u_star)


def test_factorized_solver_csr_view_matches_csc_copy(bundle_quarter):
    # a CSR matrix is factorized through its conjugate-transpose view, its
    # own CSC form; the solves equal those of its CSC copy bitwise
    A = bundle_quarter.A
    assert A.format == "csr"
    view, copy = factorized_solver(A), factorized_solver(sp.csc_matrix(A))
    assert isinstance(view.__self__, spla.SuperLU)
    b = np.sin(np.arange(A.shape[0], dtype=float))
    assert view(b).tobytes() == copy(b).tobytes()


def test_factorized_solver_complex_hermitian():
    # the transpose of a complex Hermitian matrix is its conjugate, so only
    # its own CSC form gives the right solves
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    H = X @ X.conj().T + 6.0 * np.eye(6)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    want = np.linalg.solve(H, b)
    # CSR with each row's entries in reverse order, as a product of sparse
    # matrices may leave them: converted, never sorted in place
    rev = sp.csr_matrix(H)
    for i in range(6):
        row = slice(rev.indptr[i], rev.indptr[i + 1])
        rev.indices[row], rev.data[row] = rev.indices[row][::-1], rev.data[row][::-1]
    rev.has_sorted_indices = False
    before = rev.indices.copy(), rev.data.copy()
    for A in (sp.csr_matrix(H), sp.csc_matrix(H), rev):
        solve = factorized_solver(A)
        assert isinstance(solve.__self__, spla.SuperLU)
        assert np.allclose(solve(b), want, rtol=1e-12, atol=1e-14)
    assert np.array_equal(rev.indices, before[0]) and np.array_equal(rev.data, before[1])
    assert np.array_equal(rev.toarray(), H)


def test_solve_source_singular():
    A = sp.csc_matrix(np.zeros((3, 3)))
    with pytest.raises(SolverError):
        solve_source(A, np.ones(3))


def test_spectrum_k_property():
    spec = Spectrum(eigenvalues=np.array([1.0, 2.0]),
                    eigenvectors=np.eye(2), residuals=np.zeros(2))
    assert spec.k == 2


def test_heap_trimmed_before_every_factorization(monkeypatch):
    # the free heap pages go back to the system right before each splu, and
    # right after it the work arrays SuperLU has freed
    events = []
    splu = spla.splu

    def recording_splu(A, *args, **kwargs):
        events.append("splu")
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    monkeypatch.setattr(eigensolve, "_trim_heap", lambda pad: events.append(("trim", pad)))
    A = sp.diags([2.0, 3.0, 4.0]).tocsr()
    for M in (A, sp.csc_matrix(A), A.toarray()):
        factorized_solver(M)
    assert events == [("trim", 0), "splu", ("trim", 0)] * 3
    # without the C library's malloc_trim nothing is trimmed, and the LU works
    monkeypatch.setattr(eigensolve, "_trim_heap", None)
    events.clear()
    assert np.allclose(factorized_solver(A)(np.array([2.0, 3.0, 4.0])), 1.0)
    assert events == ["splu"]


def test_heap_trimmed_around_each_lanczos_run(monkeypatch):
    """A sector's Lanczos run trims the heap after its LU and its projected
    B are made, and again when eigsh returns, so neither the projection's
    freed temporaries nor ARPACK's freed workspace stay resident."""
    events = []

    class Recording(eigensolve.Sector):
        def project(self, X):
            events.append("project")
            return X

    splu, eigsh = spla.splu, spla.eigsh
    monkeypatch.setattr(spla, "splu", lambda A: events.append("splu") or splu(A))
    monkeypatch.setattr(spla, "eigsh",
                        lambda *a, **kw: events.append("eigsh") or eigsh(*a, **kw))
    monkeypatch.setattr(eigensolve, "_trim_heap", lambda pad: events.append("trim"))
    A = sp.diags(np.arange(1.0, 21.0)).tocsr()
    vals, _, _ = Recording(A).pairs(sp.identity(20, format="csr"), 2)
    assert np.allclose(vals, [1.0, 2.0])
    assert events == ["project", "trim", "splu", "trim", "project", "trim", "eigsh",
                      "trim"]


def test_trim_hook_is_glibc_malloc_trim_or_none():
    trim = eigensolve._trim_heap
    if platform.libc_ver()[0] == "glibc":
        assert trim is not None
    assert trim is None or trim(0) in (0, 1)


def test_extreme_eigenvalues_of_zero_matrix():
    """An A whose stored values are all zero (volsup's 0 M - R keeps
    explicit zeros) has every eigenvalue 0; ARPACK would fail on it."""
    n = 12
    B = sp.diags(np.linspace(1.0, 2.0, n)).tocsr()
    A = sp.csr_matrix((np.zeros(n), (np.arange(n), np.arange(n))), shape=(n, n))
    assert A.nnz == n
    for which in ("LA", "SA", "BE"):
        assert extreme_eigenvalues(A, B, which, k=2).tolist() == [0.0, 0.0]


def test_arpack_errors_become_solver_errors(monkeypatch):
    """Any ARPACK failure, not only non-convergence, is a SolverError, at
    both ARPACK sites."""
    def failing(*args, **kwargs):
        raise spla.ArpackError(-9)

    monkeypatch.setattr(spla, "eigsh", failing)
    n = 30
    A = sp.diags(np.arange(1.0, n + 1.0)).tocsr()
    B = sp.identity(n, format="csr")
    with pytest.raises(SolverError, match="ARPACK error -9"):
        extreme_eigenvalues(A, B, "LA")
    with pytest.raises(SolverError, match="ARPACK error -9"):
        solve_gevp(A, B, 2)
