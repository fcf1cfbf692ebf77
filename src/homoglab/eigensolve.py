"""Deterministic generalized symmetric eigenvalue and source solves."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

B_ORTHONORMAL = "B_ORTHONORMAL"


@dataclass
class Spectrum:
    """Ascending eigenpairs of A u = lambda B u, B-orthonormal vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray      # (n, k), column j pairs with eigenvalues[j]
    residuals: np.ndarray
    normalization: str = B_ORTHONORMAL
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.eigenvalues)


def _fix_signs(vecs: np.ndarray, thresh: float = 1e-8) -> np.ndarray:
    """First component exceeding thresh in absolute value is made positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        big = np.nonzero(np.abs(col) > thresh)[0]
        if len(big) and col[big[0]] < 0.0:
            out[:, j] = -col
    return out


def solve_gevp(A, B, k: int, tol: float = 1e-9, solve=None) -> Spectrum:
    """k smallest eigenpairs of A u = lambda B u, A SPSD, B SPD.

    Sparse A: shift-invert Lanczos at 0 from a fixed all-ones start vector,
    inverting A with `solve` (factorized_solver(A) unless given).  Dense A, or
    k >= n - 1: LAPACK eigh.
    """
    n = A.shape[0]
    if k < 1 or k >= n:
        raise SolverError(f"need 1 <= k < dimension, got k={k}, n={n}")

    if not sp.issparse(A) or k >= n - 1:
        Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
        Bd = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=float)
        try:
            la.cholesky(Bd)
        except la.LinAlgError as exc:
            raise SolverError("B is not positive definite") from exc
        vals, vecs = la.eigh(Ad, Bd)
        vals, vecs = vals[:k], vecs[:, :k]
    else:
        if solve is None:
            solve = factorized_solver(A)
        OPinv = spla.LinearOperator((n, n), matvec=solve, dtype=float)
        v0 = np.ones(n) / np.sqrt(n)
        try:
            vals, vecs = spla.eigsh(A, k=k, M=B, sigma=0.0, which="LM",
                                    v0=v0, OPinv=OPinv)
        except spla.ArpackNoConvergence as exc:
            raise SolverError(f"eigensolver did not converge: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    # enforce B-orthonormality explicitly (harmless when already true)
    G = vecs.T @ (B @ vecs)
    L = la.cholesky(G, lower=True)
    vecs = la.solve_triangular(L, vecs.T, lower=True).T
    vecs = _fix_signs(vecs)

    res = np.array([
        np.linalg.norm(A @ vecs[:, j] - vals[j] * (B @ vecs[:, j]))
        for j in range(k)
    ])
    scale = 1.0 + np.abs(vals)
    bad = res > tol * scale
    if bad.any():
        raise SolverError(
            f"eigen residuals exceed tolerance: {res[bad]} vs tol*{scale[bad]}")
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, residuals=res,
                    meta={"tol": tol, "n": n})


def extreme_eigenvalues(A, B, which: str, k: int = 1, solve=None) -> np.ndarray:
    """k eigenvalues, ascending, of A u = theta B u (A symmetric, B SPD) at the
    end(s) `which` ("LA", "SA", "BE"): shift-free Lanczos from an all-ones
    start, applying B^-1 with `solve` (factorized_solver(B) unless given)."""
    n = A.shape[0]
    if solve is None:
        solve = factorized_solver(B)
    Minv = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    try:
        vals = spla.eigsh(A, k=k, M=B, Minv=Minv, which=which, v0=np.ones(n),
                          return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    return np.sort(vals)


def factorized_solver(A):
    """Sparse LU factorization wrapped as a callable; raises on singular A."""
    try:
        lu = spla.splu(sp.csc_matrix(A))
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    return lu.solve


def solve_source(A, rhs: np.ndarray, rel_tol: float = 1e-10,
                 solve=None) -> np.ndarray:
    """Solve A u = rhs with a direct sparse factorization and verify the residual."""
    rhs = np.asarray(rhs, dtype=float)
    if A.shape[0] != rhs.shape[0]:
        raise SolverError(f"rhs length {rhs.shape[0]} != dim {A.shape[0]}")
    if solve is None:
        solve = factorized_solver(A)
    u = solve(rhs)
    r = rhs - A @ u
    u = u + solve(r)  # one refinement step keeps coarse meshes honest
    nr = np.linalg.norm(rhs - A @ u)
    if nr > rel_tol * max(np.linalg.norm(rhs), 1e-300):
        raise SolverError(f"source solve residual {nr:.3e} exceeds tolerance")
    return u
