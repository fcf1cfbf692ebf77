"""Deterministic generalized symmetric eigenvalue and source solves."""

from __future__ import annotations

import ctypes
import gc
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

_EIG_TOL = 1e-9           # eigen residual bound, relative to 1 + |lambda|
_SIGN_THRESH = 1e-8       # sign fixing ignores components below this
_SOURCE_REL_TOL = 1e-10   # source-solve residual bound, relative to |rhs|
# shift-free Lanczos: a Ritz value's error is quadratic in its residual, so a
# residual of sqrt(u) |theta| already gives theta to about u
_RITZ_TOL = float(np.sqrt(np.finfo(float).eps))
_MIN_NCV = 9              # Krylov basis floor; fewest solves in a sweep of 4..20


# SuperLU reserves far more factor storage than it fills; the unfilled tail
# stays out of the resident set unless it lands on heap pages that earlier
# temporaries left resident, so glibc's malloc_trim hands the free pages back
# before each LU, and again after it for the work arrays SuperLU has freed
# (None where the C library has no malloc_trim)
try:
    _trim_heap = ctypes.CDLL(None).malloc_trim
    _trim_heap.argtypes, _trim_heap.restype = [ctypes.c_size_t], ctypes.c_int
except (OSError, AttributeError, TypeError):
    _trim_heap = None


def _trim():
    """Hand the free heap pages back to the system, where the C library can."""
    if _trim_heap is not None:
        _trim_heap(0)


@dataclass
class Spectrum:
    """Ascending eigenpairs of A u = lambda B u, B-orthonormal vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray      # (n, k), column j pairs with eigenvalues[j]
    residuals: np.ndarray
    solves: int = 0               # operator solves over all Lanczos runs

    @property
    def k(self) -> int:
        return len(self.eigenvalues)


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """First component exceeding _SIGN_THRESH in absolute value is made
    positive, in place."""
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        big = np.nonzero(np.abs(col) > _SIGN_THRESH)[0]
        if len(big) and col[big[0]] < 0.0:
            vecs[:, j] = -col
    return vecs


class Sector:
    """An invariant subspace of a real pencil (A, B), kept as A and a basis
    P: `lu`, the package's one factorization, returns the solve of the LU
    of P^H A P, made unless one is alive; it lives until `drop`.  `expand`
    maps coordinates to full vectors (P y), `restrict` a real full vector
    to coordinates (P^H f) and `project` a full matrix that commutes with
    the sector to the sector's (P^H X P).  This class is all of the pencil:
    P = I, and each of the three returns its argument itself; `spectral`
    subclasses it for the quarter turn.

    A complex sector stands for itself and its conjugate, whose eigenpairs are
    the conjugates of its own: each of its eigenvalues counts twice (weight
    2), and the real and imaginary parts of an expanded eigenvector are two
    real ones.
    """

    weight = 1

    def __init__(self, A):
        self.A, self.dim = A, A.shape[0]
        self._lu = None

    def expand(self, y):
        return y

    def restrict(self, f):
        return f

    def project(self, X):
        return X

    def lu(self, projected=None):
        """The LU's solve, made from `projected` or P^H A P unless one is alive."""
        if self._lu is None:
            self._lu = factorized_solver(
                self.project(self.A) if projected is None else projected)
        return self._lu

    def drop(self):
        """Free the LU; the next `lu` makes it again."""
        self._lu = None

    def pairs(self, B, k: int):
        """k smallest eigenpairs, ascending, of (A, B) in this sector, vectors
        unnormalized, and the operator solves made.  Dense A, or k >= dim - 1,
        which Lanczos cannot give: LAPACK on the projected pencil.  Otherwise
        shift-invert Lanczos at 0 from an all-ones start through the sector's
        LU, made before B is projected (for this run alone), so that no
        projected B is alive at the LU's peak.  The heap is trimmed after
        the projection and after the run, so that neither the projection's
        freed temporaries nor ARPACK's freed workspace stay resident under
        the next allocations.  ARPACK stops once every Ritz
        residual is below _EIG_TOL |theta|, theta the inverted eigenvalue: the
        order of solve_gevp's gate on the full pencil, which alone decides
        what is accepted; machine epsilon would cost restarts of the
        max(2k + 1, 20)-vector basis for accuracy nothing reads."""
        if not sp.issparse(self.A) or k >= self.dim - 1:
            Ad, Bd = (X.toarray() if sp.issparse(X) else np.asarray(X, dtype=float)
                      for X in (self.project(self.A), self.project(B)))
            try:  # LAPACK refuses a B that is not positive definite
                vals, vecs = la.eigh(Ad, Bd)
            except la.LinAlgError as exc:
                raise SolverError(f"dense eigensolve failed: {exc}") from exc
            return vals[:k], vecs[:, :k], 0
        solve = self.lu()
        B = self.project(B)
        _trim()
        n = self.dim
        solves = 0

        def apply(x):
            nonlocal solves
            solves += 1
            return solve(x)

        OPinv = spla.LinearOperator((n, n), matvec=apply, dtype=B.dtype)
        v0 = np.ones(n) / np.sqrt(n)
        try:
            # in shift-invert mode eigsh applies A only through OPinv
            vals, vecs = spla.eigsh(OPinv, k=k, M=B, sigma=0.0, which="LM",
                                    v0=v0, OPinv=OPinv, tol=_EIG_TOL)
        except spla.ArpackError as exc:
            raise SolverError(f"eigensolver failed: {exc}") from exc
        if B.dtype.kind == "c":
            # scipy's complex ARPACK wrapper leaves its workspace, and with it B,
            # in a reference cycle: free them now, not at the next full collection
            gc.collect(1)
        _trim()
        order = np.argsort(vals)
        return vals[order], vecs[:, order], solves

    def extremes(self, X, which: str, k: int) -> np.ndarray:
        """k eigenvalues, ascending, at the end(s) `which` of X u = theta A u
        in this sector: shift-free Lanczos from an all-ones start through
        the LU of the projected A, which is dropped as the run ends.  A
        projected X with no nonzero value has every theta 0: no LU is made."""
        X = self.project(X)
        if not (X.data if sp.issparse(X) else np.asarray(X)).any():
            return np.zeros(k)
        B = self.project(self.A)
        solve, n = self.lu(B), self.dim
        Minv = spla.LinearOperator((n, n), matvec=solve, dtype=B.dtype)
        try:
            vals = spla.eigsh(X, k=k, M=B, Minv=Minv, which=which,
                              v0=np.ones(n, dtype=B.dtype),
                              ncv=min(n, max(2 * k + 1, _MIN_NCV)), tol=_RITZ_TOL,
                              return_eigenvectors=False)
        except spla.ArpackError as exc:
            raise SolverError(f"eigensolver failed: {exc}") from exc
        self.drop()
        return np.sort(vals)


def solve_gevp(A, B, k: int, sectors=None, readers=()) -> Spectrum:
    """k smallest eigenpairs of A u = lambda B u, A SPSD, B SPD.

    The pencil is solved in `sectors` of A, by default the one `Sector(A)`,
    one visit after another: a visit makes the sector's LU, runs Lanczos,
    calls each of `readers` on the sector (`read(s)`), in order, while the
    LU is alive, and drops the LU; so at most one LU and one projected B
    are alive.  Each sector starts at ceil(k / w) + 1 modes (at most k), w
    the sectors' total weight; a sector whose largest value lies below the
    merged k-th value is solved again for twice as many, its LU made again,
    and the readers are not called again.  The k smallest merged pairs are
    expanded, made B-orthonormal and checked on the full pencil.  The
    operator solves of every run, re-solves included, add up to
    `Spectrum.solves`.
    """
    n = A.shape[0]
    if k < 1 or k >= n:
        raise SolverError(f"need 1 <= k < dimension, got k={k}, n={n}")
    sectors = sectors or (Sector(A),)
    start = min(k, -(-k // sum(s.weight for s in sectors)) + 1)
    want = [min(start, s.dim) for s in sectors]
    found = [None] * len(sectors)
    solves = 0
    while True:
        for i, s in enumerate(sectors):
            if found[i] is not None:
                continue
            vals, vecs, made = s.pairs(B, want[i])
            for read in readers:
                read(s)
            s.drop()
            found[i] = vals, vecs
            solves += made
        readers = ()
        merged = np.sort(np.concatenate([np.repeat(v, s.weight) for s, (v, _)
                                         in zip(sectors, found)]))
        kth = merged[k - 1] if len(merged) >= k else np.inf
        short = [i for i, (v, _) in enumerate(found)
                 if v[-1] < kth and want[i] < sectors[i].dim]
        if not short:
            break
        for i in short:
            want[i], found[i] = min(2 * want[i], sectors[i].dim), None

    # candidates in sector order, a complex pair as (real part, imaginary part)
    cands = [(val, s, vecs, j, part) for s, (vals, vecs) in zip(sectors, found)
             for j, val in enumerate(vals) for part in range(s.weight)]
    order = np.argsort([c[0] for c in cands], kind="stable")[:k]
    vals = np.array([cands[i][0] for i in order])
    vecs = np.empty((n, k), order="F")  # the layout of eigsh's vectors
    for col, i in enumerate(order):
        _, s, Y, j, part = cands[i]
        x = s.expand(Y[:, j])
        vecs[:, col] = x.imag if part else x.real

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
    bad = res > _EIG_TOL * scale
    if bad.any():
        raise SolverError(
            f"eigen residuals exceed tolerance: {res[bad]} vs tol*{scale[bad]}")
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, residuals=res,
                    solves=solves)


def extreme_eigenvalues(A, B, which: str, k: int = 1, sectors=None) -> np.ndarray:
    """k eigenvalues, ascending, of A u = theta B u (A Hermitian, B HPD) at the
    end(s) `which` ("LA", "SA", "BE", the last for a real pencil only).

    The pencil is run in `sectors` of B (Sector objects whose A is B, each
    pencil matrix commuting with them), by default the one `Sector(B)`, one
    sector at a time (`Sector.extremes`): a sector's LU, made unless it is
    alive, is dropped as its run ends.  The k values at `which` are taken
    over all sectors, a complex sector's twice; ARPACK's Arnoldi runs a
    complex sector and gives the real parts of its Ritz values.

    Lanczos stops once each Ritz residual is below sqrt(u) |theta|, with a
    basis of max(2k + 1, 9) vectors, or n if fewer.  An A with no nonzero
    value (it may store zeros) has every theta 0, and ARPACK fails on it.
    """
    n = A.shape[0]
    if k < 1 or k >= n:
        raise SolverError(f"need 1 <= k < dimension, got k={k}, n={n}")
    vals = np.sort(np.concatenate([np.repeat(s.extremes(A, which, k), s.weight)
                                   for s in sectors or (Sector(B),)]))
    low = {"SA": k, "LA": 0, "BE": k // 2}[which]  # eigsh's split of "BE"
    return np.concatenate([vals[:low], vals[len(vals) - (k - low):]])


def factorized_solver(A):
    """Sparse LU factorization of the Hermitian matrix A in its CSC form,
    returned as the `SuperLU` object's bound `solve`; raises on singular A.

    A canonical CSR A is factorized through A^H, its conjugate-transpose
    view, which is A's own CSC form: no copy of a real A is made beside the
    LU.  (Its plain transpose would be conj(A) when A is complex.)  Any
    other A is converted: `splu` sorts an unsorted input in place, and a
    view would share A's indices.  The free heap pages go back to the
    system before and after `splu`, where the C library can do that.
    """
    if sp.issparse(A) and A.format == "csr" and A.has_canonical_format:
        A = A.conj(copy=False).T
    A = sp.csc_matrix(A)
    _trim()
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    _trim()
    return lu.solve


def _sector_source(s: Sector, A, rhs: np.ndarray) -> np.ndarray:
    """y solving P^H A P y = c = P^H rhs in the sector s through its LU,
    refined once in the sector, and checked: its residual must be within
    _SOURCE_REL_TOL of c.  The LU is used if alive and left alive, else made
    and dropped; every reference to it dies on return."""
    made = s._lu is None
    solve, c = s.lu(), s.restrict(rhs)
    y = solve(c)
    y = y + solve(c - s.restrict(A @ s.expand(y)))
    if made:
        s.drop()
    nr = np.linalg.norm(c - s.restrict(A @ s.expand(y)))
    if nr > _SOURCE_REL_TOL * max(np.linalg.norm(c), 1e-300):
        raise SolverError(f"source solve residual {nr:.3e} exceeds tolerance")
    return y


def solve_source(A, rhs: np.ndarray, sectors=None) -> np.ndarray:
    """Solve A u = rhs for real rhs in `sectors` of A, by default the one
    `Sector(A)`: u sums weight * Re(P y) over the sectors, y solving the
    sector's system through its LU, refined once in the sector for coarse
    meshes (y += A_s^-1 P^H (rhs - A P y)), its residual checked.  A
    sector's LU that is alive is used and left alive; any other is made and
    dropped before the next sector's, so one LU is alive at a time.  Over
    some of A's sectors u is the part of A^-1 rhs in their span, and the
    parts over all of them, summed in sector order, are the whole solve's u.
    """
    rhs = np.asarray(rhs, dtype=float)
    if A.shape[0] != rhs.shape[0]:
        raise SolverError(f"rhs length {rhs.shape[0]} != dim {A.shape[0]}")
    u = 0.0
    for s in sectors or (Sector(A),):
        u = u + s.weight * s.expand(_sector_source(s, A, rhs)).real
    return u
