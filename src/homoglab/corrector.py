"""First-order two-scale correctors, eigenspace alignment and the residual
certificate for eigenvalue localization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from . import geometry
from .cell import CellSolution, eval_chi
from .eigensolve import solve_gevp
from .errors import AlignmentError, GeometryError, SolverError
from .geometry import Mesh
from .spectral import DiscreteOperatorBundle, apply_Keps

_RANK_FLOOR = 1e-12  # cross-Gram singular value of a lost direction (unit M-norms)
_CERT_SLACK = 1e-8   # relative rounding of alpha and of 1/lambda_j the certificate forgives


@dataclass
class AlignmentResult:
    """Optimal orthogonal match between corrector and discrete eigenfamilies."""

    matrix: np.ndarray            # M_eps, (m, m) orthogonal
    heps_errors: np.ndarray       # per-mode error in the eps-norm
    l2_errors: np.ndarray


def recovered_gradient(mesh: Mesh, U: np.ndarray) -> np.ndarray:
    """Area-weighted average of adjacent element gradients at each node, for
    each column of the (N, m) nodal fields U; returns (N, m, 2)."""
    tris, areas, grads = mesh.p1()
    gu = np.einsum("tla,tlm->tma", grads, U[tris])   # per-element gradients
    acc = np.zeros((mesh.n_nodes, U.shape[1], 2))
    wsum = np.zeros(mesh.n_nodes)
    for loc in range(3):
        np.add.at(acc, tris[:, loc], areas[:, None, None] * gu)
        np.add.at(wsum, tris[:, loc], areas)
    used = wsum > 0.0
    acc[used] /= wsum[used, None, None]
    return acc


def build_corrector(u_hom: np.ndarray, a_mesh: Mesh, sol: CellSolution,
                    eps: float, bundle: DiscreteOperatorBundle,
                    cutoff: bool) -> np.ndarray:
    """U^j(x) = u^j(x) + eps * psi(x) * chi(x/eps) . grad u^j(x) for each macro
    mode u^j, a column of the nodal fields u_hom (N, m) on the A mesh.

    Returns the (m, n) corrector values on the n reduced DoFs; the m modes
    share one point location on A and one gather of chi (`eval_chi`).

    Outside A the corrector is zero.  With cutoff=True, psi ramps linearly
    from 0 at dA to 1 at distance 2*eps, so |grad psi| = 1/(2 eps) <= 2/eps.
    """
    keep = bundle.red.keep
    nodes = bundle.mesh.nodes[keep]
    d = geometry.rect_distance(a_mesh.bounds(), nodes)
    inside = np.nonzero(d > 0.0)[0]
    x = nodes[inside]
    grad = recovered_gradient(a_mesh, u_hom)
    vals, hit = geometry.interpolate(
        a_mesh, np.column_stack([u_hom, grad[:, :, 0], grad[:, :, 1]]), x)
    failures = keep[inside[~hit]]
    if len(failures):
        raise GeometryError(
            f"point location failed for {len(failures)} nodes inside A, "
            f"first offenders {failures[:5].tolist()}")
    uval, gx, gy = np.split(vals, 3, axis=1)
    chi_val = eval_chi(sol, bundle.mesh, keep[inside])
    psi = np.minimum(1.0, d[inside] / (2.0 * eps))[:, None] if cutoff else 1.0
    U = np.zeros((u_hom.shape[1], len(keep)))
    U[:, inside] = (uval + eps * psi * (chi_val[:, :1] * gx
                                        + chi_val[:, 1:] * gy)).T
    return U


def align_eigenspaces(u_eps: np.ndarray, U: np.ndarray, M_mass,
                      A_form=None) -> AlignmentResult:
    """Orthogonal Procrustes match of the corrector family onto the discrete one.

    G[l,k] = <U^l, u^k>_M, SVD G = W diag(s) V', M_eps = W V'.  Per-mode
    errors of U^l - sum_k M_eps[l,k] u^k are reported in L2 and, when the
    bilinear-form matrix is supplied, in the eps-norm.
    """
    u_eps = np.atleast_2d(np.asarray(u_eps, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if u_eps.shape != U.shape:
        raise AlignmentError(f"family shapes differ: {U.shape} vs {u_eps.shape}")
    m = U.shape[0]
    G = U @ (M_mass @ u_eps.T)
    W, s, Vt = la.svd(G)
    if s.min() < _RANK_FLOOR:
        raise AlignmentError(f"rank-deficient cross Gram, singular values {s}")
    M_eps = W @ Vt

    heps = np.zeros(m)
    l2 = np.zeros(m)
    for l in range(m):
        diff = U[l] - M_eps[l] @ u_eps
        l2[l] = np.sqrt(float(diff @ (M_mass @ diff)))
        if A_form is not None:
            heps[l] = np.sqrt(float(diff @ (A_form @ diff)))
    return AlignmentResult(matrix=M_eps, heps_errors=heps, l2_errors=l2)


def _orthonormalize(X: np.ndarray, M_mass) -> np.ndarray:
    G = X @ (M_mass @ X.T)
    try:
        L = la.cholesky(G, lower=True)
    except la.LinAlgError as exc:
        raise AlignmentError("linearly dependent span in eigenspace_gap") from exc
    return la.solve_triangular(L, X, lower=True)


def eigenspace_gap(span_a: np.ndarray, span_b: np.ndarray, M_mass) -> float:
    """Largest principal-angle sine between two equal-dimension M-spans.

    The sines come from the residual of the orthonormal basis of span_b after
    M-projection onto span_a, not from sqrt(1 - cos^2), so small angles keep
    full relative accuracy (Knyazev & Argentati, SIAM J. Sci. Comput. 23(6),
    2002).  The largest sine squared is the largest eigenvalue of the
    residual's M-Gram matrix.
    """
    A = np.atleast_2d(np.asarray(span_a, dtype=float))
    B = np.atleast_2d(np.asarray(span_b, dtype=float))
    if A.shape != B.shape:
        raise AlignmentError(f"span dimensions differ: {A.shape} vs {B.shape}")
    Ao = _orthonormalize(A, M_mass)
    Bo = _orthonormalize(B, M_mass)
    R = Bo - (Bo @ (M_mass @ Ao.T)) @ Ao
    s2 = float(la.eigvalsh(R @ (M_mass @ R.T)).max())
    return float(np.sqrt(min(1.0, max(0.0, s2))))


@dataclass
class VisikResult:
    residual: float               # alpha = ||K U - mu U||_eps
    nearest_distance: float       # min_j |mu_j - mu| over the discrete spectrum
    nearest_index: int
    certificate: bool


def visik_check(bundle: DiscreteOperatorBundle, U: np.ndarray, mu: float,
                spectrum, KU: np.ndarray | None = None) -> VisikResult:
    """Residual localization: some discrete mu_j must lie within alpha of mu.

    U is normalized internally to unit eps-norm (idempotent when already
    normalized).  KU is K_eps U when the caller has it (a study sums it
    sector by sector while the eigensolve's LUs are alive), else it is
    `apply_Keps(bundle, U)`.  The eps-norms and any further solve read the
    bundle's `red.A` and `red.M`.  The certificate is exact for the
    self-adjoint discrete operator: while the supplied spectrum ends below
    1/mu, twice as many modes are solved in the bundle's sectors, their
    LUs made again one at a time.  Once lambda_k >= 1/mu, every later mode
    has 1/lambda_j <= mu and is no nearer to mu.
    """
    A, M = bundle.red.A, bundle.red.M
    while spectrum.eigenvalues[-1] < 1.0 / mu:
        spectrum = solve_gevp(A, M, 2 * spectrum.k, sectors=bundle.sectors)
    U = np.asarray(U, dtype=float)
    nrm = np.sqrt(float(U @ (A @ U)))
    if nrm == 0.0:
        raise SolverError("zero eps-norm trial field in visik_check")
    if KU is None:
        KU = apply_Keps(bundle, U)
    diff = (KU - mu * U) / nrm
    alpha = np.sqrt(float(diff @ (A @ diff)))
    mus = 1.0 / spectrum.eigenvalues
    j = int(np.argmin(np.abs(mus - mu)))
    dist = float(np.abs(mus[j] - mu))
    return VisikResult(residual=alpha, nearest_distance=dist, nearest_index=j,
                       certificate=dist <= alpha * (1.0 + _CERT_SLACK))
