"""P1 assembly of stiffness, mass and hole-boundary (Robin) mass matrices,
constraint elimination, and the discrete norms used throughout."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import geometry
from .errors import AssemblyError, ConstraintError
from .geometry import Mesh

_MIN_AREA = 1e-14


def _accumulate(n: int, rows, cols, vals) -> sp.csr_matrix:
    """Sum the COO triplets into canonical CSR (tocsr sums duplicates)."""
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _block_indices(tri_nodes: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """(9, T) int32 row and column indices: block b couples local node
    blocks[b][0] (row) with blocks[b][1] (column) in every triangle."""
    rows = np.empty((len(blocks), len(tri_nodes)), dtype=np.int32)
    cols = np.empty_like(rows)
    for b, (i, j) in enumerate(blocks):
        rows[b], cols[b] = tri_nodes[:, i], tri_nodes[:, j]
    return rows, cols


def _check_areas(mesh: Mesh, tri_idx: np.ndarray):
    a = mesh.areas()[tri_idx]
    if len(a) and a.min() < _MIN_AREA:
        t = tri_idx[int(np.argmin(a))]
        raise AssemblyError(f"degenerate triangle {t}, area {mesh.areas()[t]:.3e}")


# local (row, col) per COO block: each unordered stiffness pair followed by its
# mirror, and the mass matrix row by row
_STIFF_BLOCKS = ((0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (1, 2), (2, 1), (2, 2))
_MASS_BLOCKS = tuple((i, j) for i in range(3) for j in range(3))


def assemble_stiffness(mesh: Mesh, coeff: np.ndarray | None = None,
                       tris: np.ndarray | None = None) -> sp.csr_matrix:
    """Stiffness over the triangle indices `tris`, by default the FLUID ones;
    optional constant 2x2 coefficient matrix.

    Local entries are computed once per unordered index pair and mirrored, so
    the assembled matrix is symmetric to the last bit.  The COO triplets are
    written straight into (9, T) arrays with int32 node indices.
    """
    if tris is None:
        tris = mesh.fluid_triangles()
    _check_areas(mesh, tris)
    areas = mesh.areas()[tris]
    grads = mesh.grads()[tris]  # (T,3,2)
    tri_nodes = mesh.triangles[tris]
    if coeff is not None:
        cg = np.einsum("ab,tlb->tla", np.asarray(coeff, dtype=float), grads)
    else:
        cg = grads
    rows, cols = _block_indices(tri_nodes, _STIFF_BLOCKS)
    vals = np.empty(rows.shape)
    for b, (i, j) in enumerate(_STIFF_BLOCKS):
        if i <= j:
            np.multiply(areas, np.einsum("ta,ta->t", grads[:, i], cg[:, j]), out=vals[b])
        else:  # the mirror of the block just before
            vals[b] = vals[b - 1]
    return _accumulate(mesh.n_nodes, rows.ravel(), cols.ravel(), vals.ravel())


_MASS_LOCAL = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def assemble_mass(mesh: Mesh, tris: np.ndarray | None = None) -> sp.csr_matrix:
    """Consistent P1 mass over the triangle indices `tris`, by default the
    FLUID ones; 1'M1 equals their area."""
    if tris is None:
        tris = mesh.fluid_triangles()
    _check_areas(mesh, tris)
    areas = mesh.areas()[tris]
    tri_nodes = mesh.triangles[tris]
    rows, cols = _block_indices(tri_nodes, _MASS_BLOCKS)
    vals = areas * _MASS_LOCAL.reshape(9, 1)
    return _accumulate(mesh.n_nodes, rows.ravel(), cols.ravel(), vals.ravel())


def assemble_robin_mass(mesh: Mesh, k_rect=None,
                        edges: np.ndarray | None = None) -> sp.csr_matrix:
    """1-D P1 mass over the boundary-edge indices `edges`, by default the
    HOLE_BDRY ones, keeping those whose midpoint lies outside closed K.

    With k_rect=None every selected edge contributes (q == 1 on all of the
    perforation boundary), which is what the trace-lemma check needs.
    """
    if edges is None:
        edges = np.nonzero(mesh.edge_kind == geometry.HOLE_BDRY)[0]
    ends = mesh.boundary_edges[edges]
    pa, pb = mesh.nodes[ends[:, 0]], mesh.nodes[ends[:, 1]]
    if k_rect is not None:
        out_k = ~geometry.point_in_closed_rect(k_rect, 0.5 * (pa + pb))
        ends, pa, pb = ends[out_k], pa[out_k], pb[out_k]
    length = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    a, b = ends[:, 0], ends[:, 1]
    # per edge, in this order: (a,a), (b,b), (a,b), (b,a)
    rows = np.column_stack([a, b, a, b]).ravel()
    cols = np.column_stack([a, b, b, a]).ravel()
    vals = np.column_stack([length / 3.0, length / 3.0,
                            length / 6.0, length / 6.0]).ravel()
    return _accumulate(mesh.n_nodes, rows, cols, vals)


DIRICHLET = "DIRICHLET"
PERIODIC = "PERIODIC"


@dataclass
class ConstraintMap:
    """Node constraints: Dirichlet zeros or periodic master/slave pairing."""

    kind: str
    dirichlet: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    pairs: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    def __post_init__(self):
        if self.kind not in (DIRICHLET, PERIODIC):
            raise ConstraintError(f"unknown constraint kind {self.kind!r}")
        if self.kind == PERIODIC and len(self.pairs):
            masters = set(int(p) for p in self.pairs[:, 0])
            slaves = set(int(p) for p in self.pairs[:, 1])
            if masters & slaves:
                raise ConstraintError("a node appears as both master and slave")


@dataclass
class ReducedSystem:
    """Constraint-eliminated matrices plus the expansion back to full DoFs."""

    S: sp.csr_matrix
    M: sp.csr_matrix
    R: sp.csr_matrix | None
    P: sp.csr_matrix          # full = P @ reduced
    keep: np.ndarray          # full node index of each reduced DoF

    @property
    def dim(self) -> int:
        return self.P.shape[1]

    def expand(self, u_red: np.ndarray) -> np.ndarray:
        return self.P @ u_red

    def restrict(self, u_full: np.ndarray) -> np.ndarray:
        return u_full[self.keep]

    def project(self, A) -> sp.csr_matrix:
        """Reduce a full-node matrix to the reduced DoFs: P' A P."""
        return (self.P.T @ A @ self.P).tocsr()


def apply_constraints(S, M, R, cmap: ConstraintMap, n_nodes: int | None = None) -> ReducedSystem:
    """Eliminate constraints by projection: reduced A = P' A P.

    DIRICHLET deletes the constrained rows/columns; PERIODIC folds slave
    rows/columns into their masters and deletes the slaves.
    """
    n = n_nodes if n_nodes is not None else S.shape[0]

    if cmap.kind == DIRICHLET:
        fixed = np.zeros(n, dtype=bool)
        if len(cmap.dirichlet):
            if cmap.dirichlet.min() < 0 or cmap.dirichlet.max() >= n:
                raise ConstraintError("Dirichlet node index out of range")
            fixed[cmap.dirichlet] = True
        keep = np.nonzero(~fixed)[0]
        if len(keep) == 0:
            raise ConstraintError("all nodes constrained: empty space")
        P = sp.csr_matrix(
            (np.ones(len(keep)), (keep, np.arange(len(keep)))), shape=(n, len(keep)))
    else:
        target = np.arange(n)
        for mref, s in cmap.pairs:
            target[s] = mref
        # resolve chains (corner nodes may point through another slave)
        for _ in range(4):
            target = target[target]
        retained = np.nonzero(target == np.arange(n))[0]
        red_index = -np.ones(n, dtype=np.int64)
        red_index[retained] = np.arange(len(retained))
        col = red_index[target]
        if (col < 0).any():
            raise ConstraintError("periodic pairing does not resolve to masters")
        P = sp.csr_matrix((np.ones(n), (np.arange(n), col)), shape=(n, len(retained)))
        keep = retained

    red = ReducedSystem(S=None, M=None, R=None, P=P.tocsr(), keep=keep)
    red.S, red.M, red.R = (None if A is None else red.project(A) for A in (S, M, R))
    return red


def norms(S, M, R, u: np.ndarray) -> dict[str, float]:
    """l2 = u'Mu, h1_semi = u'Su, eps_norm_sq = u'(S+R)u."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != S.shape[0]:
        raise AssemblyError(f"field length {u.shape[0]} != system dim {S.shape[0]}")
    h1 = float(u @ (S @ u))
    l2 = float(u @ (M @ u))
    eps_sq = h1 + (float(u @ (R @ u)) if R is not None else 0.0)
    return {"l2": l2, "h1_semi": h1, "eps_norm_sq": eps_sq}


def periodic_constraints(template: Mesh) -> ConstraintMap:
    """Periodic pairing of the template's opposite faces via exact lattice keys.

    Masters live on the bottom and left faces; the three non-origin corners
    all collapse onto the (0,0) corner.
    """
    face_keys: dict[int, tuple[int, int]] = template.meta["face_keys"]
    m = template.meta["m"]
    by_key = {v: k for k, v in face_keys.items()}
    pairs = []
    for (kx, ky), node in sorted(by_key.items()):
        if kx == m and ky == m:
            pairs.append((by_key[(0, 0)], node))
        elif kx == m and 0 < ky < m:
            pairs.append((by_key[(0, ky)], node))
        elif ky == m and 0 < kx < m:
            pairs.append((by_key[(kx, 0)], node))
        elif kx == m and ky == 0:
            pairs.append((by_key[(0, 0)], node))
        elif kx == 0 and ky == m:
            pairs.append((by_key[(0, 0)], node))
    return ConstraintMap(kind=PERIODIC, pairs=np.array(pairs, dtype=np.int64))
