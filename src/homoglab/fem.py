"""P1 assembly of stiffness, mass and hole-boundary (Robin) mass matrices,
and constraint elimination."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import geometry
from .errors import AssemblyError, ConstraintError
from .geometry import Mesh

_MIN_AREA = 1e-14


def _accumulate(n: int, rows, cols, vals) -> sp.csr_matrix:
    """Sum the COO triplets into canonical CSR (tocsr sums duplicates)."""
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def fold_matrix(A, rows: np.ndarray, cols: np.ndarray, n: int,
                phase: np.ndarray | None = None) -> sp.csr_matrix:
    """The n x n canonical CSR matrix that sums each entry (i, j) of the CSR
    matrix A, times phase[j] if given, into (rows[i], cols[j]); with (c, .)
    maps, c copies of A, copy k's entry (i, j) times phase[k, j] (the phase
    is indexed like the column map) into (rows[k, i], cols[k, j]).  A row
    mapped to -1 is dropped, all its entries at once, before any value is
    formed; the few entries whose column maps to -1 are dropped after, and
    so is every explicit zero of the result.  The kept triplets keep the
    copies' and A's order, and take the maps' integer type.  With P the
    matrix with a one in row i, column map[i], P' A P is
    fold_matrix(A, map, map, P.shape[1])."""
    rows, cols = np.atleast_2d(rows), np.atleast_2d(cols)
    copy, row = np.nonzero(rows >= 0)
    count = np.diff(A.indptr)[row]
    # the entries of the kept rows, copy by copy: one run of A's positions each
    start = A.indptr[row] - (np.cumsum(count) - count)
    at = np.repeat(start, count) + np.arange(count.sum())
    i = np.repeat(rows[copy, row], count)
    # each entry's place in the (c, N) column map and phase
    at_col = np.repeat(copy * cols.shape[1], count) + A.indices[at]
    j = cols.ravel()[at_col]
    vals = A.data[at] if phase is None else A.data[at] * phase.ravel()[at_col]
    del at, at_col  # only the triplets stay alive while they are summed
    kept = j >= 0
    if not kept.all():
        i, j, vals = i[kept], j[kept], vals[kept]
    out = _accumulate(n, i, j, vals)
    out.eliminate_zeros()
    return out


def cell_matrix(mesh: Mesh, assemble, l2g: np.ndarray,
                region: int = geometry.FLUID) -> sp.csr_matrix:
    """`assemble(mesh, tris=...)` over cell 0's triangles of `region` of a
    tiled mesh with cell node map l2g, on cell 0's N0 nodes: (N0, N0)."""
    n0 = l2g.shape[1]
    tris = np.nonzero(mesh.tri_region[:mesh.n_triangles // len(l2g)] == region)[0]
    return assemble(mesh, tris=tris)[:n0, :n0]


@dataclass
class Tiled:
    """A reduced matrix of a tiled mesh (`geometry.tile_template`) kept as
    its parts: the n^2 copies of cell 0's (N0, N0) CSR matrix `cell`
    (`cell_matrix`), copy k's entry (i, j) summed into (map[k, i],
    map[k, j]) and dropped where either is -1, plus `extra`, a (dim, dim)
    CSR matrix or None (the Robin mass R, which K may cut off cells).  With
    map = dof[cell_node_map] for a node -> DoF map `dof`, the assembled
    matrix (`tocsr`) is `ReducedSystem.project` of the full-node one.

    No full-size matrix is made unless `tocsr` is called: a product gathers
    x at the map, multiplies by `cell`, scatter-adds and adds extra @ x, and
    a sector folds the cell copies straight onto its own rows
    (`spectral._TurnSector.project`).  Each cell gets the matrix of an exact
    translate of cell 0, whose coordinates are eps times the template's.  A
    node stored near 1 is its translate rounded, by up to the machine
    epsilon u, so triangle by triangle the entries differ from these by
    about u / (eps h_ref) relative."""

    cell: sp.csr_matrix
    map: np.ndarray           # (n^2, N0) int32 DoF of each cell node, -1 where fixed
    dim: int
    extra: sp.csr_matrix | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.dim, self.dim

    def tocsr(self) -> sp.csr_matrix:
        """The assembled matrix: the copies folded (`fold_matrix`), plus extra."""
        out = fold_matrix(self.cell, self.map, self.map, self.dim)
        return out if self.extra is None else out + self.extra

    def __matmul__(self, x):
        """The product with a vector (dim,) or a block (dim, m), real or
        complex, through the cell: each column's copies summed in map order."""
        x = np.asarray(x)
        if np.iscomplexobj(x):
            return self @ x.real + 1j * (self @ x.imag)
        cols = x.reshape(self.dim, -1)
        at = self.map.T  # (N0, n^2); a -1 reads the zero appended to x
        out = np.empty(cols.shape)
        for c, col in enumerate(cols.T):
            y = self.cell @ np.append(col, 0.0)[at]
            out[:, c] = np.bincount(self._bins, y.ravel(), minlength=self.dim + 1)[1:]
        if self.extra is not None:
            out += self.extra @ cols
        return out.reshape(x.shape)

    @functools.cached_property
    def _bins(self) -> np.ndarray:
        """The scatter bins of a product, made on the first one and kept:
        1 + map.T, so that a -1 falls in bin 0."""
        return self.map.T.ravel().astype(np.intp) + 1


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
    tri_nodes, areas, grads = mesh.p1(tris)
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


@dataclass
class ReducedSystem:
    """Constraint-eliminated matrices and the node -> DoF map that expands
    reduced vectors back to full ones.  P, the n x dim matrix with a one in
    row i, column dof[i], is never built: `expand`, `restrict` and `project`
    apply P u, P' f and P' A P through the map.  A and M are CSR, or `Tiled`
    on a tiled mesh."""

    A: sp.csr_matrix | Tiled
    M: sp.csr_matrix | Tiled
    R: sp.csr_matrix | None
    dof: np.ndarray           # int32 reduced DoF of each node, -1 where fixed
    keep: np.ndarray          # int32 first full node of each reduced DoF

    @property
    def dim(self) -> int:
        return len(self.keep)

    def expand(self, u_red: np.ndarray) -> np.ndarray:
        """P @ u_red, gathered through the node -> DoF map."""
        u_red = np.asarray(u_red)
        full = np.zeros((len(self.dof),) + u_red.shape[1:],
                        dtype=np.result_type(u_red, float))
        nodes = self.dof >= 0
        full[nodes] = u_red[self.dof[nodes]]
        return full

    def restrict(self, f: np.ndarray) -> np.ndarray:
        """P' f, summed through the node -> DoF map."""
        f = np.asarray(f)
        out = np.zeros((self.dim,) + f.shape[1:], dtype=np.result_type(f, float))
        nodes = self.dof >= 0
        np.add.at(out, self.dof[nodes], f[nodes])
        return out

    def project(self, A) -> sp.csr_matrix:
        """Reduce a full-node CSR matrix to the reduced DoFs: P' A P."""
        return fold_matrix(A, self.dof, self.dof, self.dim)


def dof_map(n: int, fixed, fold: np.ndarray | None = None) -> np.ndarray:
    """Node -> reduced-DoF map for `apply_constraints`.

    Node i takes the DoF of node fold[i] (itself by default), and fold[i]
    must fold onto itself.  The nodes that fold onto themselves and are not
    in `fixed` (indices or a mask) are numbered in node order; a node
    folding onto a fixed node maps to -1.
    """
    own = np.ones(n, dtype=bool) if fold is None else fold == np.arange(n)
    own[fixed] = False
    dof = np.where(own, np.cumsum(own) - 1, -1)
    return dof if fold is None else dof[fold]


def periodic_fold(template: Mesh) -> np.ndarray:
    """The node each template node folds onto under periodicity: a face node
    at lattice key (kx, ky) onto the one at (kx mod m, ky mod m), so the
    three non-origin corners all land on the (0, 0) corner."""
    key = geometry.face_keys(template)
    m = int(key.max())
    nodes = np.nonzero(key[:, 0] >= 0)[0]
    kx, ky = key[nodes].T
    at_key = np.full((m + 1, m + 1), -1, dtype=np.int64)
    at_key[kx, ky] = nodes
    fold = np.arange(template.n_nodes)
    fold[nodes] = at_key[kx % m, ky % m]
    return fold


def apply_constraints(A, M, R, dof: np.ndarray) -> ReducedSystem:
    """Eliminate constraints by projection: reduced A = P' A P (see
    `ReducedSystem.project`), for the operator A, the mass M and the Robin
    mass R, each None where there is none or where the caller reduces it
    another way (a `Tiled` one, through the map).

    dof[i] is the reduced DoF of node i, or -1 where the node is fixed to
    zero.  Nodes sharing a DoF are folded together (periodic faces).
    """
    dof = np.asarray(dof)
    for X in (A, M, R):
        if X is not None and dof.shape != (X.shape[0],):
            raise ConstraintError(f"dof map of shape {dof.shape} for {X.shape[0]} nodes")
    nodes = np.nonzero(dof >= 0)[0]
    if len(nodes) == 0:
        raise ConstraintError("all nodes constrained: empty space")
    dofs, first = np.unique(dof[nodes], return_index=True)
    if dofs[-1] != len(dofs) - 1:
        raise ConstraintError("dof map skips a reduced DoF")
    red = ReducedSystem(A=None, M=None, R=None, dof=dof.astype(np.int32),
                        keep=nodes[first].astype(np.int32))
    red.A, red.M, red.R = (None if X is None else red.project(X) for X in (A, M, R))
    return red
