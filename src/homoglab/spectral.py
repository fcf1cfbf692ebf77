"""The three eigenproblems (perforated Neumann-Robin, homogenized Dirichlet,
plain Dirichlet Laplacian), the source operator K_eps and the extension T_eps."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import fem, geometry
from .eigensolve import Sector, solve_gevp, solve_source
from .errors import SolverError, config_int
from .geometry import DomainConfig, Mesh

_C4_TOL = 1e-12          # relative commutator bound for the rotation sectors
_NODE_LATTICE = 2.0**24  # node positions are matched on this lattice
# the E, A and B sectors (E's conjugate is implied); the complex E, the
# largest LU, is factorized first
_CHARACTERS = (1j, 1.0, -1.0)


@dataclass
class DiscreteOperatorBundle:
    """Reduced matrices, constraint bookkeeping and the one factorization of
    A, split over the sectors of A (`sectors`); only a perforated bundle
    carries the Robin mass R.

    A perforated bundle keeps A = S + R and M as `fem.Tiled` operators
    (`red.A`, `red.M`): cell 0's S and M, the DoF map of every cell's copy,
    and R.  Its solves read those: every product with A or M goes through
    the cell, and each of the quarter turn's sectors folds its own matrices
    from the cell, so no full-size A or M is made; the one sector of a
    bundle without the turn assembles A for its LU and M for its run.
    `A`, `M` and `S` are the assembled CSR matrices, for callers that need
    entries; A and M are made on first read and kept."""

    mesh: Mesh
    red: fem.ReducedSystem

    @functools.cached_property
    def A(self):
        """The bilinear-form matrix of the problem (S + R when perforated)."""
        X = self.red.A
        return X.tocsr() if isinstance(X, fem.Tiled) else X

    @property
    def S(self):
        """The stiffness, A - R, made on each access."""
        return self.A if self.R is None else self.A - self.R

    @functools.cached_property
    def M(self):
        X = self.red.M
        return X.tocsr() if isinstance(X, fem.Tiled) else X

    @property
    def R(self):
        return self.red.R

    @functools.cached_property
    def _orbits(self):
        """`_rotation_orbits` of the bundle, found once."""
        return _rotation_orbits(self)

    @functools.cached_property
    def sectors(self):
        """A in the quarter turn's sectors when the turn is a symmetry of A, M
        and R (`_rotation_orbits`), else in one sector; a sector's LU is made
        when a solve needs it and lives until the sector drops it."""
        return self.sectors_of(self.red.A)

    def sectors_of(self, X, *parts):
        """The bundle's sectors with X as their operator, each with no LU,
        when the turn is a symmetry of A, M and R and every matrix of
        `parts` commutes with it too (`_commutes`); else the one sector of
        X.  X must be a linear combination of A, M, R and `parts`, so that
        it commutes with the turn when they do."""
        if self._orbits is None or not all(_commutes(Y, self._orbits[2]) for Y in parts):
            return (Sector(X),)
        orbits, fixed, _ = self._orbits
        return tuple(_TurnSector(X, orbits, fixed, chi) for chi in _CHARACTERS)


def _rotation_orbits(bundle: DiscreteOperatorBundle):
    """The reduced DoFs' orbits under the quarter turn (x, y) -> (1 - y, x):
    an (m, 4) array whose column g holds the g-th turn of column 0, the
    DoFs the turn fixes (the centre, if it is a DoF), and the turned DoF of
    each DoF.  The turn is cell 0's, tau, carried to each cell by index:
    cell c = (c % n, c // n) = (ix, iy) turns onto rot(c) = (n - 1 - iy, ix).

    None unless the bundle's A and M are tiled from cell 0 (`fem.Tiled`; a
    domain mesh has no cells), tau maps cell 0's nodes onto themselves and
    commutes with cell 0's S and M, and the turn with R (`_commutes`).  The
    turn then keeps the DoFs: the FLUID nodes (M's rows) off the square's
    boundary.
    """
    mesh, red = bundle.mesh, bundle.red
    if not all(isinstance(X, fem.Tiled) for X in (red.A, red.M)):
        return None
    l2g = geometry.cell_node_map(mesh)
    X = mesh.nodes[:l2g.shape[1]] / mesh.eps
    # the lattice point of each node of cell 0, then of each turned node
    points = np.rint(np.vstack([X, np.column_stack([1.0 - X[:, 1], X[:, 0]])]) * _NODE_LATTICE)
    rows, at = np.unique(points, axis=0, return_inverse=True)
    if len(rows) > len(X):  # a turned node lands on no node
        return None
    tau = np.argsort(at[:len(X)])[at[len(X):]]
    if not all(_commutes(X.cell, tau) for X in (red.A, red.M)):
        return None
    n = round(1.0 / mesh.eps)
    rot = np.rot90(np.arange(n * n).reshape(n, n)).ravel()
    node_turn = np.empty(mesh.n_nodes, dtype=l2g.dtype)
    node_turn[l2g] = l2g[rot][:, tau]
    turn = red.dof[node_turn[red.keep]]
    if not _commutes(bundle.R, turn):
        return None
    idx = np.arange(len(turn), dtype=turn.dtype)
    half = turn[turn]
    orbits = np.column_stack([idx, turn, half, turn[half]])
    fixed = turn == idx
    first = ~fixed & (idx == orbits.min(axis=1))
    return orbits[first], idx[fixed], turn


def _commutes(X, turn) -> bool:
    """Whether the sparse X commutes with the DoF permutation `turn`: the
    turned X has X's sparsity pattern, and no entry differs from X's by more
    than _C4_TOL times X's largest.  Once the turn is seen to keep each
    row's entry count, only the rows with entries are turned and compared,
    so a matrix with few (the Robin mass R, on the hole boundary) costs
    less; X's entries are those rows' entries, in row order."""
    counts = np.diff(X.indptr)
    if not np.array_equal(counts[turn], counts):
        return False
    back = np.empty(len(turn), dtype=X.indices.dtype)
    back[turn] = np.arange(len(turn))
    T = X[turn[np.flatnonzero(counts)]]  # a copy; renumbering its columns turns them
    T.indices = back[T.indices]
    T.has_sorted_indices = False
    T.sort_indices()
    if not X.has_sorted_indices:
        X = X.sorted_indices()
    return (np.array_equal(T.indices, X.indices)
            and np.abs(T.data - X.data).max(initial=0.0)
            <= _C4_TOL * np.abs(X.data).max(initial=0.0))


class _TurnSector(Sector):
    """The quarter-turn sector of A with character chi.  Its basis P is kept
    as the DoF orbits: column o carries chi^g in row orbits[o, g], and in
    the A sector (chi = 1) each fixed DoF has a column of its own."""

    def __init__(self, A, orbits: np.ndarray, fixed: np.ndarray, chi):
        super().__init__(A)
        self.orbits, self.n = orbits, A.shape[0]
        self.chi = chi ** np.arange(4)
        self.fixed = fixed if chi == 1.0 else fixed[:0]
        self.dim = len(orbits) + len(self.fixed)
        self.weight = 2 if self.chi.dtype.kind == "c" else 1

    def expand(self, y):
        """P y."""
        m = len(self.orbits)
        x = np.zeros(self.n, dtype=np.result_type(y, self.chi))
        x[self.orbits] = np.multiply.outer(y[:m], self.chi)
        x[self.fixed] = y[m:]
        return x

    def restrict(self, f):
        """P^H f."""
        return np.concatenate([f[self.orbits] @ self.chi.conj(), f[self.fixed]])

    def project(self, X):
        """P^H X P for an X that commutes with the turn, a CSR matrix or a
        `fem.Tiled` one.  Row orbits[o, 0] of P is the unit row e_o, so
        X P = P W gives W = (X P)[those rows]: those rows of X folded onto
        the orbits with phase chi^g, one `fem.fold_matrix` call that drops
        every other row before forming a value.  A tiled X's cell copies
        are folded so, straight from the cell, and its extra (R) is added
        folded the same way.  P^H X P = P^H P W with P^H P = 4 on an orbit
        and 1 on a fixed DoF, so a quarter of X's rows are used.  Made
        Hermitian to the last bit."""
        m, k = len(self.orbits), len(self.fixed)
        # each DoF's row of W (its orbit's first DoF, or a fixed DoF), its
        # column and its phase; a tiled map's -1 reads the -1 in slot n
        row, col = np.full((2, self.n + 1), -1, dtype=np.int32)
        row[self.orbits[:, 0]] = np.arange(m)
        col[self.orbits] = np.arange(m)[:, None]
        row[self.fixed] = col[self.fixed] = m + np.arange(k)
        phase = np.ones(self.n + 1, dtype=self.chi.dtype)
        phase[self.orbits] = self.chi

        def fold(Y, at):  # Y's rows and columns are the DoFs `at`
            return fem.fold_matrix(Y, row[at], col[at], m + k, phase[at])

        if not isinstance(X, fem.Tiled):
            W = fold(X, slice(self.n))
        else:
            W = fold(X.cell, X.map)
            if X.extra is not None:
                W = W + fold(X.extra, slice(self.n))
        W.data[:W.indptr[m]] *= 4.0
        W = W + W.conj().T
        W.data *= 0.5
        return W


def build_perforated_bundle(cfg: DomainConfig) -> DiscreteOperatorBundle:
    """Tile Omega and set up A = S + R and M over its FLUID triangles
    (Omega_eps) with the outer Dirichlet nodes and the nodes off Omega_eps
    eliminated: S and M as cell 0's matrices and the reduced DoF of every
    cell's copy of each cell node (`fem.Tiled`, one map for both), and R
    edge by edge, since K may cut a cell, then reduced
    (`fem.apply_constraints`).  No full-size S or M is made."""
    mesh = geometry.build_perforated_mesh(cfg)
    fixed = ~mesh.fluid_nodes()
    fixed[mesh.outer_nodes()] = True
    red = fem.apply_constraints(None, None, fem.assemble_robin_mass(mesh, cfg.k_rect),
                                fem.dof_map(mesh.n_nodes, fixed))
    l2g = geometry.cell_node_map(mesh)
    at = red.dof[l2g]
    red.M = fem.Tiled(fem.cell_matrix(mesh, fem.assemble_mass, l2g), at, red.dim)
    red.A = fem.Tiled(fem.cell_matrix(mesh, fem.assemble_stiffness, l2g), at, red.dim,
                      red.R)
    return DiscreteOperatorBundle(mesh=mesh, red=red)


def solve_perforated_evp(cfg: DomainConfig, k: int, readers=None):
    """k smallest eigenpairs of (S+R) u = lambda M u on Omega_eps.

    Eigenfunctions come back L2(Omega_eps)-orthonormal on the reduced DoFs.
    The pencil is the bundle's `red.A` and `red.M`, so with the quarter
    turn no full-size A or M is made.  A k that is not an integer >= 1 is
    refused before the mesh is built.
    `readers(bundle)`, when given, is called once the bundle is built,
    before any LU is made, and what it returns is `solve_gevp`'s readers:
    each is called on each sector while the sector's LU is alive, in the
    one visit that makes the LU, uses it and drops it, so one LU is alive
    at a time.  A later solve on the bundle makes its LUs again.
    """
    k = config_int("k", k, 1)
    bundle = build_perforated_bundle(cfg)
    spec = solve_gevp(bundle.red.A, bundle.red.M, k, sectors=bundle.sectors,
                      readers=readers(bundle) if readers else ())
    return spec, bundle


def solve_homogenized_evp(a_mesh: Mesh, a_hom: np.ndarray, cell_area: float, k: int):
    """Eigenpairs of -div(a_hom grad u) = |Y| lambda u on A with u = 0 on dA.

    Reported eigenvalues are mu/|Y|; eigenfunctions are rescaled so that
    int_A |u|^2 = 1/|Y|.
    """
    vals = np.linalg.eigvalsh(np.asarray(a_hom, dtype=float))
    if vals.min() <= 0.0:
        raise SolverError(f"a_hom is not positive definite: eigenvalues {vals}")
    red = fem.apply_constraints(fem.assemble_stiffness(a_mesh, coeff=a_hom),
                                fem.assemble_mass(a_mesh), None,
                                fem.dof_map(a_mesh.n_nodes, a_mesh.outer_nodes()))
    bundle = DiscreteOperatorBundle(mesh=a_mesh, red=red)
    spec = solve_gevp(bundle.A, bundle.M, k, sectors=bundle.sectors)
    spec.eigenvalues = spec.eigenvalues / cell_area
    spec.eigenvectors = spec.eigenvectors / np.sqrt(cell_area)
    return spec, bundle


def solve_dirichlet_laplacian(a_mesh: Mesh, k: int):
    """Plain Dirichlet Laplacian eigenpairs alpha^j on A: the homogenized
    problem with a_hom = I and |Y| = 1."""
    return solve_homogenized_evp(a_mesh, np.eye(2), 1.0, k)


def apply_Keps(bundle: DiscreteOperatorBundle, f: np.ndarray,
               sectors=None) -> np.ndarray:
    """Discrete source operator: solve (S+R) u = M f on the reduced DoFs, in
    `sectors`, by default all the bundle's (`solve_source`), with the
    bundle's `red.A` and `red.M`.  Over some of the bundle's sectors it is
    the part of K_eps f in their span, so a caller can sum K_eps f sector
    by sector while each sector's LU is alive."""
    if bundle.R is None:
        raise SolverError("apply_Keps needs a perforated bundle")
    return solve_source(bundle.red.A, bundle.red.M @ np.asarray(f, dtype=float),
                        sectors=sectors or bundle.sectors)


def extend_Teps(bundle: DiscreteOperatorBundle, U: np.ndarray) -> np.ndarray:
    """Discrete harmonic extension into the holes of one field (n,) or m
    fields (n, m) on the reduced DoFs.

    Returns them on every node of the tiled mesh: unchanged on the nodes of
    Omega_eps, the nodes off Omega_eps filled by solving the Laplace equation
    per hole with the hole-boundary trace as Dirichlet data.  Each hole's
    fan centre is its one node off Omega_eps, so the hole Laplacian there
    is diagonal and the solve divides by it; SolverError if it is not.
    Every hole's rows are cell 0's (`fem.cell_matrix` over the HOLE
    triangles), carried to each cell through the cell node map.
    """
    if bundle.R is None:
        raise SolverError("extend_Teps needs a perforated bundle")
    out = bundle.red.expand(np.asarray(U, dtype=float))
    mesh = bundle.mesh
    l2g = geometry.cell_node_map(mesh)
    # cell 0's nodes off Omega_eps, where out is zero, and their HOLE rows
    inner = np.nonzero(~mesh.fluid_nodes()[l2g[0]])[0]
    Sh = fem.cell_matrix(mesh, fem.assemble_stiffness, l2g, geometry.HOLE)[inner]
    d = Sh[:, inner].diagonal()
    if Sh[:, inner].count_nonzero() > np.count_nonzero(d):
        raise SolverError("the hole Laplacian is not diagonal")
    F = out[l2g.T]  # (N0, n^2[, m]): each cell's copy of each cell node
    fill = -(Sh @ F.reshape(len(F), -1)) / d[:, None]
    out[l2g[:, inner].T] = fill.reshape((len(inner),) + F.shape[1:])
    return out
