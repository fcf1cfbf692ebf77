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
    carries the Robin mass R."""

    mesh: Mesh
    red: fem.ReducedSystem

    @property
    def A(self):
        """The bilinear-form matrix of the problem (S + R when perforated)."""
        return self.red.A

    @property
    def S(self):
        """The stiffness, A - R, made on each access."""
        return self.red.A if self.R is None else self.red.A - self.red.R

    @property
    def M(self):
        return self.red.M

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
        return self.sectors_of(self.A)

    def sectors_of(self, X, *parts):
        """The bundle's sectors with X as their operator, each with no LU,
        when the turn is a symmetry of A, M and R and every matrix of
        `parts` commutes with it too (`_commutes`); else the one sector of
        X.  X must be a linear combination of A, M, R and `parts`, so that
        it commutes with the turn when they do."""
        if self._orbits is None:
            return (Sector(X),)
        orbits, fixed = self._orbits
        turn = np.arange(self.A.shape[0])
        turn[orbits] = np.roll(orbits, -1, axis=1)
        if not all(_commutes(Y, turn) for Y in parts):
            return (Sector(X),)
        return tuple(_TurnSector(X, orbits, fixed, chi) for chi in _CHARACTERS)


def _rotation_orbits(bundle: DiscreteOperatorBundle):
    """The reduced DoFs' orbits under the quarter turn (x, y) -> (1 - y, x):
    an (m, 4) array whose column g holds the g-th turn of column 0, and the
    DoFs the turn fixes (the centre, if it is a DoF).

    None unless the turn maps the DoFs onto themselves and A, M and R, where
    the bundle has one, commute with it (`_commutes`).
    """
    X = bundle.mesh.nodes[bundle.red.keep]

    def codes(Y):
        key = np.rint(Y * _NODE_LATTICE).astype(np.int64)
        return (key[:, 0] << 32) + key[:, 1]

    own = codes(X)
    order = np.argsort(own)
    own = own[order]
    turned = codes(np.column_stack([1.0 - X[:, 1], X[:, 0]]))
    at = np.minimum(np.searchsorted(own, turned), len(own) - 1)
    if not np.array_equal(own[at], turned):
        return None
    turn = order[at]
    if not all(_commutes(X, turn) for X in (bundle.A, bundle.M, bundle.R)
               if X is not None):
        return None
    idx = np.arange(len(turn))
    half = turn[turn]
    orbits = np.column_stack([idx, turn, half, turn[half]])
    fixed = turn == idx
    if not (np.array_equal(turn[orbits[:, 3]], idx) and (half != idx)[~fixed].all()):
        return None
    first = ~fixed & (idx == orbits.min(axis=1))
    return orbits[first], idx[fixed]


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
        """P^H X P for an X that commutes with the turn.  Row orbits[o, 0]
        of P is the unit row e_o, so X P = P W gives W = (X P)[those rows]:
        those rows of X folded onto the orbits with phase chi^g.  P^H X P =
        P^H P W with P^H P = 4 on an orbit and 1 on a fixed DoF, so a
        quarter of X's rows are used.  Made Hermitian to the last bit."""
        m, k = len(self.orbits), len(self.fixed)
        col = np.full(self.n, -1, dtype=np.int32)
        col[self.orbits] = np.arange(m)[:, None]
        col[self.fixed] = m + np.arange(k)
        phase = np.ones(self.n, dtype=self.chi.dtype)
        phase[self.orbits] = self.chi
        first = np.concatenate([self.orbits[:, 0], self.fixed])
        Z = fem.fold_matrix(X[first], np.arange(m + k, dtype=np.int32), col, m + k,
                            phase)
        Z.data[:Z.indptr[m]] *= 4.0
        Z = Z + Z.conj().T
        Z.data *= 0.5
        return Z


def build_perforated_bundle(cfg: DomainConfig) -> DiscreteOperatorBundle:
    """Tile Omega and assemble A = S + R and M over its FLUID triangles
    (Omega_eps) with the outer Dirichlet nodes and the nodes off Omega_eps
    eliminated: S and M from one cell, folded straight onto the reduced
    DoFs (`fem.assemble_tiled`), and R edge by edge, since K may cut a
    cell, then reduced (`fem.apply_constraints`)."""
    mesh = geometry.build_perforated_mesh(cfg)
    fixed = ~mesh.fluid_nodes()
    fixed[mesh.outer_nodes()] = True
    red = fem.apply_constraints(None, None, fem.assemble_robin_mass(mesh, cfg.k_rect),
                                fem.dof_map(mesh.n_nodes, fixed))
    red.M = fem.assemble_tiled(mesh, fem.assemble_mass, red.dof)
    red.A = fem.assemble_tiled(mesh, fem.assemble_stiffness, red.dof) + red.R
    return DiscreteOperatorBundle(mesh=mesh, red=red)


def solve_perforated_evp(cfg: DomainConfig, k: int, readers=None):
    """k smallest eigenpairs of (S+R) u = lambda M u on Omega_eps.

    Eigenfunctions come back L2(Omega_eps)-orthonormal on the reduced DoFs.
    A k that is not an integer >= 1 is refused before the mesh is built.
    `readers(bundle)`, when given, is called once the bundle is built,
    before any LU is made, and what it returns is `solve_gevp`'s readers:
    each is called on each sector while the sector's LU is alive, in the
    one visit that makes the LU, uses it and drops it, so one LU is alive
    at a time.  A later solve on the bundle makes its LUs again.
    """
    k = config_int("k", k, 1)
    bundle = build_perforated_bundle(cfg)
    spec = solve_gevp(bundle.A, bundle.M, k, sectors=bundle.sectors,
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
    `sectors`, by default all the bundle's (`solve_source`).  Over some of
    the bundle's sectors it is the part of K_eps f in their span, so a
    caller can sum K_eps f sector by sector while each sector's LU is alive."""
    if bundle.R is None:
        raise SolverError("apply_Keps needs a perforated bundle")
    return solve_source(bundle.A, bundle.M @ np.asarray(f, dtype=float),
                        sectors=sectors or bundle.sectors)


def extend_Teps(bundle: DiscreteOperatorBundle, U: np.ndarray) -> np.ndarray:
    """Discrete harmonic extension into the holes of one field (n,) or m
    fields (n, m) on the reduced DoFs, with one factorization for all.

    Returns them on every node of the tiled mesh: unchanged on the nodes of
    Omega_eps, the nodes off Omega_eps filled by solving the Laplace equation
    per hole with the hole-boundary trace as Dirichlet data.
    """
    if bundle.R is None:
        raise SolverError("extend_Teps needs a perforated bundle")
    out = bundle.red.expand(np.asarray(U, dtype=float))
    mesh = bundle.mesh
    interior = np.nonzero(~mesh.fluid_nodes())[0]
    if len(interior) == 0:
        return out
    # the HOLE stiffness rows of the nodes off Omega_eps, where out is zero
    Sh = fem.assemble_stiffness(
        mesh, tris=np.nonzero(mesh.tri_region == geometry.HOLE)[0])[interior]
    out[interior] = solve_source(Sh[:, interior], -(Sh @ out))
    return out
