"""Meshes for the perforated cell, the tiled perforated domain and the target rectangle.

All meshes are conforming P1 triangulations with region tags (FLUID/HOLE)
and tagged boundary edges; a point x of a tiled mesh lies in cell
floor(x / eps).  The template cell mesh places its square-boundary nodes at
exact multiples of the grid spacing so that opposite faces match bitwise and
tiling can stitch nodes by integer arithmetic alone.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, GeometryError, MeshInternalError, config_float,
                     config_floats, config_int)

# triangle region tags
FLUID = 0
HOLE = 1

# boundary edge kinds
OUTER = 0
HOLE_BDRY = 1

_LOCATE_TOL = 1e-12  # barycentric slack: a point this close counts as inside
_INV_INT_TOL = 1e-9  # rounding of 1/eps for an eps = 1/n given as 0.125 or 1/8
MIN_HOLE_POLY = 8  # fewest vertices of the hole polygon

# storage dtype of each Mesh index and tag array
_INDEX_DTYPES = {"triangles": np.int32, "boundary_edges": np.int32,
                 "tri_region": np.int8, "edge_kind": np.int8}


@dataclass
class DomainConfig:
    """Geometry of the perforated unit square and the Robin-free rectangle K."""

    eps: float
    hole_radius: float
    hole_poly: int = 32
    k_rect: tuple[float, float, float, float] = (0.25, 0.25, 0.75, 0.75)
    h_ref: float = 1.0 / 8.0

    def __post_init__(self):
        self.eps = config_float("eps", self.eps)
        self.hole_radius = config_float("hole_radius", self.hole_radius)
        self.h_ref = config_float("h_ref", self.h_ref)
        self.k_rect = config_floats("k_rect", self.k_rect, 4)
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise ConfigError(f"eps must be finite and > 0, got {self.eps}")
        n = 1.0 / self.eps
        if abs(n - round(n)) > _INV_INT_TOL or round(n) < 2:
            raise ConfigError(f"eps must equal 1/n for integer n >= 2, got {self.eps}")
        if not (0.0 <= self.hole_radius < 0.5):
            raise ConfigError(f"hole_radius must lie in [0, 0.5), got {self.hole_radius}")
        self.hole_poly = config_int("hole_poly", self.hole_poly, MIN_HOLE_POLY)
        x0, y0, x1, y1 = self.k_rect
        if not (0.0 < x0 < x1 < 1.0 and 0.0 < y0 < y1 < 1.0):
            raise ConfigError(f"K rectangle must satisfy 0<x0<x1<1, 0<y0<y1<1, got {self.k_rect}")
        if not self.h_ref > 0.0:
            raise ConfigError(f"h_ref must be > 0, got {self.h_ref}")
        _template_squares(self.hole_radius, self.hole_poly, self.h_ref)

    @property
    def n_cells(self) -> int:
        return int(round(1.0 / self.eps))


@dataclass
class Mesh:
    """Conforming triangulation with region and boundary tags.

    nodes          (N,2) float64 coordinates
    triangles      (T,3) int32 node indices, positively oriented
    tri_region     (T,)  int8 FLUID or HOLE
    boundary_edges (E,2) int32 node index pairs
    edge_kind      (E,)  int8 OUTER or HOLE_BDRY
    eps            the cell size: eps for a tiled mesh, 1.0 for the template
                   (one unit cell), 0 for a domain mesh (no cells)

    Whatever a constructor passes, `__post_init__` casts the index and tag
    arrays to these dtypes.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    tri_region: np.ndarray
    boundary_edges: np.ndarray
    edge_kind: np.ndarray
    eps: float = 0.0

    # lazy caches
    _areas: np.ndarray | None = field(default=None, repr=False)
    _locator: object | None = field(default=None, repr=False)

    def __post_init__(self):
        for name, dtype in _INDEX_DTYPES.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def areas(self) -> np.ndarray:
        """Signed triangle areas (validated positive at construction)."""
        if self._areas is None:
            p = self.nodes[self.triangles]
            self._areas = 0.5 * (
                (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
            )
        return self._areas

    def grads(self, tris: np.ndarray | None = None) -> np.ndarray:
        """(T,3,2) gradients of the three P1 hat functions on each triangle
        of `tris` (all by default); computed on every call, never stored."""
        if tris is None:
            tris = slice(None)
        p = self.nodes[self.triangles[tris]]
        a = self.areas()[tris]
        g = np.empty((len(p), 3, 2))
        for loc in range(3):
            pj = p[:, (loc + 1) % 3]
            pk = p[:, (loc + 2) % 3]
            g[:, loc, 0] = (pj[:, 1] - pk[:, 1]) / (2.0 * a)
            g[:, loc, 1] = (pk[:, 0] - pj[:, 0]) / (2.0 * a)
        return g

    def p1(self, tris: np.ndarray | None = None):
        """P1 data of the triangles `tris`, by default the FLUID ones: their
        (T,3) node indices, (T,) areas and (T,3,2) hat-function gradients."""
        if tris is None:
            tris = self.fluid_triangles()
        return self.triangles[tris], self.areas()[tris], self.grads(tris)

    def cells(self, x: np.ndarray) -> np.ndarray:
        """(P, 2) int32 lattice index (ix, iy) of the cell eps * (i + Y)
        holding each point of x, (P, 2): floor(x / eps)."""
        return np.floor(x / self.eps).astype(np.int32)

    def fluid_triangles(self) -> np.ndarray:
        return np.nonzero(self.tri_region == FLUID)[0]

    def fluid_nodes(self) -> np.ndarray:
        """(N,) bool mask of the nodes on some FLUID triangle."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.triangles[self.fluid_triangles()].ravel()] = True
        return mask

    def fluid_area(self) -> float:
        return float(np.sum(self.areas()[self.tri_region == FLUID]))

    def bounds(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1), the node extents: the rectangle a domain mesh covers."""
        (x0, y0), (x1, y1) = self.nodes.min(axis=0), self.nodes.max(axis=0)
        return float(x0), float(y0), float(x1), float(y1)

    def outer_nodes(self) -> np.ndarray:
        """Sorted unique node indices lying on OUTER boundary edges."""
        e = self.boundary_edges[self.edge_kind == OUTER]
        return np.unique(e)


def _validate(mesh: Mesh, what: str) -> Mesh:
    a = mesh.areas()
    if len(a) and a.min() <= 0.0:
        t = int(np.argmin(a))
        raise MeshInternalError(
            f"{what}: non-positive triangle {t} with vertices "
            f"{mesh.nodes[mesh.triangles[t]].tolist()}"
        )
    return mesh


def _polygon(r: float, n_b: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(n_b) / n_b
    return np.column_stack([0.5 + r * np.cos(ang), 0.5 + r * np.sin(ang)])


def _square_boundary_nodes(m: int) -> np.ndarray:
    """4m boundary nodes of the unit square, CCW from (0,0), uniform spacing 1/m.

    Coordinates are produced as k/m so the same parameter value yields the
    identical float on opposite faces.
    """
    up, down = np.arange(m) / m, np.arange(m, 0, -1) / m
    zero, one = np.zeros(m), np.ones(m)
    return np.concatenate([np.column_stack([up, zero]), np.column_stack([one, up]),
                           np.column_stack([down, one]), np.column_stack([zero, down])])


def face_keys(cell: Mesh) -> np.ndarray:
    """(N, 2) integer lattice keys (kx, ky) of the template nodes on the unit
    square's faces, in units of 1/m with m OUTER edges per face; -1 off the
    square boundary.  Tiling stitches nodes, and the periodic fold pairs
    them, by key.
    """
    outer = cell.outer_nodes()
    m = int(np.count_nonzero(cell.edge_kind == OUTER)) // 4
    k = np.rint(cell.nodes[outer] * m).astype(np.int64)
    on_face = ((k == 0) | (k == m)).any(axis=1) & ((k >= 0) & (k <= m)).all(axis=1)
    if m == 0 or not on_face.all() or not np.array_equal(k / m, cell.nodes[outer]):
        raise GeometryError("not a template cell mesh: its OUTER nodes do not "
                            "sit on a 1/m lattice of the unit square's faces")
    key = np.full((cell.n_nodes, 2), -1, dtype=np.int64)
    key[outer] = k
    return key


def _template_squares(r: float, n_b: int, h_ref: float) -> int:
    """Squares per template face, m = round(1/h_ref), once the template's
    rules hold: a ring of elements fits around the hole, and a hole (r > 0)
    is a polygon of at least MIN_HOLE_POLY vertices, all on the 4m-node rings."""
    if r + h_ref >= 0.5:
        raise GeometryError(f"hole radius + h_ref = {r + h_ref} >= 0.5: "
                            "hole would touch the cell boundary")
    m = max(1, int(round(1.0 / h_ref)))
    if r > 0.0 and n_b < MIN_HOLE_POLY:
        raise GeometryError(f"hole polygon needs >= {MIN_HOLE_POLY} vertices, got {n_b}")
    if r > 0.0 and 4 * m < n_b:
        raise GeometryError(f"h_ref={h_ref} too coarse for a {n_b}-gon hole: "
                            f"need 4*round(1/h_ref) >= n_b")
    return m


def build_cell_mesh(r: float, n_b: int, h_ref: float) -> Mesh:
    """Template mesh of the full unit cell Q with the hole polygon as interface.

    Triangles inside the polygon are tagged HOLE, outside FLUID; the polygon
    boundary is an internal interface made of HOLE_BDRY edges.  Square
    boundary nodes sit at uniform spacing so opposite faces carry identical
    node distributions.
    """
    if not (np.isfinite(r) and r >= 0.0):
        raise GeometryError(f"hole radius must be finite and >= 0, got {r}")
    if not h_ref > 0.0:
        raise GeometryError(f"mesh size h_ref must be > 0, got {h_ref}")
    m = _template_squares(r, n_b, h_ref)

    if r == 0.0:
        mesh = build_domain_mesh((0.0, 0.0, 1.0, 1.0), 1.0 / m)
        mesh.eps = 1.0
        return mesh

    n_ring = 4 * m

    # inner contour: the polygon, refined to exactly n_ring nodes with all
    # vertices retained (base segments per edge, remainder spread first)
    verts = _polygon(r, n_b)
    base, rem = divmod(n_ring, n_b)
    inner = []
    for e in range(n_b):
        p0 = verts[e]
        p1 = verts[(e + 1) % n_b]
        segs = base + (1 if e < rem else 0)
        for s in range(segs):
            t = s / segs
            inner.append((1.0 - t) * p0 + t * p1)
    inner = np.array(inner)

    outer = _square_boundary_nodes(m)

    # rotate the outer contour so index 0 sits nearest the inner start angle
    ang_in0 = np.arctan2(inner[0, 1] - 0.5, inner[0, 0] - 0.5)
    ang_out = np.arctan2(outer[:, 1] - 0.5, outer[:, 0] - 0.5)
    diff = np.abs((ang_out - ang_in0 + np.pi) % (2.0 * np.pi) - np.pi)
    rot = int(np.argmin(diff))
    order = (np.arange(n_ring) + rot) % n_ring
    outer_m = outer[order]

    # layered ring between polygon and square, matched node indices
    n_layers = max(1, int(round((0.5 - r) / h_ref)))
    t = (np.arange(n_layers + 1) / n_layers)[:, None, None]
    ring = (1.0 - t) * inner + t * outer_m
    ring[0], ring[n_layers] = inner, outer_m
    ring_ids = np.arange((n_layers + 1) * n_ring).reshape(n_layers + 1, n_ring)
    center_id = ring_ids.size
    j = (np.arange(n_ring) + 1) % n_ring

    # CCW: inner runs counterclockwise, so each quad (a, b, cc, d) closes via
    # outer as (a, cc, b), (a, d, cc); then the hole interior fan
    a, b = ring_ids[:-1], ring_ids[:-1, j]
    cc, d = ring_ids[1:, j], ring_ids[1:]
    tris = np.concatenate([
        np.stack([a, cc, b, a, d, cc], axis=-1).reshape(-1, 3),
        np.column_stack([np.full(n_ring, center_id), ring_ids[0], ring_ids[0, j]]),
    ])
    regions = np.repeat([FLUID, HOLE], [2 * n_layers * n_ring, n_ring])
    edges = np.column_stack([ring_ids[0], ring_ids[0, j],
                             ring_ids[n_layers], ring_ids[n_layers, j]]).reshape(-1, 2)
    mesh = Mesh(
        nodes=np.vstack([ring.reshape(-1, 2), [0.5, 0.5]]),
        triangles=tris,
        tri_region=regions,
        boundary_edges=edges,
        edge_kind=np.tile([HOLE_BDRY, OUTER], n_ring),
        eps=1.0,
    )
    return _validate(mesh, "cell mesh")


def build_perforated_mesh(cfg: DomainConfig) -> Mesh:
    """The configured template, tiled over the unit square with its HOLE
    triangles kept and tagged; Omega_eps is its FLUID triangles."""
    return tile_template(cfg, build_cell_mesh(cfg.hole_radius, cfg.hole_poly, cfg.h_ref))


def tile_template(cfg: DomainConfig, cell: Mesh) -> Mesh:
    """Full n x n tiling of the template over the unit square, holes retained.

    Cells run row by row (iy outer, ix inner) and nodes are numbered in order
    of first appearance.  A face node's identity is its global lattice key,
    so neighbouring cells share it; every other node is new in each cell.
    """
    n = cfg.n_cells
    eps = cfg.eps
    key = face_keys(cell)
    m = int(key.max())
    iy, ix = np.divmod(np.arange(n * n), n)
    cells = np.column_stack([ix, iy])
    ix, iy = cells[:, :1], cells[:, 1:]

    on_face = key[:, 0] >= 0
    side = n * m + 1
    ids = np.where(on_face, (ix * m + key[:, 0]) * side + (iy * m + key[:, 1]),
                   side * side + np.arange(n * n * cell.n_nodes).reshape(n * n, -1))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    l2g = rank[inverse].reshape(ids.shape)
    c, ln = np.divmod(first[order], cell.n_nodes)
    nodes = eps * (cells[c] + cell.nodes[ln])

    # HOLE_BDRY edges in every cell; a template face edge is OUTER only on
    # the domain boundary
    ka, kb = key[cell.boundary_edges[:, 0]], key[cell.boundary_edges[:, 1]]
    hole = cell.edge_kind == HOLE_BDRY
    keep = hole | (((ka[:, 0] == 0) & (kb[:, 0] == 0) & (ix == 0))
                   | ((ka[:, 0] == m) & (kb[:, 0] == m) & (ix == n - 1))
                   | ((ka[:, 1] == 0) & (kb[:, 1] == 0) & (iy == 0))
                   | ((ka[:, 1] == m) & (kb[:, 1] == m) & (iy == n - 1)))
    ce, le = np.nonzero(keep)

    mesh = Mesh(
        nodes=nodes,
        triangles=l2g[:, cell.triangles].reshape(-1, 3),
        tri_region=np.tile(cell.tri_region, n * n),
        boundary_edges=l2g[ce[:, None], cell.boundary_edges[le]],
        edge_kind=np.where(hole[le], HOLE_BDRY, OUTER),
        eps=eps,
    )
    return _validate(mesh, "tiled mesh")


def _cell_triangles(mesh: Mesh) -> tuple[int, int]:
    """(n, T): cells per side of a `tile_template` mesh and triangles per cell."""
    if not mesh.eps:
        raise GeometryError("a domain mesh (eps = 0) has no cells")
    n = round(1.0 / mesh.eps)
    return n, mesh.n_triangles // (n * n)


def cell_node_map(mesh: Mesh) -> np.ndarray:
    """(n^2, N0) int32 node of a `tile_template` mesh that each of cell 0's
    N0 nodes is in each cell, read off the triangles: tiled triangle t is
    template triangle t mod T in cell t // T, and cell 0's nodes are nodes
    0 .. N0 - 1, numbered as the template numbers them."""
    n, t0 = _cell_triangles(mesh)
    first = mesh.triangles[:t0]
    l2g = np.empty((n * n, int(first.max()) + 1), dtype=np.int32)
    l2g[:, first] = mesh.triangles.reshape(n * n, t0, 3)
    return l2g


def template_index(mesh: Mesh, index, triangles: bool = False) -> np.ndarray:
    """Template node of each node `index` of a `tile_template` mesh, read
    off cell 0 and the cell order, or the template triangle t mod T of each
    triangle t if `triangles`.  After the cells before it, cell (ix, iy)
    numbers its template nodes in order but those on its left face if ix > 0
    and on its bottom face if iy > 0, which earlier cells own."""
    n, t0 = _cell_triangles(mesh)
    index = np.asarray(index)
    if triangles:
        return index % t0
    left, bottom = (mesh.nodes[:int(mesh.triangles[:t0].max()) + 1] == 0.0).T
    owned = np.array([~(left & sx | bottom & sy) for sy in (False, True) for sx in (False, True)])
    iy, ix = np.divmod(np.arange(n * n), n)
    kind = (ix > 0) + 2 * (iy > 0)  # the row of `owned` each cell takes
    size = owned.sum(axis=1)[kind]
    start = np.cumsum(size) - size  # first node of each cell
    c = np.searchsorted(start, index, side="right") - 1
    # row k: the template nodes a cell of kind k owns, in order, then the rest
    return np.argsort(~owned, axis=1, kind="stable")[kind[c], index - start[c]]


def domain_grid(rect: tuple[float, float, float, float], h: float) -> tuple[int, int]:
    """Squares per side (nx, ny) of the structured mesh of `rect` at size h."""
    x0, y0, x1, y1 = rect
    return max(1, int(round((x1 - x0) / h))), max(1, int(round((y1 - y0) / h)))


def build_domain_mesh(rect: tuple[float, float, float, float], h: float) -> Mesh:
    """Structured triangulation of the rectangle A, all boundary edges OUTER."""
    x0, y0, x1, y1 = rect
    if not (x1 > x0 and y1 > y0):
        raise GeometryError(f"degenerate rectangle {rect}")
    if not h > 0.0:
        raise GeometryError(f"mesh size h must be > 0, got {h}")
    nx, ny = domain_grid(rect, h)

    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="xy")
    nodes = np.column_stack([
        x0 + (x1 - x0) * (ii.ravel() / nx),
        y0 + (y1 - y0) * (jj.ravel() / ny),
    ])
    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    tris = np.column_stack([a, a + 1, a + nx + 2, a, a + nx + 2, a + nx + 1]).reshape(-1, 3)
    i, top = np.arange(nx), ny * (nx + 1)
    left = np.arange(ny) * (nx + 1)
    edges = np.concatenate([
        np.column_stack([i, i + 1, top + i, top + i + 1]).reshape(-1, 2),
        np.column_stack([left, left + nx + 1, left + nx, left + 2 * nx + 1]).reshape(-1, 2),
    ])
    mesh = Mesh(
        nodes=nodes,
        triangles=tris,
        tri_region=np.zeros(len(tris), dtype=np.int64),
        boundary_edges=edges,
        edge_kind=np.full(2 * (nx + ny), OUTER, dtype=np.int64),
    )
    return _validate(mesh, "domain mesh")


class _Locator:
    """Uniform-bin point location over the FLUID triangles of a mesh.

    Bin b holds the triangle ids tri[start[b]:start[b + 1]], sorted by id, of
    every FLUID triangle whose bounding box overlaps it.
    """

    def __init__(self, mesh: Mesh):
        # the mesh's arrays, not the mesh: its cached locator makes no cycle
        self.nodes, self.triangles = mesh.nodes, mesh.triangles
        fl = mesh.fluid_triangles()
        pts = mesh.nodes[mesh.triangles[fl]]
        self.lo = mesh.nodes.min(axis=0)
        nb = self.nb = max(1, int(np.sqrt(max(1, len(fl)) / 2.0)))
        span = np.maximum(mesh.nodes.max(axis=0) - self.lo, 1e-300)
        self.inv = nb / span
        bmin = np.clip(((pts.min(axis=1) - self.lo) * self.inv).astype(int), 0, nb - 1)
        bmax = np.clip(((pts.max(axis=1) - self.lo) * self.inv).astype(int), 0, nb - 1)
        # one entry per (triangle, overlapped bin), triangles in increasing id
        ny = bmax[:, 1] - bmin[:, 1] + 1
        count = (bmax[:, 0] - bmin[:, 0] + 1) * ny
        owner = np.repeat(np.arange(len(fl)), count)
        k = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
        bins = ((bmin[owner, 0] + k // ny[owner]) * nb
                + bmin[owner, 1] + k % ny[owner])
        order = np.argsort(bins, kind="stable")
        self.tri = fl[owner[order]]
        self.start = np.concatenate(([0], np.cumsum(np.bincount(bins, minlength=nb * nb))))

    def query(self, X: np.ndarray):
        """First containing triangle (-1 if none) and clipped barycentrics of
        each row of X, trying the bin's triangles in increasing id."""
        b = np.clip(((X - self.lo) * self.inv), 0, self.nb - 1).astype(int)
        b = b[:, 0] * self.nb + b[:, 1]
        first, n_in_bin = self.start[b], self.start[b + 1] - self.start[b]
        tri = np.full(len(X), -1, dtype=np.int64)
        lam = np.zeros((len(X), 3))
        nodes = self.nodes
        for slot in range(int(n_in_bin.max(initial=0))):
            p = np.nonzero((tri < 0) & (n_in_bin > slot))[0]
            t = self.tri[first[p] + slot]
            p0, p1, p2 = (nodes[self.triangles[t, i]] for i in range(3))
            e1, e2, d = p1 - p0, p2 - p0, X[p] - p0
            det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
            l1 = (d[:, 0] * e2[:, 1] - e2[:, 0] * d[:, 1]) / det
            l2 = (e1[:, 0] * d[:, 1] - d[:, 0] * e1[:, 1]) / det
            l0 = 1.0 - l1 - l2
            hit = (l0 >= -_LOCATE_TOL) & (l1 >= -_LOCATE_TOL) & (l2 >= -_LOCATE_TOL)
            tri[p[hit]] = t[hit]
            lam[p[hit]] = np.clip(np.column_stack([l0, l1, l2])[hit], 0.0, 1.0)
        return tri, lam


def locate_point(mesh: Mesh, X: np.ndarray):
    """Find the FLUID triangle containing each point of X, (P, 2).

    Returns (tri, lam): triangle indices with -1 where a point lies in no
    FLUID triangle (inside a hole or outside the mesh), and (P, 3)
    barycentric coordinates.  The lowest-index triangle wins ties on shared
    edges.
    """
    if mesh._locator is None:
        mesh._locator = _Locator(mesh)
    tri, lam = mesh._locator.query(np.asarray(X, dtype=float))
    hit = tri >= 0
    lam[hit] /= (lam[hit, 0] + lam[hit, 1] + lam[hit, 2])[:, None]
    return tri, lam


def interpolate(mesh: Mesh, u: np.ndarray, X):
    """P1 interpolant of nodal field(s) u, (N,) or (N, c), at the points X
    (P, 2), and the (P,) bool mask of the points located in a FLUID
    triangle; the interpolant is zero where the mask is False.  The one
    caller of `locate_point` in the package."""
    u = np.asarray(u, dtype=float)
    tri, lam = locate_point(mesh, X)
    out = np.zeros((len(tri),) + u.shape[1:])
    hit = tri >= 0
    out[hit] = np.einsum("pl,pl...->p...", lam[hit], u[mesh.triangles[tri[hit]]])
    return out, hit


def write_mesh_text(mesh: Mesh) -> str:
    """Line-oriented text dump: header, nodes, triangles, boundary edges; on
    a mesh with cells, each triangle and HOLE_BDRY edge names its cell."""
    out = io.StringIO()
    out.write(f"{mesh.n_nodes} nodes {mesh.n_triangles} triangles "
              f"{len(mesh.boundary_edges)} edges\n")
    for x, y in mesh.nodes.tolist():
        out.write(f"{x!r} {y!r}\n")
    region_name = {FLUID: "FLUID", HOLE: "HOLE"}
    tri_cells, edge_cells = (mesh.cells(mesh.nodes[ends].mean(axis=1)) if mesh.eps
                             else ends[:, :0] for ends in (mesh.triangles, mesh.boundary_edges))
    for tri, reg, cix in zip(mesh.triangles, mesh.tri_region, tri_cells):
        out.write(" ".join(map(str, [*tri, region_name[int(reg)], *cix])) + "\n")
    for (a, b), kind, cix in zip(mesh.boundary_edges, mesh.edge_kind, edge_cells):
        tag = "OUTER" if kind == OUTER else f"HOLE_BDRY({cix[0]},{cix[1]})"
        out.write(f"{a} {b} {tag}\n")
    return out.getvalue()


def rect_distance(rect: tuple[float, float, float, float], x):
    """Signed-clamped distance of x, (2,) or (P, 2), to the rectangle
    boundary: positive inside, 0 on the boundary and outside."""
    x0, y0, x1, y1 = rect
    x = np.asarray(x, dtype=float)
    d = np.minimum.reduce([x[..., 0] - x0, x1 - x[..., 0], x[..., 1] - y0, y1 - x[..., 1]])
    return np.maximum(0.0, d)


def point_in_closed_rect(rect: tuple[float, float, float, float], x):
    """Whether x, (2,) or (P, 2), lies in the closed rectangle."""
    x0, y0, x1, y1 = rect
    x = np.asarray(x, dtype=float)
    return (x0 <= x[..., 0]) & (x[..., 0] <= x1) & (y0 <= x[..., 1]) & (x[..., 1] <= y1)
