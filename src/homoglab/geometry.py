"""Meshes for the perforated cell, the tiled perforated domain and the target rectangle.

All meshes are conforming P1 triangulations with region tags (FLUID/HOLE),
tagged boundary edges and, for tiled meshes, the lattice index of the cell
each triangle came from.  The template cell mesh places its square-boundary
nodes at exact multiples of the grid spacing so that opposite faces match
bitwise and tiling can stitch nodes by integer arithmetic alone.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GeometryError, MeshInternalError

# triangle region tags
FLUID = 0
HOLE = 1

# boundary edge kinds
OUTER = 0
HOLE_BDRY = 1

_NO_CELL = (-(2 ** 30), -(2 ** 30))


@dataclass
class DomainConfig:
    """Geometry of the perforated unit square and the Robin-free rectangle K."""

    eps: float
    hole_radius: float
    hole_poly: int = 32
    k_rect: tuple[float, float, float, float] = (0.25, 0.25, 0.75, 0.75)
    h_ref: float = 1.0 / 8.0

    def __post_init__(self):
        n = 1.0 / self.eps
        if abs(n - round(n)) > 1e-9 or round(n) < 2:
            raise ConfigError(f"eps must equal 1/n for integer n >= 2, got {self.eps}")
        if not (0.0 <= self.hole_radius < 0.5):
            raise ConfigError(f"hole_radius must lie in [0, 0.5), got {self.hole_radius}")
        if self.hole_poly < 8:
            raise ConfigError(f"hole_poly must be >= 8, got {self.hole_poly}")
        x0, y0, x1, y1 = self.k_rect
        if not (0.0 < x0 < x1 < 1.0 and 0.0 < y0 < y1 < 1.0):
            raise ConfigError(f"K rectangle must satisfy 0<x0<x1<1, 0<y0<y1<1, got {self.k_rect}")
        if self.hole_radius + self.h_ref >= 0.5:
            raise GeometryError(
                f"hole_radius + h_ref = {self.hole_radius + self.h_ref} >= 0.5: "
                "hole would touch the cell boundary"
            )

    @property
    def n_cells(self) -> int:
        return int(round(1.0 / self.eps))


@dataclass
class Mesh:
    """Conforming triangulation with region and boundary tags.

    nodes          (N,2) float coordinates
    triangles      (T,3) node indices, positively oriented
    tri_region     (T,)  FLUID or HOLE
    tri_cell       (T,2) lattice index of the originating cell, _NO_CELL if n/a
    boundary_edges (E,2) node index pairs
    edge_kind      (E,)  OUTER or HOLE_BDRY
    edge_cell      (E,2) lattice index for HOLE_BDRY edges, _NO_CELL otherwise
    """

    nodes: np.ndarray
    triangles: np.ndarray
    tri_region: np.ndarray
    tri_cell: np.ndarray
    boundary_edges: np.ndarray
    edge_kind: np.ndarray
    edge_cell: np.ndarray
    eps: float = 0.0
    meta: dict = field(default_factory=dict)

    # lazy caches
    _areas: np.ndarray | None = field(default=None, repr=False)
    _grads: np.ndarray | None = field(default=None, repr=False)
    _locator: object | None = field(default=None, repr=False)

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

    def grads(self) -> np.ndarray:
        """(T,3,2) gradients of the three P1 hat functions per triangle."""
        if self._grads is None:
            p = self.nodes[self.triangles]
            a = self.areas()
            g = np.empty((self.n_triangles, 3, 2))
            for loc in range(3):
                pj = p[:, (loc + 1) % 3]
                pk = p[:, (loc + 2) % 3]
                g[:, loc, 0] = (pj[:, 1] - pk[:, 1]) / (2.0 * a)
                g[:, loc, 1] = (pk[:, 0] - pj[:, 0]) / (2.0 * a)
            self._grads = g
        return self._grads

    def fluid_triangles(self) -> np.ndarray:
        return np.nonzero(self.tri_region == FLUID)[0]

    def fluid_nodes(self) -> np.ndarray:
        """(N,) bool mask of the nodes on some FLUID triangle."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.triangles[self.fluid_triangles()].ravel()] = True
        return mask

    def fluid_area(self) -> float:
        return float(np.sum(self.areas()[self.tri_region == FLUID]))

    def outer_nodes(self) -> np.ndarray:
        """Sorted unique node indices lying on OUTER boundary edges."""
        e = self.boundary_edges[self.edge_kind == OUTER]
        return np.unique(e)

    def hole_boundary_nodes(self) -> np.ndarray:
        e = self.boundary_edges[self.edge_kind == HOLE_BDRY]
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


def polygon_area(r: float, n_b: int) -> float:
    """Exact area of the regular n_b-gon inscribed in the radius-r circle."""
    if r == 0.0:
        return 0.0
    return 0.5 * n_b * r * r * np.sin(2.0 * np.pi / n_b)


def polygon_perimeter(r: float, n_b: int) -> float:
    if r == 0.0:
        return 0.0
    return 2.0 * n_b * r * np.sin(np.pi / n_b)


def _square_boundary_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """4m boundary nodes of the unit square, CCW from (0,0), uniform spacing 1/m.

    Coordinates are produced as k/m so the same parameter value yields the
    identical float on opposite faces.  Also returns the integer lattice keys
    (kx, ky) of each node in units of 1/m.
    """
    pts = []
    keys = []
    for k in range(m):       # bottom
        pts.append((k / m, 0.0))
        keys.append((k, 0))
    for k in range(m):       # right
        pts.append((1.0, k / m))
        keys.append((m, k))
    for k in range(m):       # top
        pts.append(((m - k) / m, 1.0))
        keys.append((m - k, m))
    for k in range(m):       # left
        pts.append((0.0, (m - k) / m))
        keys.append((0, m - k))
    return np.array(pts), np.array(keys, dtype=np.int64)


def build_cell_mesh(r: float, n_b: int, h_ref: float) -> Mesh:
    """Template mesh of the full unit cell Q with the hole polygon as interface.

    Triangles inside the polygon are tagged HOLE, outside FLUID; the polygon
    boundary is an internal interface made of HOLE_BDRY edges.  Square
    boundary nodes sit at uniform spacing so opposite faces carry identical
    node distributions.
    """
    if r + h_ref >= 0.5:
        raise GeometryError(f"r + h_ref = {r + h_ref} >= 0.5")
    m = max(1, int(round(1.0 / h_ref)))

    if r == 0.0:
        mesh = build_domain_mesh((0.0, 0.0, 1.0, 1.0), 1.0 / m)
        mesh.tri_cell[:] = 0
        mesh.meta = {"h_ref": h_ref, "m": m, "r": r, "n_b": n_b,
                     "cell_area": 1.0, "hole_perimeter": 0.0}
        mesh.meta["face_keys"] = _structured_face_keys(mesh, m)
        return mesh

    if n_b < 8:
        raise GeometryError(f"hole polygon needs >= 8 vertices, got {n_b}")
    n_ring = 4 * m
    if n_ring < n_b:
        raise GeometryError(
            f"h_ref={h_ref} too coarse for a {n_b}-gon hole: "
            f"need 4*round(1/h_ref) >= n_b"
        )

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

    outer, outer_keys = _square_boundary_nodes(m)

    # rotate the outer contour so index 0 sits nearest the inner start angle
    ang_in0 = np.arctan2(inner[0, 1] - 0.5, inner[0, 0] - 0.5)
    ang_out = np.arctan2(outer[:, 1] - 0.5, outer[:, 0] - 0.5)
    diff = np.abs((ang_out - ang_in0 + np.pi) % (2.0 * np.pi) - np.pi)
    rot = int(np.argmin(diff))
    order = (np.arange(n_ring) + rot) % n_ring
    outer_m = outer[order]
    outer_keys_m = outer_keys[order]

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
    kinds = np.tile([HOLE_BDRY, OUTER], n_ring)

    edge_cell = np.zeros((len(edges), 2), dtype=np.int64)
    edge_cell[kinds == OUTER] = _NO_CELL[0]

    mesh = Mesh(
        nodes=np.vstack([ring.reshape(-1, 2), [0.5, 0.5]]),
        triangles=tris,
        tri_region=regions,
        tri_cell=np.zeros((len(tris), 2), dtype=np.int64),
        boundary_edges=edges,
        edge_kind=kinds,
        edge_cell=edge_cell,
        meta={
            "h_ref": h_ref, "m": m, "r": r, "n_b": n_b,
            "cell_area": 1.0 - polygon_area(r, n_b),
            "hole_perimeter": polygon_perimeter(r, n_b),
        },
    )
    # exact integer face keys for the square-boundary nodes, used for periodic
    # pairing and for tile stitching
    mesh.meta["face_keys"] = dict(zip(ring_ids[n_layers].tolist(),
                                      map(tuple, outer_keys_m.tolist())))
    return _validate(mesh, "cell mesh")


def _structured_face_keys(mesh: Mesh, m: int) -> dict[int, tuple[int, int]]:
    """Integer (kx, ky) keys, units 1/m, for structured-grid boundary nodes."""
    b = np.unique(mesh.boundary_edges)
    keys = np.rint(mesh.nodes[b] * m).astype(np.int64)
    return dict(zip(b.tolist(), map(tuple, keys.tolist())))


def build_perforated_mesh(cfg: DomainConfig, cell: Mesh) -> Mesh:
    """The tiled mesh of the unit square with its HOLE triangles kept and
    tagged; Omega_eps is its FLUID triangles."""
    mesh = tile_template(cfg, cell)
    mesh.meta["n_holes"] = cfg.n_cells ** 2 if cfg.hole_radius > 0.0 else 0
    return mesh


def tile_template(cfg: DomainConfig, cell: Mesh) -> Mesh:
    """Full n x n tiling of the template over the unit square, holes retained.

    Cells run row by row (iy outer, ix inner) and nodes are numbered in order
    of first appearance.  A face node's identity is its global lattice key,
    so neighbouring cells share it; every other node is new in each cell.
    """
    n = cfg.n_cells
    eps = cfg.eps
    m = cell.meta["m"]
    face_keys: dict[int, tuple[int, int]] = cell.meta["face_keys"]
    iy, ix = np.divmod(np.arange(n * n), n)
    cells = np.column_stack([ix, iy])
    ix, iy = cells[:, :1], cells[:, 1:]

    # template node -> (kx, ky) lattice key, -1 off the square boundary
    key = np.full((cell.n_nodes, 2), -1, dtype=np.int64)
    key[list(face_keys)] = list(face_keys.values())
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
        tri_cell=np.repeat(cells, cell.n_triangles, axis=0),
        boundary_edges=l2g[ce[:, None], cell.boundary_edges[le]],
        edge_kind=np.where(hole[le], HOLE_BDRY, OUTER),
        edge_cell=np.where(hole[le, None], cells[ce], _NO_CELL[0]),
        eps=eps,
        meta={"template": cell, "n": n},
    )
    return _validate(mesh, "tiled mesh")


def domain_grid(rect: tuple[float, float, float, float], h: float) -> tuple[int, int]:
    """Squares per side (nx, ny) of the structured mesh of `rect` at size h."""
    x0, y0, x1, y1 = rect
    return max(1, int(round((x1 - x0) / h))), max(1, int(round((y1 - y0) / h)))


def build_domain_mesh(rect: tuple[float, float, float, float], h: float) -> Mesh:
    """Structured triangulation of the rectangle A, all boundary edges OUTER."""
    x0, y0, x1, y1 = rect
    if not (x1 > x0 and y1 > y0):
        raise GeometryError(f"degenerate rectangle {rect}")
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
        tri_cell=np.full((len(tris), 2), _NO_CELL[0], dtype=np.int64),
        boundary_edges=edges,
        edge_kind=np.full(2 * (nx + ny), OUTER, dtype=np.int64),
        edge_cell=np.full((2 * (nx + ny), 2), _NO_CELL[0], dtype=np.int64),
        meta={"rect": rect, "nx": nx, "ny": ny},
    )
    return _validate(mesh, "domain mesh")


class _Locator:
    """Uniform-bin point location over the FLUID triangles of a mesh.

    Bin b holds the triangle ids tri[start[b]:start[b + 1]], sorted by id, of
    every FLUID triangle whose bounding box overlaps it.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
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

    def query(self, X: np.ndarray, tol: float = 1e-12):
        """First containing triangle (-1 if none) and clipped barycentrics of
        each row of X, trying the bin's triangles in increasing id."""
        b = np.clip(((X - self.lo) * self.inv), 0, self.nb - 1).astype(int)
        b = b[:, 0] * self.nb + b[:, 1]
        first, n_in_bin = self.start[b], self.start[b + 1] - self.start[b]
        tri = np.full(len(X), -1, dtype=np.int64)
        lam = np.zeros((len(X), 3))
        nodes = self.mesh.nodes
        for slot in range(int(n_in_bin.max(initial=0))):
            p = np.nonzero((tri < 0) & (n_in_bin > slot))[0]
            t = self.tri[first[p] + slot]
            p0, p1, p2 = (nodes[self.mesh.triangles[t, i]] for i in range(3))
            e1, e2, d = p1 - p0, p2 - p0, X[p] - p0
            det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
            l1 = (d[:, 0] * e2[:, 1] - e2[:, 0] * d[:, 1]) / det
            l2 = (e1[:, 0] * d[:, 1] - d[:, 0] * e1[:, 1]) / det
            l0 = 1.0 - l1 - l2
            hit = (l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol)
            tri[p[hit]] = t[hit]
            lam[p[hit]] = np.clip(np.column_stack([l0, l1, l2])[hit], 0.0, 1.0)
        return tri, lam


def locate_point(mesh: Mesh, x, tol: float = 1e-12):
    """Find the FLUID triangle containing each point of x, (2,) or (P, 2).

    For (P, 2) input returns (tri, lam): triangle indices with -1 where a
    point lies in no FLUID triangle (inside a hole or outside the mesh), and
    (P, 3) barycentric coordinates.  The lowest-index triangle wins ties on
    shared edges.  For a single point returns (t, lam), or None on a miss.
    """
    if mesh._locator is None:
        mesh._locator = _Locator(mesh)
    X = np.asarray(x, dtype=float)
    tri, lam = mesh._locator.query(X.reshape(-1, 2), tol=tol)
    hit = tri >= 0
    lam[hit] /= (lam[hit, 0] + lam[hit, 1] + lam[hit, 2])[:, None]
    if X.ndim == 1:
        return (int(tri[0]), lam[0]) if hit[0] else None
    return tri, lam


def interpolate(mesh: Mesh, u: np.ndarray, X) -> np.ndarray:
    """P1 interpolant of nodal field(s) u, (N,) or (N, c), at the points X
    (P, 2); zero where a point lies in no FLUID triangle."""
    u = np.asarray(u, dtype=float)
    tri, lam = locate_point(mesh, np.reshape(X, (-1, 2)))
    out = np.zeros((len(tri),) + u.shape[1:])
    hit = tri >= 0
    out[hit] = np.einsum("pl,pl...->p...", lam[hit], u[mesh.triangles[tri[hit]]])
    return out


def interior_edge_counts(triangles: np.ndarray) -> dict[tuple[int, int], int]:
    """Multiplicity of every edge of the (T, 3) triangles; conformity means
    interior edges appear exactly twice and boundary edges once."""
    counts: dict[tuple[int, int], int] = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(min(a, b)), int(max(a, b)))
            counts[key] = counts.get(key, 0) + 1
    return counts


def write_mesh_text(mesh: Mesh) -> str:
    """Line-oriented text dump: header, nodes, triangles, boundary edges."""
    out = io.StringIO()
    out.write(f"{mesh.n_nodes} nodes {mesh.n_triangles} triangles "
              f"{len(mesh.boundary_edges)} edges\n")
    for x, y in mesh.nodes:
        out.write(f"{x!r} {y!r}\n")
    region_name = {FLUID: "FLUID", HOLE: "HOLE"}
    for tri, reg, cix in zip(mesh.triangles, mesh.tri_region, mesh.tri_cell):
        out.write(f"{tri[0]} {tri[1]} {tri[2]} {region_name[int(reg)]} "
                  f"{cix[0]} {cix[1]}\n")
    for (a, b), kind, cix in zip(mesh.boundary_edges, mesh.edge_kind, mesh.edge_cell):
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
