"""Mesh construction, tiling, point location and rectangle helpers."""

import ast
import dataclasses
import gc
import inspect
import weakref
from pathlib import Path

import numpy as np
import pytest

from homoglab import geometry, spectral
from homoglab.cell import solve_cell_problem
from homoglab.errors import ConfigError, GeometryError
from homoglab.geometry import (DomainConfig, build_cell_mesh,
                               build_domain_mesh, build_perforated_mesh,
                               domain_grid, locate_point, point_in_closed_rect,
                               rect_distance)

K_RECT = (0.25, 0.25, 0.75, 0.75)


def polygon_area(r: float, n_b: int) -> float:
    """Exact area of the regular n_b-gon inscribed in the radius-r circle."""
    return 0.5 * n_b * r * r * np.sin(2.0 * np.pi / n_b)


def polygon_perimeter(r: float, n_b: int) -> float:
    """Exact perimeter of the same polygon."""
    return 2.0 * n_b * r * np.sin(np.pi / n_b)


def reference_face_keys(cell) -> dict[int, tuple[int, int]]:
    """Node -> (kx, ky) lattice key, in units of 1/m, of every node on an
    OUTER edge, built node by node from the coordinates."""
    m = int(np.sum(cell.edge_kind == geometry.OUTER)) // 4
    keys = {}
    for a, b in cell.boundary_edges[cell.edge_kind == geometry.OUTER]:
        for node in (int(a), int(b)):
            x, y = cell.nodes[node]
            keys[node] = (int(round(x * m)), int(round(y * m)))
    return keys


def interior_edge_counts(triangles: np.ndarray) -> dict[tuple[int, int], int]:
    """Multiplicity of every edge of the (T, 3) triangles; conformity means
    interior edges appear exactly twice and boundary edges once."""
    counts: dict[tuple[int, int], int] = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(min(a, b)), int(max(a, b)))
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_domain_config_validation():
    with pytest.raises(ConfigError):
        DomainConfig(eps=0.3, hole_radius=0.25)
    # a zero or NaN eps used to escape as ZeroDivisionError or ValueError
    for eps in (0.0, -0.25, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="eps"):
            DomainConfig(eps=eps, hole_radius=0.25)
    with pytest.raises(ConfigError):
        DomainConfig(eps=0.25, hole_radius=0.6)
    with pytest.raises(ConfigError):
        DomainConfig(eps=0.25, hole_radius=0.25, hole_poly=4)
    with pytest.raises(ConfigError):
        DomainConfig(eps=0.25, hole_radius=0.25, k_rect=(0.0, 0.25, 0.75, 0.75))
    with pytest.raises(GeometryError):
        DomainConfig(eps=0.25, hole_radius=0.45, h_ref=1.0 / 8.0)
    assert DomainConfig(eps=0.125, hole_radius=0.25).n_cells == 8


def test_domain_config_refuses_polygon_finer_than_rings():
    """The ring rule `build_cell_mesh` applies (4 round(1/h_ref) >= the
    polygon's vertex count) is applied at construction; without a hole
    there is no polygon to carry."""
    with pytest.raises(GeometryError, match="too coarse for a 64-gon hole"):
        DomainConfig(eps=0.25, hole_radius=0.25, hole_poly=64)
    assert DomainConfig(eps=0.25, hole_radius=0.25, hole_poly=64, h_ref=1 / 16).hole_poly == 64
    assert DomainConfig(eps=0.25, hole_radius=0.0, hole_poly=64).hole_poly == 64
    assert type(DomainConfig(eps=0.25, hole_radius=0.25, hole_poly=np.int32(24)).hole_poly) is int


def test_template_no_hole():
    mesh = build_cell_mesh(0.0, 32, 1.0 / 8.0)
    assert mesh.fluid_area() == pytest.approx(1.0, abs=1e-12)
    assert solve_cell_problem(mesh).hole_perimeter == 0.0
    assert not (mesh.edge_kind == geometry.HOLE_BDRY).any()
    assert (mesh.areas() > 0.0).all()


def test_template_with_hole_measures(template8, cell_sol8):
    area = polygon_area(0.25, 32)
    perim = polygon_perimeter(0.25, 32)
    # exact polygon formulas: |hole| = n r^2 sin(2 pi / n) / 2
    assert area == pytest.approx(32 * 0.25**2 * np.sin(2 * np.pi / 32) / 2,
                                 abs=1e-15)
    assert template8.fluid_area() == pytest.approx(1.0 - area, abs=1e-12)
    assert cell_sol8.hole_perimeter == pytest.approx(perim, abs=1e-12)
    # inscribed 32-gon perimeter 2 n r sin(pi/n), just below pi/2
    assert perim == pytest.approx(2 * 32 * 0.25 * np.sin(np.pi / 32), abs=1e-15)
    assert perim == pytest.approx(np.pi / 2, abs=5e-3)
    # fluid + hole triangles tile the unit cell exactly
    assert float(template8.areas().sum()) == pytest.approx(1.0, abs=1e-12)
    assert (template8.areas() > 0.0).all()


def test_template_conformity(template8):
    counts = interior_edge_counts(template8.triangles)
    boundary = {tuple(sorted(e)) for e in template8.boundary_edges}
    for edge, c in counts.items():
        if c == 1:
            # an edge on one triangle only must be a declared boundary edge
            assert edge in boundary
        else:
            assert c == 2


def test_periodic_face_matching(template8):
    key = geometry.face_keys(template8)
    m = int(key.max())
    by_key = {(int(kx), int(ky)): node for node, (kx, ky) in enumerate(key) if kx >= 0}
    for ky in range(m + 1):
        left = template8.nodes[by_key[(0, ky)]]
        right = template8.nodes[by_key[(m, ky)]]
        assert left[1] == right[1]
        assert right[0] - left[0] == 1.0
    for kx in range(m + 1):
        bottom = template8.nodes[by_key[(kx, 0)]]
        top = template8.nodes[by_key[(kx, m)]]
        assert bottom[0] == top[0]
        assert top[1] - bottom[1] == 1.0


def test_perforated_mesh_tiling(template8):
    cfg = DomainConfig(eps=0.25, hole_radius=0.25, hole_poly=32,
                       k_rect=K_RECT, h_ref=1.0 / 8.0)
    mesh = build_perforated_mesh(cfg)
    hole_edges = mesh.boundary_edges[mesh.edge_kind == geometry.HOLE_BDRY]
    assert np.unique(mesh.cells(mesh.nodes[hole_edges].mean(axis=1)), axis=0).shape == (16, 2)
    assert mesh.eps == 0.25
    # fluid area is 16 scaled copies of the template fluid area
    assert mesh.fluid_area() == pytest.approx(template8.fluid_area(), abs=1e-12)
    # every cell keeps the template's FLUID/HOLE tags
    assert np.array_equal(mesh.tri_region, np.tile(template8.tri_region, 16))
    # outer boundary nodes trace the unit square
    on = mesh.nodes[mesh.outer_nodes()]
    assert (np.isclose(on, 0.0, atol=1e-12) | np.isclose(on, 1.0, atol=1e-12)).any(axis=1).all()


def test_perforated_mesh_no_hole_half():
    cfg = DomainConfig(eps=0.5, hole_radius=0.0, hole_poly=32,
                       k_rect=K_RECT, h_ref=1.0 / 8.0)
    mesh = build_perforated_mesh(cfg)
    assert not (mesh.edge_kind == geometry.HOLE_BDRY).any()
    assert mesh.fluid_area() == pytest.approx(1.0, abs=1e-12)


def test_grads_of_a_triangle_subset():
    cfg = DomainConfig(eps=1 / 4, hole_radius=0.25, k_rect=K_RECT, h_ref=1 / 8)
    mesh = build_perforated_mesh(cfg)
    hole = np.nonzero(mesh.tri_region == geometry.HOLE)[0]
    for tris in (mesh.fluid_triangles(), hole, np.array([7, 0, 7])):
        assert mesh.grads(tris).tobytes() == mesh.grads()[tris].tobytes()
        # p1: node indices, areas and gradients of the same triangles
        for got, want in zip(mesh.p1(tris), (mesh.triangles[tris], mesh.areas()[tris],
                                             mesh.grads()[tris])):
            assert got.tobytes() == want.tobytes()
    # by default p1 covers the FLUID triangles
    for got, want in zip(mesh.p1(), mesh.p1(mesh.fluid_triangles())):
        assert got.tobytes() == want.tobytes()
    assert mesh.grads().shape == (mesh.n_triangles, 3, 2)
    assert not hasattr(mesh, "_grads")


def test_tiled_mesh_dtypes():
    cfg = DomainConfig(eps=1 / 8, hole_radius=0.25, k_rect=K_RECT, h_ref=1 / 8)
    mesh = build_perforated_mesh(cfg)
    want = {"nodes": np.float64, "triangles": np.int32, "boundary_edges": np.int32,
            "tri_region": np.int8, "edge_kind": np.int8}
    assert {name: getattr(mesh, name).dtype for name in want} == want


def test_domain_mesh_counts():
    mesh = build_domain_mesh((0.0, 0.0, 1.0, 1.0), 0.25)
    assert mesh.n_nodes == 25
    assert mesh.n_triangles == 32
    assert (mesh.edge_kind == geometry.OUTER).all()
    small = build_domain_mesh(K_RECT, 0.5 / 8.0)
    assert small.fluid_area() == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(GeometryError):
        build_domain_mesh((0.0, 0.0, 0.0, 1.0), 0.25)


def test_domain_mesh_bounds():
    # the rectangle A is read back from the node extents
    assert build_domain_mesh(K_RECT, 0.5 / 32.0).bounds() == K_RECT
    assert build_domain_mesh((0.0, 0.0, 1.0, 0.5), 0.25).bounds() == (0.0, 0.0, 1.0, 0.5)


def test_tiled_mesh_does_not_keep_its_template():
    """A tiled mesh holds no reference to the template it was tiled from,
    so the template is freed while the tiled mesh lives on."""
    cfg = DomainConfig(eps=1 / 4, hole_radius=0.25, k_rect=K_RECT, h_ref=1 / 8)
    template = build_cell_mesh(0.25, 32, 1 / 8)
    mesh = geometry.tile_template(cfg, template)
    ref = weakref.ref(template)
    gc.disable()
    try:
        del template
        assert ref() is None
        assert mesh.n_nodes == 1345
    finally:
        gc.enable()


def test_locate_point(template8):
    # vertex: the barycentric combination reproduces the node coordinates
    n = int(template8.triangles[template8.fluid_triangles()[0], 0])
    tri, lam = locate_point(template8, template8.nodes[n][None])
    rec = lam[0] @ template8.nodes[template8.triangles[tri[0]]]
    assert np.allclose(rec, template8.nodes[n], atol=1e-12)
    # centroid of a fluid triangle finds a triangle with the same centroid value
    ft = template8.fluid_triangles()[3]
    c = template8.nodes[template8.triangles[ft]].mean(axis=0)
    tri, lam = locate_point(template8, c[None])
    assert np.allclose(lam[0] @ template8.nodes[template8.triangles[tri[0]]], c, atol=1e-12)
    # hole center is in no fluid triangle
    assert locate_point(template8, np.array([(0.5, 0.5)]))[0][0] == -1
    # clearly outside the cell
    assert locate_point(template8, np.array([(2.0, 2.0)]))[0][0] == -1


def test_located_mesh_is_freed_without_the_cycle_collector():
    """The locator cached on a mesh holds the mesh's arrays, not the mesh,
    so a located mesh is freed as soon as its last reference goes."""
    mesh = build_domain_mesh(K_RECT, 0.5 / 8.0)
    assert locate_point(mesh, np.array([(0.5, 0.5)]))[0][0] != -1
    ref = weakref.ref(mesh)
    gc.disable()
    try:
        del mesh
        assert ref() is None
    finally:
        gc.enable()


def test_locate_point_batched(template8):
    fl = template8.fluid_triangles()
    pts = np.vstack([template8.nodes,
                     template8.nodes[template8.triangles[fl]].mean(axis=1),
                     [(0.5, 0.5), (2.0, 2.0)]])
    tri, lam = locate_point(template8, pts)
    assert tri.shape == (len(pts),) and lam.shape == (len(pts), 3)
    # identical to one call per point, misses marked -1
    for x, t, l in zip(pts, tri, lam):
        t1, l1 = locate_point(template8, x[None])
        if t1[0] == -1:
            assert t == -1
        else:
            assert t == t1[0] and np.array_equal(l, l1[0])
    assert tri[-2] == -1 and tri[-1] == -1
    # brute force over all FLUID triangles: the lowest-index container wins
    p = template8.nodes[template8.triangles[fl]]
    inv = np.linalg.inv(np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2))
    l12 = np.einsum("tab,ptb->pta", inv, pts[:, None, :] - p[None, :, 0])
    inside = (l12 >= -1e-12).all(axis=2) & (l12.sum(axis=2) <= 1.0 + 1e-12)
    assert np.array_equal(tri, np.where(inside.any(axis=1), fl[inside.argmax(axis=1)], -1))


def test_interpolate(template8):
    def f(x):
        return 1.5 + 2.0 * x[..., 0] - 3.0 * x[..., 1]

    mesh = build_domain_mesh(K_RECT, 0.5 / 8.0)
    X = np.random.default_rng(3).uniform(0.25, 0.75, (200, 2))
    vals, hit = geometry.interpolate(mesh, np.column_stack([f(mesh.nodes), -f(mesh.nodes)]), X)
    assert vals.shape == (200, 2) and hit.all()
    assert np.abs(vals[:, 0] - f(X)).max() <= 1e-14
    assert np.abs(vals[:, 1] + f(X)).max() <= 1e-14
    # zero, and not located, outside the mesh and inside a hole
    for m, x in ((mesh, (0.1, 0.5)), (template8, (0.5, 0.5))):
        vals, hit = geometry.interpolate(m, f(m.nodes), [x])
        assert vals.tolist() == [0.0] and hit.tolist() == [False]


def test_interpolate_mask_is_location(template8):
    """The mask names exactly the points `locate_point` finds a FLUID
    triangle for: points in the holes and off the cell are not located."""
    X = np.random.default_rng(5).uniform(-0.1, 1.1, (400, 2))
    _, hit = geometry.interpolate(template8, template8.nodes[:, 0], X)
    assert hit.dtype == bool
    assert np.array_equal(hit, locate_point(template8, X)[0] >= 0)
    assert 0 < np.count_nonzero(hit) < len(X)


def test_rect_helpers():
    rect = K_RECT
    assert rect_distance(rect, (0.5, 0.5)) == pytest.approx(0.25)
    assert rect_distance(rect, (0.3, 0.5)) == pytest.approx(0.05)
    assert rect_distance(rect, (0.1, 0.5)) == 0.0
    assert point_in_closed_rect(rect, (0.25, 0.25))
    assert point_in_closed_rect(rect, (0.5, 0.75))
    assert not point_in_closed_rect(rect, (0.2, 0.5))
    X = np.array([(0.5, 0.5), (0.3, 0.5), (0.1, 0.5), (0.25, 0.25), (0.5, 0.75), (0.2, 0.5)])
    assert np.allclose(rect_distance(rect, X), [0.25, 0.05, 0.0, 0.0, 0.0, 0.0])
    assert point_in_closed_rect(rect, X).tolist() == [True, True, False, True, True, False]


@pytest.mark.parametrize("h", [0.0, -0.1])
def test_nonpositive_mesh_size_rejected(h):
    # checked before 1/h is taken: no ZeroDivisionError, no "too coarse"
    for r in (0.0, 0.25):
        with pytest.raises(GeometryError, match="must be > 0"):
            build_cell_mesh(r, 32, h)
    with pytest.raises(GeometryError, match="must be > 0"):
        build_domain_mesh((0.25, 0.25, 0.75, 0.75), h)


@pytest.mark.parametrize("r", [np.nan, np.inf, -0.1])
def test_bad_hole_radius_rejected(r):
    with pytest.raises(GeometryError, match="hole radius must be finite and >= 0"):
        build_cell_mesh(r, 32, 1.0 / 8.0)


def test_cell_mesh_resolution_guards():
    with pytest.raises(GeometryError):
        build_cell_mesh(0.45, 32, 1.0 / 8.0)   # hole touches the boundary
    with pytest.raises(GeometryError):
        build_cell_mesh(0.25, 4, 1.0 / 8.0)    # too few polygon vertices
    with pytest.raises(GeometryError):
        build_cell_mesh(0.25, 64, 1.0 / 8.0)   # square cannot carry 64 nodes


def test_points_are_located_only_in_interpolate():
    """Every point location in the package goes through
    `geometry.interpolate`, which reports the located points beside the
    values; no other function calls `locate_point`.  `interpolate` locates
    chi's points only in `cell.eval_chi`, and the tiled nodes on the A mesh
    only in the corrector and the eigenspace gap."""
    src = Path(geometry.__file__).parent
    callers = {"locate_point": [], "interpolate": []}
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in callers:
                        callers[name].append(f"{path.name}:{fn.name}")
    assert callers == {"locate_point": ["geometry.py:interpolate"],
                       "interpolate": ["cell.py:eval_chi", "corrector.py:build_corrector",
                                       "harness.py:_eigenspace_gap"]}


@pytest.mark.parametrize("eps, r, h_ref", [(1 / 2, 0.25, 1 / 8), (1 / 3, 0.25, 1 / 8),
                                           (1 / 4, 0.0, 1 / 8), (1 / 6, 0.2, 1 / 16)])
def test_template_index_inverts_cell_node_map(eps, r, h_ref):
    """Node p is eps * (c + the template node template_index gives) for c,
    the first cell in tiling order (iy outer, ix inner) whose closed square
    holds it, bitwise as the tiling computes it; and triangle t maps to
    t mod T."""
    mesh = build_perforated_mesh(DomainConfig(eps=eps, hole_radius=r, h_ref=h_ref))
    template = build_cell_mesh(r, 32, h_ref)
    got = geometry.template_index(mesh, np.arange(mesh.n_nodes))
    # the lowest lattice index i with x in [i eps, (i + 1) eps]
    s = mesh.nodes / eps
    on_line = np.abs(s - np.rint(s)) < 1e-9
    c = np.maximum(np.where(on_line, np.rint(s), np.ceil(s)) - 1, 0).astype(int)
    assert np.array_equal(mesh.nodes, eps * (c + template.nodes[got]))
    rng = np.random.default_rng(2)
    nodes = rng.integers(0, mesh.n_nodes, 50)
    assert np.array_equal(geometry.template_index(mesh, nodes), got[nodes])
    tris = rng.integers(0, mesh.n_triangles, 50)
    assert np.array_equal(geometry.template_index(mesh, tris, triangles=True),
                          tris % template.n_triangles)
    assert np.array_equal(geometry.template_index(template, np.arange(template.n_nodes)),
                          np.arange(template.n_nodes))


def test_cell_maps_need_a_tiled_mesh(cell_sol8):
    """A domain mesh (eps = 0) has no cells: the cell maps and eval_chi say
    so instead of dividing by zero."""
    from homoglab.cell import eval_chi
    mesh = build_domain_mesh(K_RECT, 0.5 / 8.0)
    for call in (lambda: geometry.cell_node_map(mesh),
                 lambda: geometry.template_index(mesh, [0]),
                 lambda: geometry.template_index(mesh, [0], triangles=True),
                 lambda: eval_chi(cell_sol8, mesh, [0])):
        with pytest.raises(GeometryError, match="no cells"):
            call()


def test_meshes_are_built_only_in_geometry():
    """Other modules pass triangle or edge index sets to fem, never a Mesh
    copy; every reduction goes through `fem.apply_constraints`; and P1
    gradients come from `Mesh.p1`, never from a hand-written block."""
    src = Path(geometry.__file__).parent
    home = {"Mesh": "geometry.py", "ReducedSystem": "fem.py", "grads": "geometry.py"}
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in home and path.name != home[name]:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_untyped_mesh_metadata():
    """Every fact about a mesh comes from its arrays: no module reads or
    writes a `.meta` attribute."""
    src = Path(geometry.__file__).parent
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr == "meta"]
    assert offenders == []
    assert "meta" not in {f.name for f in dataclasses.fields(geometry.Mesh)}


def test_cells_are_derived_not_stored():
    """A mesh stores no per-triangle or per-edge cell: `Mesh` has no such
    field, no module reads one, and a perforated mesh is a function of its
    DomainConfig alone, with no template argument."""
    fields = {f.name for f in dataclasses.fields(geometry.Mesh)}
    assert not fields & {"tri_cell", "edge_cell"}
    assert not hasattr(geometry, "_NO_CELL")
    src = Path(geometry.__file__).parent
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr in ("tri_cell", "edge_cell")]
    assert offenders == []
    for fn in (build_perforated_mesh, spectral.build_perforated_bundle,
               spectral.solve_perforated_evp):
        params = list(inspect.signature(fn).parameters)
        assert params[0] == "cfg" and not {"cell", "cell_mesh", "template"} & set(params), fn
    # the cell size: eps tiled, 1 for the template (one cell), 0 without cells
    assert build_perforated_mesh(DomainConfig(eps=1 / 4, hole_radius=0.25)).eps == 0.25
    assert build_cell_mesh(0.25, 32, 1 / 8).eps == build_cell_mesh(0.0, 32, 1 / 8).eps == 1.0
    assert build_domain_mesh(K_RECT, 0.5 / 8).eps == 0.0


def test_perforated_bundle_builds_one_template_and_one_tiling(monkeypatch):
    """`build_perforated_bundle(cfg)` builds its template, tiles it and
    wraps both in `build_perforated_mesh`, once each."""
    calls = []
    for name in ("build_cell_mesh", "tile_template", "build_perforated_mesh"):
        def counting(*args, _name=name, _fn=getattr(geometry, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(geometry, name, counting)
    cfg = DomainConfig(eps=1 / 4, hole_radius=0.25, k_rect=K_RECT, h_ref=1 / 8)
    spectral.build_perforated_bundle(cfg)
    assert sorted(calls) == ["build_cell_mesh", "build_perforated_mesh", "tile_template"]


def _reference_tile_template(cfg, cell):
    """The per-cell, per-node tiling loop the array-built `tile_template`
    replaced, kept as its reference; returns the Mesh fields it filled and
    the cell of each triangle and edge ((-1, -1) for an OUTER edge)."""
    n = cfg.n_cells
    eps = cfg.eps
    face_keys = reference_face_keys(cell)
    m = max(max(k) for k in face_keys.values())
    _NO_CELL = (-1, -1)
    HOLE_BDRY, OUTER = geometry.HOLE_BDRY, geometry.OUTER

    shared = {}  # global lattice key -> node id
    nodes = []
    all_tris = []
    all_reg = []
    all_cell = []
    all_edges = []
    all_kinds = []
    all_ecell = []

    for iy in range(n):
        for ix in range(n):
            local_to_global = np.empty(cell.n_nodes, dtype=np.int64)
            for ln in range(cell.n_nodes):
                key = face_keys.get(ln)
                if key is not None:
                    gkey = (ix * m + key[0], iy * m + key[1])
                    gid = shared.get(gkey)
                    if gid is None:
                        gid = len(nodes)
                        shared[gkey] = gid
                        nodes.append((eps * (ix + cell.nodes[ln, 0]),
                                      eps * (iy + cell.nodes[ln, 1])))
                else:
                    gid = len(nodes)
                    nodes.append((eps * (ix + cell.nodes[ln, 0]),
                                  eps * (iy + cell.nodes[ln, 1])))
                local_to_global[ln] = gid
            all_tris.append(local_to_global[cell.triangles])
            all_reg.append(cell.tri_region)
            all_cell.append(np.broadcast_to((ix, iy), (cell.n_triangles, 2)))
            for (a, b), kind in zip(cell.boundary_edges, cell.edge_kind):
                if kind == HOLE_BDRY:
                    all_edges.append((local_to_global[a], local_to_global[b]))
                    all_kinds.append(HOLE_BDRY)
                    all_ecell.append((ix, iy))
                else:
                    # template face edge: outer boundary only on the domain edge
                    ka = face_keys[int(a)]
                    kb = face_keys[int(b)]
                    on_domain = (
                        (ka[0] == 0 and kb[0] == 0 and ix == 0)
                        or (ka[0] == m and kb[0] == m and ix == n - 1)
                        or (ka[1] == 0 and kb[1] == 0 and iy == 0)
                        or (ka[1] == m and kb[1] == m and iy == n - 1)
                    )
                    if on_domain:
                        all_edges.append((local_to_global[a], local_to_global[b]))
                        all_kinds.append(OUTER)
                        all_ecell.append(_NO_CELL)

    return dict(
        nodes=np.array(nodes),
        triangles=np.concatenate(all_tris).astype(np.int32),
        tri_region=np.concatenate(all_reg).astype(np.int8),
        tri_cell=np.concatenate(all_cell).astype(np.int32),
        boundary_edges=np.array(all_edges, dtype=np.int32),
        edge_kind=np.array(all_kinds, dtype=np.int8),
        edge_cell=np.array(all_ecell, dtype=np.int32),
    )


def _reference_perforate(full):
    """A FLUID-only renumbered copy of the reference fields, built with a
    per-edge loop; `fluid_to_full` maps its nodes back."""
    keep_tri = full["tri_region"] == geometry.FLUID
    tris = full["triangles"][keep_tri]
    used = np.zeros(len(full["nodes"]), dtype=bool)
    used[tris.ravel()] = True
    new_of_old = -np.ones(len(full["nodes"]), dtype=np.int64)
    new_of_old[used] = np.arange(int(used.sum()))

    edges = []
    kinds = []
    cells = []
    for (a, b), kind, cix in zip(full["boundary_edges"], full["edge_kind"], full["edge_cell"]):
        if used[a] and used[b]:
            edges.append((new_of_old[a], new_of_old[b]))
            kinds.append(kind)
            cells.append(cix)

    return dict(
        nodes=full["nodes"][used],
        triangles=new_of_old[tris],
        tri_region=np.zeros(len(tris), dtype=np.int8),
        tri_cell=full["tri_cell"][keep_tri],
        boundary_edges=np.array(edges, dtype=np.int32),
        edge_kind=np.array(kinds, dtype=np.int8),
        edge_cell=np.array(cells, dtype=np.int32),
        fluid_to_full=np.nonzero(used)[0],
    )


def _assert_bitwise(got, ref, what):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype, what
    assert got.shape == ref.shape, what
    assert got.tobytes() == ref.tobytes(), what


def test_tiling_matches_reference_loop():
    """Array-built tiling equals the per-cell loop bitwise, node numbering,
    edge order and dtypes included, and its FLUID part equals the per-edge
    loop's FLUID-only copy.  The cells `Mesh.cells` derives from centroids
    and midpoints are the loop's own, and no centroid is near a cell side."""
    cases = [(1 / 4, 0.25, 1 / 8), (1 / 8, 0.25, 1 / 8), (1 / 64, 0.25, 1 / 8),
             (1 / 4, 0.0, 1 / 8),      # hole-free template
             (1 / 6, 0.25, 1 / 16)]
    for eps, r, h_ref in cases:
        cfg = DomainConfig(eps=eps, hole_radius=r, h_ref=h_ref)
        cell = build_cell_mesh(r, 32, h_ref)
        mesh = build_perforated_mesh(cfg)
        ref_full = _reference_tile_template(cfg, cell)
        ref_perf = _reference_perforate(ref_full)
        where = f"at eps={eps}, r={r}, h_ref={h_ref}"
        for name in ("nodes", "triangles", "tri_region", "boundary_edges", "edge_kind"):
            _assert_bitwise(getattr(mesh, name), ref_full[name], f"full {name} {where}")
        centroids = mesh.nodes[mesh.triangles].mean(axis=1)
        tri_cell = mesh.cells(centroids)
        hole = mesh.edge_kind == geometry.HOLE_BDRY
        edge_cell = np.full((len(hole), 2), -1, dtype=np.int32)
        edge_cell[hole] = mesh.cells(mesh.nodes[mesh.boundary_edges[hole]].mean(axis=1))
        c = np.arange(mesh.n_triangles) // cell.n_triangles   # cells run row by row
        _assert_bitwise(tri_cell, np.column_stack([c % cfg.n_cells, c // cfg.n_cells])
                        .astype(np.int32), f"cells of triangle t // T {where}")
        _assert_bitwise(tri_cell, ref_full["tri_cell"], f"full tri_cell {where}")
        _assert_bitwise(edge_cell, ref_full["edge_cell"], f"full edge_cell {where}")
        offset = centroids / eps - tri_cell
        assert np.minimum(offset, 1.0 - offset).min() >= 0.02, where
        to_full = ref_perf["fluid_to_full"]
        fl = mesh.fluid_triangles()
        _assert_bitwise(np.nonzero(mesh.fluid_nodes())[0], to_full, f"fluid nodes {where}")
        for got, ref, name in (
                (mesh.nodes[mesh.fluid_nodes()], ref_perf["nodes"], "nodes"),
                (mesh.triangles[fl], to_full[ref_perf["triangles"]].astype(np.int32),
                 "triangles"),
                (mesh.tri_region[fl], ref_perf["tri_region"], "tri_region"),
                (tri_cell[fl], ref_perf["tri_cell"], "tri_cell"),
                (mesh.boundary_edges, to_full[ref_perf["boundary_edges"]].astype(np.int32),
                 "boundary_edges"),
                (mesh.edge_kind, ref_perf["edge_kind"], "edge_kind"),
                (edge_cell, ref_perf["edge_cell"], "edge_cell")):
            _assert_bitwise(got, ref, f"perforated {name} {where}")


def test_tiled_mesh_conformity(template8):
    """Edge multiplicities, counted from the triangles alone, agree with the
    declared boundary edges of the tiled and the perforated mesh."""
    cfg = DomainConfig(eps=1 / 8, hole_radius=0.25, k_rect=K_RECT, h_ref=1 / 8)
    n, m = cfg.n_cells, int(geometry.face_keys(template8).max())
    mesh = build_perforated_mesh(cfg)

    def edge_set(kind):
        return {tuple(sorted(map(int, e))) for e in mesh.boundary_edges[mesh.edge_kind == kind]}

    counts = interior_edge_counts(mesh.triangles)
    assert set(counts.values()) == {1, 2}
    once = {e for e, c in counts.items() if c == 1}
    outer, hole = edge_set(geometry.OUTER), edge_set(geometry.HOLE_BDRY)
    assert once == outer and len(outer) == 4 * n * m
    assert len(hole) == n * n * 4 * m and all(counts[e] == 2 for e in hole)

    # Omega_eps alone: the hole boundaries become boundary edges
    counts = interior_edge_counts(mesh.triangles[mesh.fluid_triangles()])
    assert set(counts.values()) == {1, 2}
    once = {e for e, c in counts.items() if c == 1}
    assert once == outer | hole


def test_domain_mesh_matches_reference_loop():
    """Array-built structured triangles, edges and face keys equal the
    per-square loops bitwise, also with nx != ny; only the unit square is a
    template cell mesh with face keys."""
    for rect in ((0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 0.5)):
        mesh = build_domain_mesh(rect, 1.0 / 8.0)
        nx, ny = domain_grid(rect, 1.0 / 8.0)
        tris = []
        for j in range(ny):
            for i in range(nx):
                a = j * (nx + 1) + i
                b = a + 1
                c = a + nx + 2
                d = a + nx + 1
                tris.append((a, b, c))
                tris.append((a, c, d))
        edges = []
        for i in range(nx):
            edges.append((i, i + 1))
            edges.append((ny * (nx + 1) + i, ny * (nx + 1) + i + 1))
        for j in range(ny):
            edges.append((j * (nx + 1), (j + 1) * (nx + 1)))
            edges.append((j * (nx + 1) + nx, (j + 1) * (nx + 1) + nx))
        keys = {}
        for n in np.unique(mesh.boundary_edges):
            x, y = mesh.nodes[n]
            keys[int(n)] = (int(round(x * 8)), int(round(y * 8)))
        _assert_bitwise(mesh.triangles, np.array(tris, dtype=np.int32), f"triangles {rect}")
        _assert_bitwise(mesh.boundary_edges, np.array(edges, dtype=np.int32), f"edges {rect}")
        if rect[3] < 1.0:
            with pytest.raises(GeometryError, match="not a template cell mesh"):
                geometry.face_keys(mesh)
            continue
        got = geometry.face_keys(mesh)
        want = np.full((mesh.n_nodes, 2), -1, dtype=np.int64)
        want[list(keys)] = list(keys.values())
        _assert_bitwise(got, want, f"face keys {rect}")


@pytest.mark.parametrize("h_ref", [1 / 8, 1 / 12, 1 / 32])
def test_cell_mesh_matches_reference_loop(h_ref):
    """The array-built hole ring equals the per-node and per-triangle loops
    it replaced, bitwise."""
    mesh = build_cell_mesh(0.25, 32, h_ref)
    r, n_b, m = 0.25, 32, int(round(1.0 / h_ref))
    n_ring = 4 * m
    FLUID, HOLE, HOLE_BDRY, OUTER = (geometry.FLUID, geometry.HOLE,
                                     geometry.HOLE_BDRY, geometry.OUTER)
    verts = geometry._polygon(r, n_b)
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
    pts, keys = [], []
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
    outer, outer_keys = np.array(pts), np.array(keys, dtype=np.int64)
    _assert_bitwise(geometry._square_boundary_nodes(m), outer, "square boundary")
    c = np.array([0.5, 0.5])
    ang_in0 = np.arctan2(inner[0, 1] - 0.5, inner[0, 0] - 0.5)
    ang_out = np.arctan2(outer[:, 1] - 0.5, outer[:, 0] - 0.5)
    diff = np.abs((ang_out - ang_in0 + np.pi) % (2.0 * np.pi) - np.pi)
    rot = int(np.argmin(diff))
    order = (np.arange(n_ring) + rot) % n_ring
    outer_m = outer[order]
    outer_keys_m = outer_keys[order]

    n_layers = max(1, int(round((0.5 - r) / h_ref)))
    node_list = []
    ring_ids = np.empty((n_layers + 1, n_ring), dtype=np.int64)
    for l in range(n_layers + 1):
        t = l / n_layers
        for i in range(n_ring):
            if l == 0:
                p = inner[i]
            elif l == n_layers:
                p = outer_m[i]
            else:
                p = (1.0 - t) * inner[i] + t * outer_m[i]
            ring_ids[l, i] = len(node_list)
            node_list.append(p)
    center_id = len(node_list)
    node_list.append(c)

    tris = []
    regions = []
    for l in range(n_layers):
        for i in range(n_ring):
            j = (i + 1) % n_ring
            a, b = ring_ids[l, i], ring_ids[l, j]
            cc, d = ring_ids[l + 1, j], ring_ids[l + 1, i]
            tris.append((a, cc, b))
            tris.append((a, d, cc))
            regions.extend((FLUID, FLUID))
    for i in range(n_ring):
        j = (i + 1) % n_ring
        tris.append((center_id, ring_ids[0, i], ring_ids[0, j]))
        regions.append(HOLE)

    edges = []
    kinds = []
    for i in range(n_ring):
        j = (i + 1) % n_ring
        edges.append((ring_ids[0, i], ring_ids[0, j]))
        kinds.append(HOLE_BDRY)
        edges.append((ring_ids[n_layers, i], ring_ids[n_layers, j]))
        kinds.append(OUTER)
    face_keys = np.full((len(node_list), 2), -1, dtype=np.int64)
    for i in range(n_ring):
        face_keys[ring_ids[n_layers, i]] = outer_keys_m[i]

    _assert_bitwise(mesh.nodes, np.array(node_list), "nodes")
    _assert_bitwise(mesh.triangles, np.array(tris, dtype=np.int32), "triangles")
    _assert_bitwise(mesh.tri_region, np.array(regions, dtype=np.int8), "tri_region")
    _assert_bitwise(mesh.boundary_edges, np.array(edges, dtype=np.int32), "edges")
    _assert_bitwise(mesh.edge_kind, np.array(kinds, dtype=np.int8), "edge_kind")
    _assert_bitwise(geometry.face_keys(mesh), face_keys, "face keys")
