"""Mesh construction, tiling, point location and rectangle helpers."""

import ast
from pathlib import Path

import numpy as np
import pytest

from homoglab import geometry
from homoglab.errors import ConfigError, GeometryError
from homoglab.geometry import (DomainConfig, build_cell_mesh,
                               build_domain_mesh, build_perforated_mesh,
                               interior_edge_counts, locate_point,
                               point_in_closed_rect, polygon_area,
                               polygon_perimeter, rect_distance)

K_RECT = (0.25, 0.25, 0.75, 0.75)


def test_domain_config_validation():
    with pytest.raises(ConfigError):
        DomainConfig(eps=0.3, hole_radius=0.25)
    with pytest.raises(ConfigError):
        DomainConfig(eps=0.25, hole_radius=0.6)
    with pytest.raises(ConfigError):
        DomainConfig(eps=0.25, hole_radius=0.25, hole_poly=4)
    with pytest.raises(ConfigError):
        DomainConfig(eps=0.25, hole_radius=0.25, k_rect=(0.0, 0.25, 0.75, 0.75))
    with pytest.raises(GeometryError):
        DomainConfig(eps=0.25, hole_radius=0.45, h_ref=1.0 / 8.0)
    assert DomainConfig(eps=0.125, hole_radius=0.25).n_cells == 8


def test_template_no_hole():
    mesh = build_cell_mesh(0.0, 32, 1.0 / 8.0)
    assert mesh.fluid_area() == pytest.approx(1.0, abs=1e-12)
    assert mesh.meta["hole_perimeter"] == 0.0
    assert not (mesh.edge_kind == geometry.HOLE_BDRY).any()
    assert (mesh.areas() > 0.0).all()


def test_template_with_hole_measures(template8):
    area = polygon_area(0.25, 32)
    perim = polygon_perimeter(0.25, 32)
    # exact polygon formulas: |hole| = n r^2 sin(2 pi / n) / 2
    assert area == pytest.approx(32 * 0.25**2 * np.sin(2 * np.pi / 32) / 2,
                                 abs=1e-15)
    assert template8.fluid_area() == pytest.approx(1.0 - area, abs=1e-12)
    assert template8.meta["hole_perimeter"] == pytest.approx(perim, abs=1e-12)
    # inscribed 32-gon perimeter 2 n r sin(pi/n), just below pi/2
    assert perim == pytest.approx(2 * 32 * 0.25 * np.sin(np.pi / 32), abs=1e-15)
    assert perim == pytest.approx(np.pi / 2, abs=5e-3)
    # fluid + hole triangles tile the unit cell exactly
    assert float(template8.areas().sum()) == pytest.approx(1.0, abs=1e-12)
    assert (template8.areas() > 0.0).all()


def test_template_conformity(template8):
    counts = interior_edge_counts(template8)
    boundary = {tuple(sorted(e)) for e in template8.boundary_edges}
    for edge, c in counts.items():
        if c == 1:
            # an edge on one triangle only must be a declared boundary edge
            assert edge in boundary
        else:
            assert c == 2


def test_periodic_face_matching(template8):
    face_keys = template8.meta["face_keys"]
    m = template8.meta["m"]
    by_key = {v: k for k, v in face_keys.items()}
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
    mesh = build_perforated_mesh(cfg, template8)
    assert mesh.meta["n_holes"] == 16
    assert mesh.eps == 0.25
    # fluid area is 16 scaled copies of the template fluid area
    assert mesh.fluid_area() == pytest.approx(template8.fluid_area(), abs=1e-12)
    assert (mesh.tri_region == geometry.FLUID).all()
    # outer boundary nodes trace the unit square
    on = mesh.nodes[mesh.outer_nodes()]
    assert (np.isclose(on, 0.0, atol=1e-12) | np.isclose(on, 1.0, atol=1e-12)).any(axis=1).all()


def test_perforated_mesh_no_hole_half():
    cell = build_cell_mesh(0.0, 32, 1.0 / 8.0)
    cfg = DomainConfig(eps=0.5, hole_radius=0.0, hole_poly=32,
                       k_rect=K_RECT, h_ref=1.0 / 8.0)
    mesh = build_perforated_mesh(cfg, cell)
    assert not (mesh.edge_kind == geometry.HOLE_BDRY).any()
    assert mesh.fluid_area() == pytest.approx(1.0, abs=1e-12)


def test_domain_mesh_counts():
    mesh = build_domain_mesh((0.0, 0.0, 1.0, 1.0), 0.25)
    assert mesh.n_nodes == 25
    assert mesh.n_triangles == 32
    assert (mesh.edge_kind == geometry.OUTER).all()
    small = build_domain_mesh(K_RECT, 0.5 / 8.0)
    assert small.fluid_area() == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(GeometryError):
        build_domain_mesh((0.0, 0.0, 0.0, 1.0), 0.25)


def test_locate_point(template8):
    # vertex: the barycentric combination reproduces the node coordinates
    n = int(template8.triangles[template8.fluid_triangles()[0], 0])
    t, lam = locate_point(template8, template8.nodes[n])
    rec = lam @ template8.nodes[template8.triangles[t]]
    assert np.allclose(rec, template8.nodes[n], atol=1e-12)
    # centroid of a fluid triangle finds a triangle with the same centroid value
    ft = template8.fluid_triangles()[3]
    c = template8.nodes[template8.triangles[ft]].mean(axis=0)
    t, lam = locate_point(template8, c)
    assert np.allclose(lam @ template8.nodes[template8.triangles[t]], c, atol=1e-12)
    # hole center is in no fluid triangle
    assert locate_point(template8, (0.5, 0.5)) is None
    # clearly outside the cell
    assert locate_point(template8, (2.0, 2.0)) is None


def test_locate_point_batched(template8):
    fl = template8.fluid_triangles()
    pts = np.vstack([template8.nodes,
                     template8.nodes[template8.triangles[fl]].mean(axis=1),
                     [(0.5, 0.5), (2.0, 2.0)]])
    tri, lam = locate_point(template8, pts)
    assert tri.shape == (len(pts),) and lam.shape == (len(pts), 3)
    # identical to one call per point, misses marked -1
    for x, t, l in zip(pts, tri, lam):
        hit = locate_point(template8, x)
        if hit is None:
            assert t == -1
        else:
            assert t == hit[0] and np.array_equal(l, hit[1])
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
    vals = geometry.interpolate(mesh, np.column_stack([f(mesh.nodes), -f(mesh.nodes)]), X)
    assert vals.shape == (200, 2)
    assert np.abs(vals[:, 0] - f(X)).max() <= 1e-14
    assert np.abs(vals[:, 1] + f(X)).max() <= 1e-14
    # zero outside the mesh and inside a hole
    assert geometry.interpolate(mesh, f(mesh.nodes), [(0.1, 0.5)]).tolist() == [0.0]
    assert geometry.interpolate(template8, f(template8.nodes), [(0.5, 0.5)]).tolist() == [0.0]


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


def test_cell_mesh_resolution_guards():
    with pytest.raises(GeometryError):
        build_cell_mesh(0.45, 32, 1.0 / 8.0)   # hole touches the boundary
    with pytest.raises(GeometryError):
        build_cell_mesh(0.25, 4, 1.0 / 8.0)    # too few polygon vertices
    with pytest.raises(GeometryError):
        build_cell_mesh(0.25, 64, 1.0 / 8.0)   # square cannot carry 64 nodes


def test_meshes_are_built_only_in_geometry():
    """Other modules pass triangle or edge index sets to fem, never a Mesh copy."""
    src = Path(geometry.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "Mesh":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
