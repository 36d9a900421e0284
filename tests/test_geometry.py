"""Triangulation and hull against brute-force geometric oracles.

Oracles here are deliberately naive: a quadratic in-circle sweep for the
Delaunay property, the cubic all-pairs edge test for the hull, and a winding
number walk for containment. None of them share code with the library.
"""

import math

import numpy as np
import pytest

from sattraffic.errors import CollinearInputError
from sattraffic.geometry import (
    Polygon,
    convex_hull,
    delaunay,
    point_in_polygon,
    polygon_contains_many,
)


def normalize(points):
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    ext = max(pts.max(axis=0) - lo)
    return (pts - lo) / ext


def incircle_violations(tri, tol=1e-9):
    """(triangle, point) pairs where a point falls inside a circumcircle."""
    pts = normalize(tri.points)
    bad = []
    for t in tri.triangles:
        a, b, c = (pts[i] for i in t)
        if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) < 0:
            bad.append((t, "not ccw"))
            continue
        for k in range(len(pts)):
            if k in t:
                continue
            d = pts[k]
            m = np.array(
                [
                    [a[0] - d[0], a[1] - d[1], (a[0] - d[0]) ** 2 + (a[1] - d[1]) ** 2],
                    [b[0] - d[0], b[1] - d[1], (b[0] - d[0]) ** 2 + (b[1] - d[1]) ** 2],
                    [c[0] - d[0], c[1] - d[1], (c[0] - d[0]) ** 2 + (c[1] - d[1]) ** 2],
                ]
            )
            if np.linalg.det(m) > tol:
                bad.append((t, k))
    return bad


def brute_hull_vertices(points):
    """Hull vertex set from the cubic all-pairs side test."""
    pts = normalize(points)
    n = len(pts)
    verts = set()
    for a in range(n):
        da = pts - pts[a]
        for b in range(n):
            if a == b:
                continue
            cross = da[b, 0] * da[:, 1] - da[b, 1] * da[:, 0]
            keep = np.ones(n, dtype=bool)
            keep[[a, b]] = False
            if np.all(cross[keep] > 1e-12):
                verts.add(a)
                verts.add(b)
    return verts


def winding_inside(point, polygon, tol=1e-12):
    """Winding-number containment with an explicit on-boundary check."""
    px, py = point
    verts = polygon.vertices
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        cross = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
        dot = (px - x0) * (px - x1) + (py - y0) * (py - y1)
        scale = max(abs(x0), abs(x1), abs(y0), abs(y1), 1.0)
        if abs(cross) <= tol * scale * scale and dot <= tol * scale * scale:
            return True
    angle = 0.0
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        angle += math.atan2(
            (x0 - px) * (y1 - py) - (x1 - px) * (y0 - py),
            (x0 - px) * (x1 - px) + (y0 - py) * (y1 - py),
        )
    return abs(angle) > math.pi


def triangle_area(pts, t):
    a, b, c = (np.asarray(pts[i], dtype=float) for i in t)
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


class TestDelaunay:
    def test_unit_square_two_triangles_lowest_index_diagonal(self):
        tri = delaunay([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        assert len(tri.triangles) == 2
        edges = set()
        for t in tri.triangles:
            for i in range(3):
                e = tuple(sorted((t[i], t[(i + 1) % 3])))
                edges.add(e)
        # both diagonals are valid Delaunay here; the tie-break picks the
        # one through vertex 0
        assert (0, 2) in edges
        assert (1, 3) not in edges

    def test_duplicates_removed_and_counted(self):
        tri = delaunay([(0, 0), (1, 0), (1, 0), (0, 1), (0, 0)])
        assert tri.duplicates_removed == 2
        assert len(tri.points) == 3
        assert len(tri.triangles) == 1

    def test_collinear_raises(self):
        with pytest.raises(CollinearInputError):
            delaunay([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_too_few_points_raises(self):
        with pytest.raises(CollinearInputError):
            delaunay([(0, 0), (1, 1)])

    def test_regular_grid_delaunay_property(self):
        pts = [(0.1 * i, 0.1 * j) for i in range(8) for j in range(8)]
        tri = delaunay(pts)
        assert incircle_violations(tri) == []
        # grid of k*k cells splits into 2 triangles each
        assert len(tri.triangles) == 2 * 7 * 7

    def test_grid_tie_break_deterministic(self):
        pts = [(0.25 * i, 0.25 * j) for i in range(5) for j in range(5)]
        t1 = delaunay(pts).triangles
        t2 = delaunay(pts).triangles
        assert t1 == t2

    def test_cocircular_ring(self):
        ring = [
            (math.cos(2 * math.pi * k / 8), math.sin(2 * math.pi * k / 8)) for k in range(8)
        ]
        tri = delaunay(ring)
        assert len(tri.triangles) == 6
        assert incircle_violations(tri) == []

    def test_random_sets_delaunay_property(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(10, 120))
            pts = rng.uniform(0, 10, size=(n, 2)).tolist()
            tri = delaunay(pts)
            assert incircle_violations(tri) == []

    def test_triangles_tile_the_hull(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(10, 80))
            pts = rng.uniform(-5, 5, size=(n, 2)).tolist()
            tri = delaunay(pts)
            tri_area = sum(triangle_area(tri.points, t) for t in tri.triangles)
            hull_area = convex_hull(pts).signed_area()
            assert tri_area == pytest.approx(hull_area, rel=1e-9)

    def test_near_collinear_triangle_overflows_quietly(self):
        # the first triangle's circumradius squared overflows to inf; the
        # suite turns the overflow warning into an error
        pts = [(1.0, 0.0), (0.0, 1.0), (-5.054697046319955e-283, 0.0), (0.0, 0.0)]
        tri = delaunay(pts)
        assert incircle_violations(tri) == []
        assert len(tri.triangles) == 2

    def test_all_points_referenced(self):
        rng = np.random.default_rng(41)
        pts = rng.uniform(0, 1, size=(60, 2)).tolist()
        tri = delaunay(pts)
        used = {i for t in tri.triangles for i in t}
        assert used == set(range(60))


class TestConvexHull:
    def test_square_with_interior_point(self):
        poly = convex_hull([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
        assert len(poly.vertices) == 4
        assert (1.0, 1.0) not in poly.vertices

    def test_collinear_midpoints_dropped(self):
        poly = convex_hull([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
        assert (1.0, 0.0) not in poly.vertices
        assert len(poly.vertices) == 4

    def test_ccw_and_strictly_convex(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            pts = rng.uniform(-3, 7, size=(40, 2)).tolist()
            poly = convex_hull(pts)
            assert poly.signed_area() > 0
            verts = poly.vertices
            n = len(verts)
            for i in range(n):
                ax, ay = verts[i]
                bx, by = verts[(i + 1) % n]
                cx, cy = verts[(i + 2) % n]
                assert (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0

    def test_matches_brute_force_vertex_set(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(5, 80))
            pts = rng.uniform(0, 1, size=(n, 2)).tolist()
            poly = convex_hull(pts)
            got = {pts.index([x, y]) for x, y in poly.vertices}
            want = brute_hull_vertices(pts)
            assert got == want

    def test_permutation_invariant_exactly(self):
        rng = np.random.default_rng(37)
        pts = rng.uniform(0, 5, size=(50, 2)).tolist()
        base = convex_hull(pts).vertices
        for _ in range(5):
            rng.shuffle(pts)
            assert convex_hull(pts).vertices == base

    def test_collinear_raises(self):
        with pytest.raises(CollinearInputError):
            convex_hull([(0, 0), (1, 2), (2, 4), (3, 6)])


class TestPointInPolygon:
    def test_unit_square_interior_and_boundary(self):
        square = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
        assert point_in_polygon((0.5, 0.5), square)
        assert point_in_polygon((0.0, 0.5), square)  # edge
        assert point_in_polygon((1.0, 1.0), square)  # vertex
        assert not point_in_polygon((1.0000001, 0.5), square)
        assert not point_in_polygon((-0.0000001, 0.5), square)

    def test_agrees_with_winding_oracle(self):
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 2000:
            cloud = rng.uniform(-2, 2, size=(12, 2)).tolist()
            poly = convex_hull(cloud)
            pts = rng.uniform(-2.5, 2.5, size=(40, 2))
            for p in pts:
                assert point_in_polygon(p, poly) == winding_inside(p, poly)
                checked += 1

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(47)
        cloud = rng.uniform(0, 10, size=(20, 2)).tolist()
        poly = convex_hull(cloud)
        xs = rng.uniform(-1, 11, size=500)
        ys = rng.uniform(-1, 11, size=500)
        batch = polygon_contains_many(poly, xs, ys)
        for i in range(500):
            assert batch[i] == point_in_polygon((xs[i], ys[i]), poly)

    def test_hull_vertices_contained_in_own_hull(self):
        rng = np.random.default_rng(53)
        pts = rng.uniform(30, 60, size=(100, 2)).tolist()
        poly = convex_hull(pts)
        for x, y in pts:
            if not point_in_polygon((x, y), poly):
                pytest.fail(f"point ({x}, {y}) escaped its own hull")


class TestPolygon:
    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon(((0, 0), (1, 1)))

    def test_rejects_repeated_consecutive(self):
        with pytest.raises(ValueError):
            Polygon(((0, 0), (0, 0), (1, 1), (0, 1)))

    def test_signed_area_ccw_positive(self):
        sq = Polygon(((0, 0), (2, 0), (2, 2), (0, 2)))
        assert sq.signed_area() == pytest.approx(4.0)
