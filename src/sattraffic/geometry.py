"""Planar geometry: the convex hull that borders footprints, point-in-polygon,
and a Delaunay triangulation kept as a library function.

Works directly in (lat, lon) degree space; treating that plane as Euclidean
is a documented approximation that holds for footprint-scale regions away
from the poles and the antimeridian, and pattern.beam_footprint rejects
samples that reach a pole or span more than 180 degrees of longitude.

The Delaunay triangulation is the projected lower convex hull of the input
lifted onto the paraboloid z = x^2 + y^2: a triangle is a downward-facing
facet exactly when every other lifted point lies above its lifted plane,
which is the classical in-circumcircle test. Points are inserted
incrementally; each insertion carves out the facets whose lifted plane the
new point falls below and re-fans the cavity. A single symbolic vertex at
infinity closes the hull, so conflicts with the unbounded faces reduce to
orientation tests against hull edges and never depend on arbitrary bounding
coordinates.

Degeneracies are resolved deterministically. Co-circular ties are broken by
pushing the lifted point with the lowest index infinitesimally further down
the paraboloid, which makes the diagonal through the lowest-index vertex of
a co-circular set win. Orientation and in-circle signs come from a floating
filter backed by exact rational arithmetic: when the float determinant is
within its forward error bound the sign is recomputed with Fractions, so
the incremental construction stays consistent even for point sets that mix
very different coordinate scales. Inputs are first scaled uniformly to the
unit square (one scale for both axes, so circles stay circles); collinearity
of the whole input and point-on-boundary checks use an absolute 1e-12
tolerance in that normalized frame.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CollinearInputError

_EPS = 1e-12  # witness / containment tolerance in normalized coordinates
_FILTER = 1e-13  # float determinant below FILTER * term magnitude goes exact


@dataclass(frozen=True)
class Polygon:
    """Simple polygon as an ordered vertex tuple; hulls are strictly convex CCW."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        for i, v in enumerate(verts):
            if v == verts[i - 1]:
                raise ValueError("polygon has repeated consecutive vertices")
            if not (math.isfinite(v[0]) and math.isfinite(v[1])):
                raise ValueError("polygon vertex is not finite")
        object.__setattr__(self, "vertices", verts)

    def signed_area(self):
        verts = self.vertices
        rx, ry = verts[0]  # shoelace on offsets stays accurate far from the origin
        total = 0.0
        for i, (x0, y0) in enumerate(verts):
            x1, y1 = verts[(i + 1) % len(verts)]
            total += (x0 - rx) * (y1 - ry) - (x1 - rx) * (y0 - ry)
        return 0.5 * total

    def bounds(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


@dataclass(frozen=True)
class Triangulation:
    """Triangles over a deduplicated point set, each triple CCW."""

    points: list
    triangles: list
    duplicates_removed: int = 0


def _dedup(points):
    seen = set()
    unique = []
    for p in points:
        key = (float(p[0]), float(p[1]))
        if not (math.isfinite(key[0]) and math.isfinite(key[1])):
            raise ValueError(f"non-finite point {p!r}")
        if key not in seen:
            seen.add(key)
            unique.append(key)
    return unique, len(points) - len(unique)


def _normalize(unique):
    """Map points into [0,1]^2 with a single uniform scale."""
    xs = np.array([p[0] for p in unique], dtype=float)
    ys = np.array([p[1] for p in unique], dtype=float)
    ext = max(float(xs.max() - xs.min()), float(ys.max() - ys.min()))
    if ext <= 0.0:
        raise CollinearInputError("all points lie on one axis-parallel line")
    return (xs - xs.min()) / ext, (ys - ys.min()) / ext


def _noncollinear_witness(x, y):
    """Index triple of a non-collinear triple in normalized coords, or None."""
    d2 = (x - x[0]) ** 2 + (y - y[0]) ** 2
    j = int(np.argmax(d2))
    if d2[j] <= 0.0:
        return None
    cross = (x[j] - x[0]) * (y - y[0]) - (y[j] - y[0]) * (x - x[0])
    k = int(np.argmax(np.abs(cross)))
    if abs(cross[k]) <= _EPS:
        return None
    return 0, j, k


class _LiftedLowerHull:
    """Incremental lower hull of paraboloid-lifted points.

    Faces are either finite triangles (projected downward facets) or
    unbounded faces pairing a hull edge with the vertex at infinity.
    Cached circumcircle data acts as a coarse numpy prefilter; the exact
    predicates make every final decision. Unbounded faces store the hull
    edge directed so the triangulation lies to its right.
    """

    def __init__(self, x, y, witness):
        self.n = len(x)
        self.inf = self.n  # symbolic vertex closing the hull
        self.x = np.concatenate([x, [0.0]])
        self.y = np.concatenate([y, [0.0]])
        cap = 64
        self.tris = [None] * cap
        self.alive = np.zeros(cap, dtype=bool)
        self.ccx = np.zeros(cap)
        self.ccy = np.zeros(cap)
        self.cr2 = np.zeros(cap)
        self.count = 0
        a, b, c = witness
        if self._orient_sign(a, b, c) < 0:
            b, c = c, b
        self._push(a, b, c)
        self._push(b, a, self.inf)
        self._push(c, b, self.inf)
        self._push(a, c, self.inf)

    def _push(self, a, b, c):
        if self.count == len(self.alive):
            grow = len(self.alive)
            self.tris.extend([None] * grow)
            self.alive = np.concatenate([self.alive, np.zeros(grow, dtype=bool)])
            self.ccx = np.concatenate([self.ccx, np.zeros(grow)])
            self.ccy = np.concatenate([self.ccy, np.zeros(grow)])
            self.cr2 = np.concatenate([self.cr2, np.zeros(grow)])
        # keep the symbolic vertex in the last slot
        if a == self.inf:
            a, b, c = b, c, a
        elif b == self.inf:
            a, b, c = c, a, b
        t = self.count
        self.tris[t] = (a, b, c)
        if c == self.inf:
            ux, uy, r2 = 0.0, 0.0, math.inf
        else:
            ux, uy, r2 = self._circumdata(a, b, c)
        self.ccx[t], self.ccy[t], self.cr2[t] = ux, uy, r2
        self.alive[t] = True
        self.count += 1

    def _circumdata(self, a, b, c):
        """Circumcircle with the radius padded by a forward error bound.

        Computed relative to vertex a so the conditioning depends only on
        triangle shape, not on where the triangle sits. The padding keeps
        the coarse circumcircle prefilter a superset of the true conflicts;
        exact predicates make the final call.
        """
        x, y = self.x, self.y
        ax, ay = x[a], y[a]
        dx1, dy1 = x[b] - ax, y[b] - ay
        dx2, dy2 = x[c] - ax, y[c] - ay
        den = 2.0 * (dx1 * dy2 - dy1 * dx2)
        if den == 0.0:
            return 0.0, 0.0, math.inf
        d1 = dx1 * dx1 + dy1 * dy1
        d2 = dx2 * dx2 + dy2 * dy2
        ox = (dy2 * d1 - dy1 * d2) / den
        oy = (dx1 * d2 - dx2 * d1) / den
        pad = (
            1e-13
            * (abs(dy2 * d1) + abs(dy1 * d2) + abs(dx1 * d2) + abs(dx2 * d1))
            / abs(den)
        )
        r = math.sqrt(ox * ox + oy * oy) + 2.0 * pad
        return ax + ox, ay + oy, r * r

    def _exact_cofactors(self, a, b, c, d):
        """Exact rational cofactors of the in-circle determinant's last column."""
        xa, ya = Fraction(self.x[a]), Fraction(self.y[a])
        xb, yb = Fraction(self.x[b]), Fraction(self.y[b])
        xc, yc = Fraction(self.x[c]), Fraction(self.y[c])
        xd, yd = Fraction(self.x[d]), Fraction(self.y[d])
        adx, ady = xa - xd, ya - yd
        bdx, bdy = xb - xd, yb - yd
        cdx, cdy = xc - xd, yc - yd
        cof_a = bdx * cdy - bdy * cdx
        cof_b = ady * cdx - adx * cdy
        cof_c = adx * bdy - ady * bdx
        lifts = (adx * adx + ady * ady, bdx * bdx + bdy * bdy, cdx * cdx + cdy * cdy)
        return (cof_a, cof_b, cof_c), lifts

    def _below_lifted_plane(self, a, b, c, d):
        """True when lifted point d lies below the plane of lifted (a, b, c).

        Equivalent to: d is strictly inside the circumcircle of the CCW
        triangle (a, b, c). The float determinant is trusted outside its
        error bound; otherwise the sign is recomputed exactly. An exact zero
        falls through to the index-graded paraboloid perturbation: the
        lowest index among the four points decides.
        """
        x, y = self.x, self.y
        adx, ady = x[a] - x[d], y[a] - y[d]
        bdx, bdy = x[b] - x[d], y[b] - y[d]
        cdx, cdy = x[c] - x[d], y[c] - y[d]
        cof_a = bdx * cdy - bdy * cdx
        cof_b = ady * cdx - adx * cdy
        cof_c = adx * bdy - ady * bdx
        la = adx * adx + ady * ady
        lb = bdx * bdx + bdy * bdy
        lc = cdx * cdx + cdy * cdy
        det = la * cof_a + lb * cof_b + lc * cof_c
        bound = _FILTER * (
            la * (abs(bdx * cdy) + abs(bdy * cdx))
            + lb * (abs(ady * cdx) + abs(adx * cdy))
            + lc * (abs(adx * bdy) + abs(ady * bdx))
        )
        if det > bound:
            return True
        if det < -bound:
            return False
        cofs, lifts = self._exact_cofactors(a, b, c, d)
        exact = lifts[0] * cofs[0] + lifts[1] * cofs[1] + lifts[2] * cofs[2]
        if exact > 0:
            return True
        if exact < 0:
            return False
        # perturbation series: lower index => larger downward push
        for _, coef in sorted(
            (
                (a, -cofs[0]),
                (b, -cofs[1]),
                (c, -cofs[2]),
                (d, cofs[0] + cofs[1] + cofs[2]),
            )
        ):
            if coef > 0:
                return True
            if coef < 0:
                return False
        return False

    def _orient_sign(self, a, b, c):
        """Exact sign of the turn a->b->c: 1 left, -1 right, 0 collinear."""
        x, y = self.x, self.y
        t1 = (x[b] - x[a]) * (y[c] - y[a])
        t2 = (y[b] - y[a]) * (x[c] - x[a])
        det = t1 - t2
        bound = _FILTER * (abs(t1) + abs(t2))
        if det > bound:
            return 1
        if det < -bound:
            return -1
        e1 = (Fraction(x[b]) - Fraction(x[a])) * (Fraction(y[c]) - Fraction(y[a]))
        e2 = (Fraction(y[b]) - Fraction(y[a])) * (Fraction(x[c]) - Fraction(x[a]))
        if e1 > e2:
            return 1
        if e1 < e2:
            return -1
        return 0

    def _conflicts(self, t, p):
        a, b, c = self.tris[t]
        if c != self.inf:
            return self._below_lifted_plane(a, b, c, p)
        # unbounded face: conflict when p lies strictly on the open side of
        # the hull edge, or on the edge's line strictly between its endpoints
        # (the lifted point then sits below the chord of the lifted edge)
        o = self._orient_sign(a, b, p)
        if o != 0:
            return o > 0
        x, y = self.x, self.y
        dot = (
            (Fraction(x[a]) - Fraction(x[p])) * (Fraction(x[b]) - Fraction(x[p]))
            + (Fraction(y[a]) - Fraction(y[p])) * (Fraction(y[b]) - Fraction(y[p]))
        )
        return dot < 0

    def insert(self, p):
        m = self.count
        dx = self.ccx[:m] - self.x[p]
        dy = self.ccy[:m] - self.y[p]
        d2 = dx * dx + dy * dy
        coarse = self.alive[:m] & (d2 * (1.0 - 1e-12) <= self.cr2[:m] * (1.0 + 1e-12))
        bad = set()
        for t in np.nonzero(coarse)[0]:
            if self._conflicts(int(t), p):
                bad.add(int(t))
        if not bad:
            t = self._find_containing(p)
            if t is None:
                raise RuntimeError("insertion point lost by the lifted hull")
            bad.add(t)

        # safety net: with exact predicates the conflict cavity is already
        # star-shaped from p, so this loop should never absorb anything
        for _ in range(int(self.alive[: self.count].sum()) + 8):
            boundary = self._cavity_boundary(bad)
            fix = None
            for u, v in boundary:
                if u == self.inf or v == self.inf:
                    continue
                if self._orient_sign(u, v, p) <= 0:
                    fix = (u, v)
                    break
            if fix is None:
                break
            t = self._neighbor_across(fix, bad)
            if t is None:
                raise RuntimeError("degenerate cavity boundary could not be repaired")
            bad.add(t)
        else:
            raise RuntimeError("cavity repair did not converge")

        for t in bad:
            self.alive[t] = False
        for u, v in boundary:
            self._push(u, v, p)

    def _cavity_boundary(self, bad):
        directed = set()
        for t in sorted(bad):
            a, b, c = self.tris[t]
            directed.update(((a, b), (b, c), (c, a)))
        edges = []
        for t in sorted(bad):
            a, b, c = self.tris[t]
            for u, v in ((a, b), (b, c), (c, a)):
                if (v, u) not in directed:
                    edges.append((u, v))
        return edges

    def _neighbor_across(self, edge, bad):
        u, v = edge
        for t in range(self.count):
            if not self.alive[t] or t in bad:
                continue
            a, b, c = self.tris[t]
            if (v, u) in ((a, b), (b, c), (c, a)):
                return t
        return None

    def _find_containing(self, p):
        for t in range(self.count):
            if not self.alive[t]:
                continue
            a, b, c = self.tris[t]
            if c == self.inf:
                if self._orient_sign(a, b, p) >= 0:
                    return t
                continue
            if (
                self._orient_sign(a, b, p) >= 0
                and self._orient_sign(b, c, p) >= 0
                and self._orient_sign(c, a, p) >= 0
            ):
                return t
        return None

    def real_triangles(self):
        out = []
        for t in range(self.count):
            if not self.alive[t]:
                continue
            tri = self.tris[t]
            if tri[2] != self.inf:
                out.append(tri)
        return out


def _canonical_triple(tri):
    a, b, c = tri
    if a <= b and a <= c:
        return (a, b, c)
    if b <= a and b <= c:
        return (b, c, a)
    return (c, a, b)


def delaunay(points) -> Triangulation:
    """Delaunay triangulation of a planar point set.

    Exact duplicate points are silently removed and counted in the result.
    Raises CollinearInputError when fewer than three distinct points remain
    or all of them are collinear.
    """
    unique, dupes = _dedup(points)
    if len(unique) < 3:
        raise CollinearInputError(f"need 3 distinct points, got {len(unique)}")
    x, y = _normalize(unique)
    witness = _noncollinear_witness(x, y)
    if witness is None:
        raise CollinearInputError("all points are collinear")
    # a near-collinear triangle's circumcircle overflows to inf, which the
    # coarse prefilter reads as "may conflict"; exact predicates decide
    with np.errstate(over="ignore"):
        hull = _LiftedLowerHull(x, y, witness)
        started = set(witness)
        for p in range(len(unique)):
            if p not in started:
                hull.insert(p)
    triangles = sorted(_canonical_triple(t) for t in hull.real_triangles())
    return Triangulation(points=unique, triangles=triangles, duplicates_removed=dupes)


def convex_hull(points) -> Polygon:
    """Strictly convex hull, counterclockwise, starting at the lexicographic minimum.

    Collinear boundary points are dropped. The result depends only on the
    point set, not on input order.
    """
    unique, _ = _dedup(points)
    if len(unique) < 3:
        raise CollinearInputError(f"need 3 distinct points, got {len(unique)}")
    x, y = _normalize(unique)
    if _noncollinear_witness(x, y) is None:
        raise CollinearInputError("all points are collinear")

    order = sorted(range(len(unique)), key=lambda i: (x[i], y[i]))

    # collinear-within-band boundary points are dropped, so nearly straight
    # chains (grid edges after normalization rounding) do not mint vertices
    def turns_left(o, a, b):
        cross = (x[a] - x[o]) * (y[b] - y[o]) - (y[a] - y[o]) * (x[b] - x[o])
        return cross > _EPS

    lower = []
    for i in order:
        while len(lower) >= 2 and not turns_left(lower[-2], lower[-1], i):
            lower.pop()
        lower.append(i)
    upper = []
    for i in reversed(order):
        while len(upper) >= 2 and not turns_left(upper[-2], upper[-1], i):
            upper.pop()
        upper.append(i)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise CollinearInputError("hull degenerates to a segment")
    return Polygon(tuple(unique[i] for i in hull))


def _edge_frame(polygon):
    """Normalized vertex arrays plus the offsets for containment tests."""
    verts = np.asarray(polygon.vertices, dtype=float)
    x0, y0, x1, y1 = polygon.bounds()
    ext = max(x1 - x0, y1 - y0)
    if ext <= 0.0:
        ext = 1.0
    vx = (verts[:, 0] - x0) / ext
    vy = (verts[:, 1] - y0) / ext
    return vx, vy, x0, y0, ext


def point_in_polygon(point, polygon: Polygon) -> bool:
    """Whether a point lies inside a convex CCW polygon; the boundary counts.

    A point with a NaN or infinite coordinate lies outside.
    """
    return bool(polygon_contains_many(polygon, [point[0]], [point[1]])[0])


def polygon_contains_many(polygon: Polygon, xs, ys) -> np.ndarray:
    """point_in_polygon over parallel coordinate arrays."""
    vx, vy, x0, y0, ext = _edge_frame(polygon)
    px = (np.asarray(xs, dtype=float) - x0) / ext
    py = (np.asarray(ys, dtype=float) - y0) / ext
    inside = np.isfinite(px) & np.isfinite(py)
    n = len(vx)
    # an infinite coordinate can make a cross product 0 * inf or inf - inf;
    # its point is outside already
    with np.errstate(invalid="ignore"):
        for i in range(n):
            j = (i + 1) % n
            cross = (vx[j] - vx[i]) * (py - vy[i]) - (vy[j] - vy[i]) * (px - vx[i])
            inside &= cross >= -_EPS
    return inside
