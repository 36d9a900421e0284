"""Planar geometry: the convex hull that borders footprints, point-in-polygon,
and a Delaunay triangulation kept as a library function.

Works directly in (lat, lon) degree space; treating that plane as Euclidean
is a documented approximation that holds for footprint-scale regions away
from the poles and the antimeridian, and pattern.beam_footprint rejects
samples that reach a pole or span more than 180 degrees of longitude.

The Delaunay triangulation starts from a sweep in lexicographic order: the
leading collinear run is fanned to the first point off its line, and each
later point is joined to every hull edge it strictly sees. Lawson flips then
replace each edge whose opposite vertex lies inside the circumcircle of the
triangle across it, until none does. Lifting the points onto the paraboloid
z = x^2 + y^2 makes that in-circle test a lower-hull test, so every flip
lowers the lifted surface and the flips end at the lower convex hull.

Degeneracies are resolved deterministically. Co-circular ties are broken by
pushing the lifted point with the lowest index infinitesimally further down
the paraboloid, which makes the diagonal through the lowest-index vertex of
a co-circular set win; under this one perturbed test the triangulation is
unique, whatever order the flips run in. Orientation and in-circle signs
come from a floating filter backed by exact rational arithmetic: when the
float determinant is within its forward error bound the sign is recomputed
with Fractions, so the construction stays consistent even for point sets
that mix very different coordinate scales. Inputs are first scaled
uniformly to the unit square (one scale for both axes, so circles stay
circles); collinearity of the whole input and point-on-boundary checks use
an absolute 1e-12 tolerance in that normalized frame. Distinct inputs that
coincide after that scaling are one vertex, and the highest index among
them stands for it; the others appear in no triangle.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CollinearInputError
from .ioutil import real

_EPS = 1e-12  # witness / containment tolerance in normalized coordinates
_FILTER = 1e-13  # float determinant below FILTER * term magnitude goes exact


@dataclass(frozen=True)
class Polygon:
    """Simple polygon as an ordered vertex tuple; hulls are strictly convex CCW."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple((real(x, "polygon vertex"), real(y, "polygon vertex"))
                      for x, y in self.vertices)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        for i, v in enumerate(verts):
            if v == verts[i - 1]:
                raise ValueError("polygon has repeated consecutive vertices")
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
        key = (real(p[0], "point"), real(p[1], "point"))
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


def _orient(x, y, a, b, c):
    """Exact sign of the turn a->b->c: 1 left, -1 right, 0 collinear."""
    t1 = (x[b] - x[a]) * (y[c] - y[a])
    t2 = (y[b] - y[a]) * (x[c] - x[a])
    det = t1 - t2
    bound = _FILTER * (abs(t1) + abs(t2))
    if det > bound:
        return 1
    if det < -bound:
        return -1
    from fractions import Fraction  # loads decimal; only near-degenerate input needs it

    e1 = (Fraction(x[b]) - Fraction(x[a])) * (Fraction(y[c]) - Fraction(y[a]))
    e2 = (Fraction(y[b]) - Fraction(y[a])) * (Fraction(x[c]) - Fraction(x[a]))
    if e1 > e2:
        return 1
    if e1 < e2:
        return -1
    return 0


def _incircle(x, y, a, b, c, d):
    """True when d lies strictly inside the circumcircle of CCW (a, b, c).

    Equivalently, lifted d lies below the plane of lifted (a, b, c). The
    float determinant is trusted outside its error bound; otherwise the sign
    is recomputed exactly. An exact zero falls through to the index-graded
    paraboloid perturbation: the lowest index among the four points decides.
    """
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
    from fractions import Fraction

    xd, yd = Fraction(x[d]), Fraction(y[d])
    adx, ady = Fraction(x[a]) - xd, Fraction(y[a]) - yd
    bdx, bdy = Fraction(x[b]) - xd, Fraction(y[b]) - yd
    cdx, cdy = Fraction(x[c]) - xd, Fraction(y[c]) - yd
    cof_a = bdx * cdy - bdy * cdx
    cof_b = ady * cdx - adx * cdy
    cof_c = adx * bdy - ady * bdx
    exact = (
        (adx * adx + ady * ady) * cof_a
        + (bdx * bdx + bdy * bdy) * cof_b
        + (cdx * cdx + cdy * cdy) * cof_c
    )
    if exact > 0:
        return True
    if exact < 0:
        return False
    # perturbation series: lower index => larger downward push
    for _, coef in sorted(
        ((a, -cof_a), (b, -cof_b), (c, -cof_c), (d, cof_a + cof_b + cof_c))
    ):
        if coef > 0:
            return True
        if coef < 0:
            return False
    return False


def _sweep(x, y, order):
    """CCW triangles covering the hull of the points, given in lexicographic order.

    The leading collinear run is fanned to the first point off its line;
    every later point is joined to the hull edges it strictly sees, which
    lie at the right ends of the lower and the upper chain.
    """
    k = 2
    while _orient(x, y, order[0], order[1], order[k]) == 0:
        k += 1
    run, apex = order[:k], order[k]
    if _orient(x, y, run[0], run[-1], apex) > 0:
        tris = [(u, v, apex) for u, v in zip(run, run[1:])]
        lower, upper = run + [apex], [run[0], apex]
    else:
        tris = [(v, u, apex) for u, v in zip(run, run[1:])]
        lower, upper = [run[0], apex], run + [apex]
    for p in order[k + 1 :]:
        while len(lower) >= 2 and _orient(x, y, lower[-2], lower[-1], p) < 0:
            tris.append((lower[-1], lower[-2], p))
            lower.pop()
        lower.append(p)
        while len(upper) >= 2 and _orient(x, y, upper[-1], upper[-2], p) < 0:
            tris.append((upper[-2], upper[-1], p))
            upper.pop()
        upper.append(p)
    return tris


def _flip(x, y, tris):
    """Lawson edge flips until every interior edge passes the in-circle test."""
    apex = {}  # directed edge -> third vertex of its CCW triangle
    for a, b, c in tris:
        apex[a, b], apex[b, c], apex[c, a] = c, a, b
    stack = [(a, b) for a, b in apex if a < b]  # each edge once; hull edges never flip
    while stack:
        a, b = stack.pop()
        c, d = apex.get((a, b)), apex.get((b, a))
        if c is None or d is None or not _incircle(x, y, a, b, c, d):
            continue
        # (a, b, c) and (b, a, d) become (a, d, c) and (d, b, c)
        del apex[a, b], apex[b, a]
        apex[a, d], apex[d, c], apex[c, a] = c, a, d
        apex[d, b], apex[b, c], apex[c, d] = c, d, b
        stack += [(a, d), (d, b), (b, c), (c, a)]
    return {_canonical_triple((a, b, c)) for (a, b), c in apex.items()}


def _canonical_triple(tri):
    a, b, c = tri
    if a <= b and a <= c:
        return (a, b, c)
    if b <= a and b <= c:
        return (b, c, a)
    return (c, a, b)


def delaunay(points) -> Triangulation:
    """Delaunay triangulation of a planar point set.

    Exact duplicate points are silently removed and counted in the result;
    distinct points that coincide after normalization are kept in points,
    but only the highest index among them is used by the triangles. Raises
    CollinearInputError when fewer than three distinct points remain or all
    of them are collinear.
    """
    unique, dupes = _dedup(points)
    if len(unique) < 3:
        raise CollinearInputError(f"need 3 distinct points, got {len(unique)}")
    x, y = _normalize(unique)
    if _noncollinear_witness(x, y) is None:
        raise CollinearInputError("all points are collinear")
    x, y = x.tolist(), y.tolist()
    last = {xy: i for i, xy in enumerate(zip(x, y))}
    order = sorted(last.values(), key=lambda i: (x[i], y[i]))
    triangles = sorted(_flip(x, y, _sweep(x, y, order)))
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
