"""The Fraction incidence builders, the reference the tests hold the integer
ones in `geomcover.geometry` against: each curve fitted by rational formulas
and every incidence decided by rational substitution. `curve_masks`,
`line_masks3` and `plane_masks3` must agree with the `fit_pairs` of
`curve_fits`, `line_fits3` and `plane_fits3` object for object, mask for mask
and in order, and `curve_completion` with `curve_through` on fewer than d
points.

The Fraction objects and flats come first: the canonical constructors
(`line2_curve`, `circle2_curve`, `vparabola2_curve`, `plane3_curve`),
`curve_through` and `covering_curve` over the integer fits, and the flats of
R^3 in reduced-echelon form (`make_flat`, `line_through`, `affine_hull`,
`plane_through`), with `flat_contains`, the exact containment of a point or
flat in a flat or plane, and `_collinear3`.

`reference_replacement_point` is the plane kernel's line repair that tests
each parameter t = 0, 1, 2, ... against every pair of current points, in
Fractions; the integer `geomcover.kernel._replacement_point` must return the
same point.

`candidate_cover_sets` is the Fraction enumerator of the oracle's candidate
list: every 1- to 3-tuple of the ground (points, then R^3 flats for plane3)
completed to an object through its affine hull or `curve_through`, and every
ground element tested against every object. `geomcover.geometry`'s
`candidate_cover_sets` must agree with it on grounds of points, and the
candidate tables and extraction reference read it for mixed grounds.

`extend_lines` is the plane search's Fraction extension of ripe lines, over
`Flat`s and points, with `plane_through_line_point` and
`canonical_plane_through_line`; `geomcover.plane_branch.extend_lines`, on
layer indexes, must yield the same planes in the same order."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from geomcover.geometry import (
    _LIFTS,
    Curve,
    FamilySpec,
    Fits,
    Flat,
    GeometryError,
    Plane3,
    PlaneLayer,
    Point,
    _completion,
    _frac,
    _maximal_sets,
    _scaled,
    curve_covers,
    curve_fits,
    plane_covers,
)


def fit_pairs(fits: Fits) -> list[tuple[object, int]]:
    """(object, mask) of every object of `fits`, each built."""
    return [(fits.obj(i), m) for i, m in enumerate(fits.masks)]


def layer_line(layer: PlaneLayer, l: int) -> Flat:
    """The `Flat` of the line with index l of a `PlaneLayer`."""
    return layer._lines.obj(l)


# ---------------------------------------------------------------------------
# Fraction objects and flats


def line2_curve(a, b, c) -> Curve:
    a, b, c = _frac(a), _frac(b), _frac(c)
    if a == 0 and b == 0:
        raise GeometryError("line needs (a, b) != (0, 0)")
    lead = a if a != 0 else b
    return Curve("line2", (a / lead, b / lead, c / lead))


def circle2_curve(cx, cy, r2) -> Curve:
    cx, cy, r2 = _frac(cx), _frac(cy), _frac(r2)
    if r2 <= 0:
        raise GeometryError("circle needs r2 > 0")
    return Curve("circle2", (cx, cy, r2))


def vparabola2_curve(a, b, c) -> Curve:
    a, b, c = _frac(a), _frac(b), _frac(c)
    if a == 0:
        raise GeometryError("vertical parabola needs a != 0")
    return Curve("vparabola2", (a, b, c))


def plane3_curve(a, b, c, e) -> Plane3:
    a, b, c, e = _frac(a), _frac(b), _frac(c), _frac(e)
    if a == 0 and b == 0 and c == 0:
        raise GeometryError("plane needs (a, b, c) != (0, 0, 0)")
    lead = next(x for x in (a, b, c) if x != 0)
    return Plane3((a / lead, b / lead, c / lead, e / lead))


def curve_through(family: FamilySpec, points: Sequence[Point]) -> tuple[Curve, ...]:
    """All family curves through the given points; a canonical completion when
    fewer than d points are given (then only existence is meaningful).

    Returns the empty tuple when no family curve exists, e.g. a vertical
    parabola through two points sharing an x-coordinate.
    """
    if family.kind == "plane3":
        raise GeometryError("use plane_through for plane3")
    if family.kind not in _LIFTS:
        raise GeometryError("unknown family %r" % family.kind)
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise GeometryError("duplicate points")
    if any(p.dim != 2 for p in pts):
        raise GeometryError("curve fitting needs 2D points")
    if not pts or len(pts) > family.s + 1:
        raise GeometryError("curve_through takes 1..s+1 points, got %d" % len(pts))

    if len(pts) == family.d:
        return tuple(curve for curve, _ in fit_pairs(curve_fits(pts, family)))

    scale, rows = _scaled(pts, 2)
    row = _completion(family.kind, scale, rows)
    return () if row is None else (Fits(family.kind, scale, [row], [0]).obj(0),)


def covering_curve(family: FamilySpec, points: Sequence[Point]) -> Optional[Curve]:
    """Some family curve through every given point, or None if none exists."""
    pts = tuple(points)
    if not pts:
        return None
    cap = family.s + 1
    if len(pts) <= cap:
        fits = curve_through(family, pts)
        return fits[0] if fits else None
    fits = curve_through(family, pts[:cap])
    if not fits:
        return None
    c = fits[0]
    return c if all(curve_covers(c, p) for p in pts[cap:]) else None


def _rref(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    work = [list(r) for r in rows if any(x != 0 for x in r)]
    pivots = []
    r = 0
    for col in range(3):
        piv = None
        for i in range(r, len(work)):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][col]
        work[r] = [x / lead for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                g = work[i][col]
                work[i] = [x - g * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def make_flat(anchor: Sequence, directions: Sequence[Sequence]) -> Flat:
    anchor = tuple(_frac(x) for x in anchor)
    if len(anchor) != 3:
        raise GeometryError("flats live in R^3")
    basis, pivots = _rref([[_frac(x) for x in d] for d in directions])
    base = list(anchor)
    for row, col in zip(basis, pivots):
        f = base[col]
        if f != 0:
            base = [x - f * y for x, y in zip(base, row)]
    return Flat(tuple(base), basis)


def line_through(p: Point, q: Point) -> Flat:
    if p == q:
        raise GeometryError("line needs two distinct points")
    if p.dim != 3 or q.dim != 3:
        raise GeometryError("line_through is for R^3 points")
    return make_flat(p.coords, [[b - a for a, b in zip(p.coords, q.coords)]])


def affine_hull(objs: Sequence[Union[Point, Flat]]) -> Flat:
    """Smallest flat containing every input point/flat (dim 3 = full space)."""
    if not objs:
        raise GeometryError("affine_hull of nothing")
    first = objs[0]
    anchor = first.coords if isinstance(first, Point) else first.base
    dirs = []
    for o in objs:
        if isinstance(o, Point):
            if o.dim != 3:
                raise GeometryError("affine_hull is for R^3")
            dirs.append([b - a for a, b in zip(anchor, o.coords)])
        else:
            dirs.append([b - a for a, b in zip(anchor, o.base)])
            dirs.extend(list(d) for d in o.basis)
    return make_flat(anchor, dirs)


def plane_through(p: Point, q: Point, r: Point) -> Plane3:
    if len({p, q, r}) != 3:
        raise GeometryError("plane needs three distinct points")
    u = [b - a for a, b in zip(p.coords, q.coords)]
    v = [b - a for a, b in zip(p.coords, r.coords)]
    n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    if all(x == 0 for x in n):
        raise GeometryError("collinear points do not determine a plane")
    e = -(n[0] * p[0] + n[1] * p[1] + n[2] * p[2])
    return plane3_curve(n[0], n[1], n[2], e)


def _reduce_by_basis(v: list[Fraction], basis) -> list[Fraction]:
    for row in basis:
        col = next(i for i, x in enumerate(row) if x != 0)
        f = v[col]
        if f != 0:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def flat_contains(outer: Union[Flat, Plane3], inner: Union[Flat, Point]) -> bool:
    """Exact containment of a point or flat inside a flat or plane."""
    if isinstance(outer, Plane3):
        a, b, c, e = outer.coeffs
        if isinstance(inner, Point):
            return plane_covers(outer, inner)
        base_ok = a * inner.base[0] + b * inner.base[1] + c * inner.base[2] + e == 0
        return base_ok and all(a * d[0] + b * d[1] + c * d[2] == 0 for d in inner.basis)
    if isinstance(inner, Point):
        v = _reduce_by_basis([x - y for x, y in zip(inner.coords, outer.base)], outer.basis)
        return all(x == 0 for x in v)
    if not flat_contains(outer, Point(inner.base)):
        return False
    for d in inner.basis:
        if any(x != 0 for x in _reduce_by_basis(list(d), outer.basis)):
            return False
    return True


def _collinear3(a: Point, b: Point, c: Point) -> bool:
    u = [y - x for x, y in zip(a.coords, b.coords)]
    v = [y - x for x, y in zip(a.coords, c.coords)]
    return (u[1] * v[2] - u[2] * v[1] == 0
            and u[2] * v[0] - u[0] * v[2] == 0
            and u[0] * v[1] - u[1] * v[0] == 0)


def reference_replacement_point(line: Flat, pts: Sequence[Point]) -> Point:
    """A point on `line`, off every other line spanned by two current points:
    the one at the least nonnegative integer parameter that passes a test
    of the candidate against every pair of current points, in Fractions."""
    base, direction = line.base, line.basis[0]

    def good(t: int) -> Optional[Point]:
        cand = Point(tuple(b + t * d for b, d in zip(base, direction)))
        if cand in pts:
            return None
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if _collinear3(cand, pts[i], pts[j]):
                    if not (flat_contains(line, pts[i]) and flat_contains(line, pts[j])):
                        return None
        return cand

    t = 0
    while (cand := good(t)) is None:
        t += 1
    return cand


# ---------------------------------------------------------------------------
# Fraction incidence builders


def _line_through_two(p: Point, q: Point) -> Curve:
    (x1, y1), (x2, y2) = p.coords, q.coords
    # normal = rotated direction
    return line2_curve(y2 - y1, x1 - x2, -(y2 - y1) * x1 - (x1 - x2) * y1)


def _circle_through_three(p: Point, q: Point, r: Point) -> Optional[Curve]:
    # circumcenter from the two perpendicular-bisector equations; collinear -> None
    (x1, y1), (x2, y2), (x3, y3) = p.coords, q.coords, r.coords
    a11, a12 = 2 * (x2 - x1), 2 * (y2 - y1)
    a21, a22 = 2 * (x3 - x1), 2 * (y3 - y1)
    b1 = x2 * x2 + y2 * y2 - x1 * x1 - y1 * y1
    b2 = x3 * x3 + y3 * y3 - x1 * x1 - y1 * y1
    det = a11 * a22 - a12 * a21
    if det == 0:
        return None
    cx = (b1 * a22 - b2 * a12) / det
    cy = (a11 * b2 - a21 * b1) / det
    r2 = (x1 - cx) ** 2 + (y1 - cy) ** 2
    return circle2_curve(cx, cy, r2)


def _vparabola_through_three(p: Point, q: Point, r: Point) -> Optional[Curve]:
    (x1, y1), (x2, y2), (x3, y3) = p.coords, q.coords, r.coords
    if x1 == x2 or x1 == x3 or x2 == x3:
        return None
    # Lagrange interpolation; reject a == 0 (that would be a line, not a parabola)
    a = y1 / ((x1 - x2) * (x1 - x3)) + y2 / ((x2 - x1) * (x2 - x3)) + y3 / ((x3 - x1) * (x3 - x2))
    if a == 0:
        return None
    b = (y2 - y1) / (x2 - x1) - a * (x1 + x2)
    c = y1 - a * x1 * x1 - b * x1
    return vparabola2_curve(a, b, c)


def curve_fit(family: FamilySpec, pts: Sequence[Point]) -> tuple[Curve, ...]:
    """The family curve through d distinct 2D points, as a 0- or 1-tuple."""
    if family.kind == "line2":
        return (_line_through_two(*pts),)
    c = _circle_through_three(*pts) if family.kind == "circle2" else _vparabola_through_three(*pts)
    return (c,) if c is not None else ()


def curve_completion(family: FamilySpec, pts: Sequence[Point]) -> tuple[Curve, ...]:
    """The canonical completion through fewer than d distinct 2D points, as a
    0- or 1-tuple: `curve_through` on fewer than d points."""
    if family.kind == "line2":
        (x, y) = pts[0].coords
        return (line2_curve(0, 1, -y),)  # horizontal completion
    if family.kind == "circle2":
        if len(pts) == 1:
            (x, y) = pts[0].coords
            return (circle2_curve(x + 1, y, 1),)
        (x1, y1), (x2, y2) = pts[0].coords, pts[1].coords
        cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
        r2 = (x1 - cx) ** 2 + (y1 - cy) ** 2
        return (circle2_curve(cx, cy, r2),)  # diameter circle
    # vparabola2
    if len(pts) == 1:
        (x, y) = pts[0].coords
        return (vparabola2_curve(1, 0, y - x * x),)
    (x1, y1), (x2, y2) = pts[0].coords, pts[1].coords
    if x1 == x2:
        return ()  # a function graph cannot repeat an x
    # fix a = 1, solve b, c
    b = (y2 - y1 - (x2 * x2 - x1 * x1)) / (x2 - x1)
    c = y1 - x1 * x1 - b * x1
    return (vparabola2_curve(1, b, c),)


def curve_masks(points: Sequence[Point], family: FamilySpec) -> list[tuple[Curve, int]]:
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise GeometryError("duplicate points")  # a skipped tuple would hide them
    n, size = len(pts), family.d
    found: list[tuple[Curve, int]] = []
    on_found: dict[tuple[int, ...], int] = {}  # tuple head -> points on a found curve through it
    for combo in itertools.combinations(range(n), size):
        head, last = combo[:-1], combo[-1]
        if on_found.get(head, 0) >> last & 1:
            continue
        for curve in curve_fit(family, [pts[i] for i in combo]):  # none or one
            mask = sum(1 << i for i in combo)
            for t in range(last + 1, n):
                if curve_covers(curve, pts[t]):
                    mask |= 1 << t
            found.append((curve, mask))
            if mask.bit_count() > size:
                members = [i for i in range(n) if mask >> i & 1]
                for sub in itertools.combinations(members, size - 1):
                    on_found[sub] = on_found.get(sub, 0) | mask
    return found


def line_masks3(points: Sequence[Point]) -> list[tuple[Flat, int]]:
    masks: dict[Flat, int] = {}
    for (i, p), (j, q) in itertools.combinations(enumerate(points), 2):
        line = line_through(p, q)
        masks[line] = masks.get(line, 0) | 1 << i | 1 << j
    return sorted(masks.items())


def plane_masks3(points: Sequence[Point]) -> list[tuple[Plane3, int]]:
    masks: dict[Plane3, int] = {}
    for (i, p), (j, q), (l, r) in itertools.combinations(enumerate(points), 3):
        try:
            plane = plane_through(p, q, r)
        except GeometryError:
            continue
        masks[plane] = masks.get(plane, 0) | 1 << i | 1 << j | 1 << l
    return sorted(masks.items())


def plane3_from_flat(f: Flat) -> Plane3:
    if f.dim != 2:
        raise GeometryError("expected a 2-flat")
    u, v = f.basis
    n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    e = -(n[0] * f.base[0] + n[1] * f.base[1] + n[2] * f.base[2])
    return plane3_curve(n[0], n[1], n[2], e)


def _sort_key(obj) -> tuple:
    if isinstance(obj, Curve):
        return (0, obj.kind, obj.coeffs)
    if isinstance(obj, Plane3):
        return (1, "plane3", obj.coeffs)
    return (2, "flat%d" % obj.dim, obj.base, obj.basis)


def candidate_cover_sets(points: Sequence[Point], family: FamilySpec,
                         flats: Sequence[Flat] = ()) -> list[tuple[object, int]]:
    """(object, covered-mask) pairs such that every single-object-coverable
    subset of the ground set is contained in some listed mask.

    The ground set is points followed by flats (flats only for plane3).
    Dominated masks are pruned; ties keep the canonically smallest object.
    """
    pts = tuple(points)
    flats = tuple(flats)
    if flats and family.kind != "plane3":
        raise GeometryError("flats in the ground set need the plane3 family")
    objs: dict[object, None] = {}

    if family.kind == "plane3":
        ground: list = list(pts) + list(flats)
        for size in (1, 2, 3):
            for combo in itertools.combinations(ground, size):
                hull = affine_hull(combo)
                if hull.dim > 2:
                    continue
                objs[_complete_plane(hull)] = None
        n = len(ground)
        raw = []
        for obj in objs:
            mask = 0
            for i, el in enumerate(ground):
                inside = plane_covers(obj, el) if isinstance(el, Point) else flat_contains(obj, el)
                if inside:
                    mask |= 1 << i
            if mask:
                raw.append((obj, mask))
    else:
        for size in range(1, family.d + 1):
            for combo in itertools.combinations(pts, size):
                if size == family.d:
                    for c in curve_through(family, combo):
                        objs[c] = None
                else:
                    c = covering_curve(family, combo)
                    if c is not None:
                        objs[c] = None
        raw = []
        for obj in objs:
            mask = 0
            for i, p in enumerate(pts):
                if curve_covers(obj, p):
                    mask |= 1 << i
            if mask:
                raw.append((obj, mask))

    raw.sort(key=lambda om: (-om[1].bit_count(), _sort_key(om[0])))
    return _maximal_sets(raw)


def _complete_plane(hull: Flat) -> Plane3:
    """The plane equal to a 2-flat, or a canonical plane containing a smaller
    flat."""
    if hull.dim == 2:
        return plane3_from_flat(hull)
    if hull.dim == 1:
        return canonical_plane_through_line(hull)
    # a single point: horizontal plane through it
    return plane3_curve(0, 0, 1, -hull.base[2])


def plane_through_line_point(line: Flat, p: Point) -> Plane3:
    if line.dim != 1:
        raise GeometryError("expected a 1-flat")
    if flat_contains(line, p):
        raise GeometryError("point lies on the line")
    u = line.basis[0]
    v = [b - a for a, b in zip(line.base, p.coords)]
    n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    e = -(n[0] * line.base[0] + n[1] * line.base[1] + n[2] * line.base[2])
    return plane3_curve(n[0], n[1], n[2], e)


def canonical_plane_through_line(line: Flat, avoid: Sequence[Flat] = ()) -> Plane3:
    """A deterministic plane containing `line` and none of the `avoid` lines."""
    u = line.basis[0]
    # two independent normals orthogonal to u
    cands = []
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        n = (u[1] * _frac(e[2]) - u[2] * _frac(e[1]),
             u[2] * _frac(e[0]) - u[0] * _frac(e[2]),
             u[0] * _frac(e[1]) - u[1] * _frac(e[0]))
        if any(x != 0 for x in n):
            cands.append(n)
    n = n1 = cands[0]
    t = 0
    while True:
        e = -(n[0] * line.base[0] + n[1] * line.base[1] + n[2] * line.base[2])
        plane = plane3_curve(n[0], n[1], n[2], e)
        if all(not flat_contains(plane, other) for other in avoid):
            return plane
        if t == 0:  # the second normal is needed only once n1's plane fails
            n2 = next(n for n in cands[1:] if len(_rref([n1, n])[0]) == 2)
        t += 1
        n = tuple(a + t * b for a, b in zip(n1, n2))


def extend_lines(lines: Sequence[Flat], points: Sequence[Point],
                 avoid: Sequence[Flat] = ()) -> Iterator[tuple[Plane3, ...]]:
    """All ways of extending each line into a plane through it and a current
    point (deduplicated); a canonical fallback plane through the line stands
    in when no admissible extension through a point exists. Planes covering a
    line from `avoid` (or another input line) are filtered out."""
    if not lines:
        raise ValueError("no lines to extend")
    option_lists = []
    for i, line in enumerate(lines):
        others = [l for j, l in enumerate(lines) if j != i] + list(avoid)
        opts: list[Plane3] = []
        for p in points:
            if flat_contains(line, p):
                continue
            h = plane_through_line_point(line, p)
            if h in opts:
                continue
            if any(flat_contains(h, other) for other in others):
                continue
            opts.append(h)
        if not opts:
            opts = [canonical_plane_through_line(line, avoid=others)]
        option_lists.append(opts)
    for combo in itertools.product(*option_lists):
        if len(set(combo)) == len(combo):
            yield combo
