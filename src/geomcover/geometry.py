"""Exact rational geometry: points, plane curves, 3D planes and 3D lines.

Every incidence is decided exactly; there is no floating point and no
tolerance tuning anywhere in the solver stack. The candidate builders
(`curve_fits`, `line_fits3`, `plane_fits3`) scale each point set once to
integer coordinates, by the lcm of its coordinate denominators, and decide
each incidence with an integer test; lines, circles, vertical parabolas and
planes are closed under uniform scaling, so no incidence changes. They keep
each object as the integer row it was fitted from (`Fits`) and order the
objects by exact integer keys. Only an object that leaves the solver is built
in its canonical fractions.Fraction coefficient form, in which two objects
are geometrically equal iff their dataclasses compare equal. A 3D line is
such an object (`Flat`); the plane kernel's line repair reads its base and
direction and scales them with the points, so no solver path decides an
incidence on Fractions. Only the independent cover checker (`covers`,
`check_cover`) substitutes points into built curves and planes.

Supported curve families (kind, degrees of freedom d, multiplicity-type s):

    line2       ax + by + c = 0, first nonzero of (a, b) scaled to 1   (2, 1)
    circle2     (x - cx)^2 + (y - cy)^2 = r2, r2 > 0                   (3, 2)
    vparabola2  y = ax^2 + bx + c with a != 0                          (3, 2)
    plane3      ax + by + cz + e = 0, first nonzero of (a, b, c) = 1

In each 2D family, two distinct curves meet in at most s points and at most
one family member passes through any s+1 distinct points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union


class GeometryError(ValueError):
    """Degenerate or dimensionally invalid geometric input."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True, order=True)
class Point:
    coords: tuple[Fraction, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __repr__(self) -> str:
        return "pt(%s)" % ", ".join(str(c) for c in self.coords)


def pt(*coords) -> Point:
    """Build a Point from ints, strings or Fractions."""
    if len(coords) not in (2, 3):
        raise GeometryError("points live in dimension 2 or 3, got %d coords" % len(coords))
    return Point(tuple(_frac(c) for c in coords))


# ---------------------------------------------------------------------------
# curve families


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    d: int
    s: Optional[int]  # None for plane3: the pairwise bound there depends on the budget

    @property
    def ambient_dim(self) -> int:
        return 3 if self.kind == "plane3" else 2


LINE2 = FamilySpec("line2", 2, 1)
CIRCLE2 = FamilySpec("circle2", 3, 2)
VPARABOLA2 = FamilySpec("vparabola2", 3, 2)
PLANE3 = FamilySpec("plane3", 3, None)

FAMILIES = {f.kind: f for f in (LINE2, CIRCLE2, VPARABOLA2, PLANE3)}


def family_by_tag(tag: str) -> FamilySpec:
    try:
        return FAMILIES[tag]
    except KeyError:
        raise GeometryError("unknown family tag %r" % tag) from None


@dataclass(frozen=True, order=True)
class Curve:
    kind: str
    coeffs: tuple[Fraction, ...]

    def __repr__(self) -> str:
        return "Curve(%s: %s)" % (self.kind, ", ".join(str(c) for c in self.coeffs))


@dataclass(frozen=True, order=True)
class Plane3:
    coeffs: tuple[Fraction, ...]  # (a, b, c, e) for ax + by + cz + e = 0

    def __repr__(self) -> str:
        return "Plane3(%s)" % ", ".join(str(c) for c in self.coeffs)


# ---------------------------------------------------------------------------
# membership predicates


def curve_covers(curve: Curve, p: Point) -> bool:
    """Exact membership test by rational substitution."""
    if p.dim != 2:
        raise GeometryError("2D curve against a %dD point" % p.dim)
    x, y = p.coords
    a, b, c = curve.coeffs
    if curve.kind == "line2":
        return a * x + b * y + c == 0
    if curve.kind == "circle2":
        return (x - a) ** 2 + (y - b) ** 2 == c
    if curve.kind == "vparabola2":
        return y == a * x * x + b * x + c
    raise GeometryError("unknown curve kind %r" % curve.kind)


def plane_covers(plane: Plane3, p: Point) -> bool:
    if p.dim != 3:
        raise GeometryError("plane against a %dD point" % p.dim)
    a, b, c, e = plane.coeffs
    x, y, z = p.coords
    return a * x + b * y + c * z + e == 0


def covers(obj, p: Point) -> bool:
    """Membership of a point on a covering object, a Curve or a Plane3."""
    if isinstance(obj, Curve):
        return curve_covers(obj, p)
    if isinstance(obj, Plane3):
        return plane_covers(obj, p)
    raise GeometryError("cannot test coverage against %r" % (obj,))


# ---------------------------------------------------------------------------
# integer incidence
#
# Each family is a hyperplane over a lift of the points: a 2D point (x, y)
# lifts to (x, y, 0) for line2, (x^2 + y^2, x, y) for circle2 and
# (x^2, x, y) for vparabola2, and an R^3 point is its own lift for plane3.
# The object through d lifted points has as coefficients (a, b, c, e) the
# cofactors of their matrix with a column of ones appended, and a point is on
# it iff a*u + b*v + c*w + e = 0 at its lift (u, v, w). Over coordinates
# scaled to integers these are integer tests; a Fraction is built only for an
# object that is returned. A 3D line is kept as one of its points and its
# direction.

_LIFTS = {
    "line2": lambda x, y: (x, y, 0),
    "circle2": lambda x, y: (x * x + y * y, x, y),
    "vparabola2": lambda x, y: (x * x, x, y),
}


def _scaled(points: Sequence[Point], dim: int) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm L of the points' coordinate denominators and the points times L."""
    points = tuple(points)
    for p in points:
        if p.dim != dim:
            raise GeometryError("expected %dD points, got a %dD point" % (dim, p.dim))
    scale = math.lcm(*(c.denominator for p in points for c in p.coords))
    return scale, [tuple(c.numerator * (scale // c.denominator) for c in p.coords) for p in points]


def _bits(mask: int) -> list[int]:
    """The set bits of `mask`, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _hyperplane3(p, q, r) -> tuple[int, int, int, int]:
    """(a, b, c, e) with a*u + b*v + c*w + e = 0 at p, q and r: the normal
    (q - p) x (r - p) and its offset, all zero when p, q, r are collinear."""
    u0, u1, u2 = q[0] - p[0], q[1] - p[1], q[2] - p[2]
    v0, v1, v2 = r[0] - p[0], r[1] - p[1], r[2] - p[2]
    a, b, c = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
    return a, b, c, -(a * p[0] + b * p[1] + c * p[2])


def _fit(kind: str, lifted: Sequence[tuple[int, int, int]],
         combo: Sequence[int]) -> Optional[tuple[int, int, int, int]]:
    """The coefficients of the hyperplane through the lifted points `combo`
    (d distinct points): those of the family curve through them, except that
    a collinear triple has no x^2 + y^2 (circle2) or x^2 (vparabola2) term,
    so its first coefficient is 0 and no family curve passes through it.
    None for a vparabola2 triple with a repeated x (it has no y term), which
    lies on no curve and on no non-vertical line."""
    if kind == "line2":
        (x1, y1, _), (x2, y2, _) = lifted[combo[0]], lifted[combo[1]]
        a, b = y2 - y1, x1 - x2
        return a, b, 0, -(a * x1 + b * y1)
    coef = _hyperplane3(lifted[combo[0]], lifted[combo[1]], lifted[combo[2]])
    if kind == "vparabola2" and coef[2] == 0:
        return None
    return coef


def _quotients(kind: str, row, scale: int) -> tuple[tuple[int, int], ...]:
    """The canonical coefficients of the object of `kind` with integer row
    `row` over points scaled by `scale`, each as a quotient (p, q) of
    integers: a curve's or plane's lifted coefficients (a, b, c, e), or a 3D
    line's point and direction ("line3", a `Flat`'s base, then basis)."""
    if kind == "line3":
        p, d = row
        # the direction over its first nonzero entry, the point moved along
        # it to 0 in that coordinate
        lead, at = next((dk, pk) for dk, pk in zip(d, p) if dk)
        return (tuple((pk * lead - at * dk, lead * scale) for pk, dk in zip(p, d))
                + tuple((dk, lead) for dk in d))
    a, b, c, e = row
    if kind == "line2":
        lead = a or b
        return (a, lead), (b, lead), (e, lead * scale)
    if kind == "circle2":
        den = 2 * a * scale  # centre (-b, -c) / den, squared radius over den^2
        return (-b, den), (-c, den), (b * b + c * c - 4 * a * e, den * den)
    if kind == "vparabola2":
        return (-a * scale, c), (-b, c), (-e, c * scale)
    lead = a or b or c  # plane3
    return (a, lead), (b, lead), (c, lead), (e, lead * scale)


class Fits:
    """Objects of one kind fitted over one point set, each as the integer row
    it was fitted from (`rows[i]`) and the mask of the points on it
    (`masks[i]`, point i is bit i). `obj(i)` builds the i-th object.
    `scaled` holds the points the rows were fitted over, times `scale`, when
    the builder keeps them (`curve_fits` does), and `lines` the masks of the
    lines through three or more of them when the builder lists them
    (`curve_fits` does for circle2 and vparabola2).

    `keys()` orders the objects exactly as their dataclasses compare, without
    building them. Each canonical coefficient is a quotient p/q from the row
    (`_quotients`). Two distinct quotients of the list differ by at least
    1/Q^2, for Q the largest |q| in it, so with M = Q^2, floor(p*M/q) is
    order-preserving and equal only for equal quotients. (Python's // floors
    the exact quotient whatever the sign of q, as if q were made positive.)"""

    def __init__(self, kind: str, scale: int, rows: list, masks: list[int],
                 scaled: Sequence[tuple[int, ...]] = (), lines: Sequence[int] = ()):
        self.kind, self.scale, self.rows, self.masks = kind, scale, rows, masks
        self.scaled, self.lines = scaled, lines
        self._keys: Optional[list[tuple[int, ...]]] = None

    def obj(self, i: int):
        coeffs = tuple(Fraction(p, q) for p, q in _quotients(self.kind, self.rows[i], self.scale))
        if self.kind == "plane3":
            return Plane3(coeffs)
        if self.kind == "line3":
            return Flat(coeffs[:3], (coeffs[3:],))
        return Curve(self.kind, coeffs)

    def keys(self) -> list[tuple[int, ...]]:
        if self._keys is None:
            kind, scale = self.kind, self.scale
            quots = [_quotients(kind, row, scale) for row in self.rows]
            big = max((abs(q) for qs in quots for _, q in qs), default=1) ** 2
            self._keys = [tuple([p * big // q for p, q in qs]) for qs in quots]
        return self._keys

    def order(self, among: Optional[Sequence[int]] = None) -> list[int]:
        """The indexes of the objects, or of those `among`, in canonical
        order. Only the rows `among` are keyed."""
        if among is None:
            keys = self.keys()
            return sorted(range(len(keys)), key=keys.__getitem__)
        keys = Fits(self.kind, self.scale, [self.rows[i] for i in among], []).keys()
        return [among[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]

    def in_order(self) -> "Fits":
        """The same objects, listed in canonical order."""
        order = self.order()
        out = Fits(self.kind, self.scale, [self.rows[i] for i in order],
                   [self.masks[i] for i in order], self.scaled)
        out._keys = [self._keys[i] for i in order]
        return out


def _completion(kind: str, scale: int, pts: Sequence[tuple[int, int]]):
    """The integer row, over points scaled by `scale`, of the canonical
    completion through fewer than d scaled points `pts`: the horizontal line
    through a point; the unit circle centred one to the right of a point, or
    the circle on two points as diameter; y = x^2 + bx + c through one or
    two points, None when the two share an x."""
    if len(pts) == 1:
        (x, y), = pts
        if kind == "line2":
            return 0, 1, 0, -y  # the horizontal line
        if kind == "circle2":  # the unit circle centred at (x + 1, y)
            return 1, -2 * (x + scale), -2 * y, (x + scale) ** 2 + y * y - scale * scale
        return 1, 0, -scale, scale * y - x * x  # y = x^2 + c
    (x1, y1), (x2, y2) = pts
    if kind == "circle2":  # the circle on the diameter
        return 1, -(x1 + x2), -(y1 + y2), x1 * x2 + y1 * y2
    d = x2 - x1  # vparabola2: y = x^2 + bx + c
    if not d:
        return None
    b = scale * (y2 - y1) - (x2 * x2 - x1 * x1)
    return d, b, -scale * d, d * (scale * y1 - x1 * x1) - x1 * b


def _completions(kind: str, d: int, scale: int, pts: Sequence[tuple[int, int]], ground: int):
    """(tuple mask, tuple size, row, mask of the ground points on it) of the
    canonical completion of each tuple of fewer than d of the scaled points
    `pts` in the mask `ground` (point i is bit i) that has one, by size and
    then lexicographically."""
    members = _bits(ground)
    lifted = [(t, _LIFTS[kind](*pts[t])) for t in members]
    for size in range(1, d):
        for combo in itertools.combinations(members, size):
            row = _completion(kind, scale, [pts[i] for i in combo])
            if row is None:
                continue
            a, b, c, e = row
            yield (sum(1 << i for i in combo), size, row,
                   sum(1 << t for t, (u, v, w) in lifted if a * u + b * v + c * w + e == 0))


# ---------------------------------------------------------------------------
# candidate enumeration


def curve_fits(points: Sequence[Point], family: FamilySpec) -> Fits:
    """Each family curve through at least d = s+1 of the given 2D points, with
    the mask of the points on it (point i is bit i), in discovery order.

    s+1 points fix a curve, so each curve is fitted once, at its s+1 lowest
    points: a later tuple inside a curve already found is skipped, and a
    fitted curve's points below its last fitting point are already known.

    For circle2 and vparabola2 the fit also lists, as `lines`, the lines
    through three or more of the points (for vparabola2 the non-vertical
    ones): the collinear triples it rejects, gathered by their first two
    points. A line meets a curve in at most two points, so no such triple
    is skipped, and the pair of a line's two lowest points, which comes
    first, gathers all of it."""
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise GeometryError("duplicate points")  # a skipped tuple would hide them
    lift = _LIFTS.get(family.kind)
    if lift is None:
        raise GeometryError("curve_fits takes a plane curve family, got %r" % family.kind)
    scale, rows = _scaled(pts, 2)
    lifted = [lift(x, y) for x, y in rows]
    n, size = len(pts), family.d
    coefs: list[tuple[int, int, int, int]] = []
    masks: list[int] = []
    on_found: dict[tuple[int, ...], int] = {}  # tuple head -> points on a found curve through it
    on_line: dict[tuple[int, ...], int] = {}  # point pair -> the later points on its line
    for combo in itertools.combinations(range(n), size):
        head, last = combo[:-1], combo[-1]
        if on_found.get(head, 0) >> last & 1:
            continue
        coef = _fit(family.kind, lifted, combo)
        if coef is None:
            continue
        if size == 3 and not coef[0]:
            on_line[head] = on_line.get(head, 0) | 1 << last
            continue
        a, b, c, e = coef
        mask = sum(1 << i for i in combo)
        for t in range(last + 1, n):
            u, v, w = lifted[t]
            if a * u + b * v + c * w + e == 0:
                mask |= 1 << t
        coefs.append(coef)
        masks.append(mask)
        if mask.bit_count() > size:
            members = [i for i in range(n) if mask >> i & 1]
            for sub in itertools.combinations(members, size - 1):
                on_found[sub] = on_found.get(sub, 0) | mask
    lines: list[int] = []
    for (i, j), later in on_line.items():
        mask = 1 << i | 1 << j | later
        if all(mask & ~line for line in lines):
            lines.append(mask)
    return Fits(family.kind, scale, coefs, masks, rows, lines)


def enumerate_candidates(points: Sequence[Point], family: FamilySpec):
    """All family objects through at least d points of P, deduplicated and in
    canonical order. For plane3 these are planes through affinely independent
    triples."""
    fits = plane_fits3(points) if family.kind == "plane3" else curve_fits(points, family)
    return [fits.obj(i) for i in fits.order()]


# ---------------------------------------------------------------------------
# 3D flats (ambient dimension 3 only)


@dataclass(frozen=True, order=True)
class Flat:
    """Affine subspace of R^3 in canonical form: reduced-echelon direction
    basis, base point zeroed along the pivot coordinates. dim 0..3 (3 = the
    whole space, used as the distinguished 'full' hull value). The solver
    builds only lines (`Fits.obj` of a "line3" fit); the tests' Fraction
    references build the other dimensions and test containment."""

    base: tuple[Fraction, ...]
    basis: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self) -> str:
        return "Flat(dim=%d, base=%s)" % (self.dim, self.base)


def line_fits3(points: Sequence[Point], ordered: bool = True) -> Fits:
    """Each line through at least two of the given R^3 points, with the mask
    of the points on it (point i is bit i): in canonical order, or unordered
    and unkeyed when not `ordered`. Each line is found once, at its two
    lowest points, and only the points above them are tested: r is on the
    line through p with direction d iff d x r = d x p."""
    scale, rows = _scaled(points, 3)
    n = len(rows)
    if len(set(rows)) != n:
        raise GeometryError("duplicate points")
    found: list[tuple[tuple[int, ...], tuple[int, int, int]]] = []
    masks: list[int] = []
    on_found = [0] * n  # point -> points on a found line through it
    for i, j in itertools.combinations(range(n), 2):
        if on_found[i] >> j & 1:
            continue
        (x0, y0, z0), (x1, y1, z1) = rows[i], rows[j]
        d0, d1, d2 = x1 - x0, y1 - y0, z1 - z0
        m0, m1, m2 = d1 * z0 - d2 * y0, d2 * x0 - d0 * z0, d0 * y0 - d1 * x0
        mask = 1 << i | 1 << j
        for t in range(j + 1, n):
            x, y, z = rows[t]
            if d1 * z - d2 * y == m0 and d2 * x - d0 * z == m1 and d0 * y - d1 * x == m2:
                mask |= 1 << t
        found.append((rows[i], (d0, d1, d2)))
        masks.append(mask)
        if mask.bit_count() > 2:
            for t in range(n):
                if mask >> t & 1:
                    on_found[t] |= mask
    fits = Fits("line3", scale, found, masks)
    return fits.in_order() if ordered else fits


def plane_fits3(points: Sequence[Point]) -> Fits:
    """Each plane through three affinely independent R^3 points, in canonical
    order, with the mask of the points on it (point i is bit i). Each plane is
    found once, at its lowest affinely independent triple (i, j, l). No point
    below i lies on it, but a point between j and l does when it is collinear
    with i and j, so every point above i is tested."""
    scale, rows = _scaled(points, 3)
    n = len(rows)
    found: list[tuple[int, int, int, int]] = []
    masks: list[int] = []
    on_found: dict[tuple[int, int], int] = {}  # point pair -> points on a found plane through it
    for i, j, l in itertools.combinations(range(n), 3):
        if on_found.get((i, j), 0) >> l & 1:
            continue
        a, b, c, e = coef = _hyperplane3(rows[i], rows[j], rows[l])
        if a == b == c == 0:
            continue  # collinear
        mask = 1 << i
        for t in range(i + 1, n):
            x, y, z = rows[t]
            if a * x + b * y + c * z + e == 0:
                mask |= 1 << t
        found.append(coef)
        masks.append(mask)
        if mask.bit_count() > 3:
            members = [t for t in range(n) if mask >> t & 1]
            for sub in itertools.combinations(members, 2):
                on_found[sub] = on_found.get(sub, 0) | mask
    return Fits("plane3", scale, found, masks).in_order()


class PlaneLayer:
    """The incidence layer of a point set in R^3: every line through two of
    the points and every plane through three non-collinear ones, as point
    masks (point i is bit i) in canonical object order. `lines` holds the line
    masks, `planes` (mask, indexes of the lines inside it) and `line_planes`
    the indexes of the planes that contain each line, and
    `line_point_plane[l*n + x]` is the plane through line l and point x off it.
    `rich_planes` and `rich_lines` index the planes and lines through four or
    more of the points. `plane(p)` builds a plane, and `scaled` holds the
    points times `scale`.

    Every line holds at least two of the points, so it lies in a plane
    exactly when its mask is inside the plane's. A caller that already holds
    the points' `line_fits3` and `plane_fits3` passes them in."""

    kind = "plane3"

    def __init__(self, points: Sequence[Point], lines: Optional[Fits] = None,
                 planes: Optional[Fits] = None):
        self.points = tuple(points)
        n = len(self.points)
        self._lines = line_fits3(self.points) if lines is None else lines
        self._planes = plane_fits3(self.points) if planes is None else planes
        self.scale, self.scaled = _scaled(self.points, 3)
        self.lines: list[int] = self._lines.masks
        self.planes: list[tuple[int, list[int]]] = []
        self.line_planes: list[list[int]] = [[] for _ in self.lines]
        self.line_point_plane: list[Optional[int]] = [None] * (len(self.lines) * n)
        for p, m in enumerate(self._planes.masks):
            contained = [j for j, lm in enumerate(self.lines) if not lm & ~m]
            for j in contained:
                self.line_planes[j].append(p)
                for x in _bits(m & ~self.lines[j]):
                    self.line_point_plane[j * n + x] = p
            self.planes.append((m, contained))
        self.rich_planes = [p for p, (m, _) in enumerate(self.planes) if m.bit_count() >= 4]
        self.rich_lines = [l for l, m in enumerate(self.lines) if m.bit_count() >= 4]

    def plane(self, p: int) -> Plane3:
        return self._planes.obj(p)

    def hull_plane(self, kind: str, at: int,
                   avoid: Sequence[int] = ()) -> tuple[tuple[int, int, int, int], int]:
        """The integer plane row (over `scale`) of the candidate plane of the
        hull ("plane", p), ("line", l) or ("point", i), and the layer points
        on that plane (see `_completed_plane`). For a line, the first plane
        of its pencil that contains none of the line masks `avoid`."""
        if kind == "plane":
            return self._planes.rows[at], self.planes[at][0]
        if kind == "line":
            return _completed_plane(self.scaled, *self._lines.rows[at], avoid=avoid)
        return _completed_plane(self.scaled, self.scaled[at])


def incidence_layer(points: Sequence[Point], family: FamilySpec) -> Union[Fits, PlaneLayer]:
    """The incidence layer that a counter over `points` reads: their
    `PlaneLayer` for planes, their `curve_fits` for a curve family. Either
    names its family by `kind` and keeps the points scaled to integers."""
    return PlaneLayer(points) if family.kind == "plane3" else curve_fits(points, family)


def _completed_plane(rows: Sequence[tuple[int, int, int]], p: tuple[int, int, int],
                     d: Optional[tuple[int, int, int]] = None,
                     avoid: Sequence[int] = ()) -> tuple[tuple[int, int, int, int], int]:
    """The integer row of the canonical plane through the scaled point p, and
    the mask of the scaled points `rows` on it. Without d, the horizontal
    plane through p. Along direction d, a plane of the pencil about the line
    through p with direction d: for n1 the first nonzero d x e_k and n2 the
    next one independent of it, the plane with normal n1 + t*n2 for the least
    t >= 0 that contains none of the masks `avoid`. Each of those masks holds
    two or more points of a line other than this one, so it lies in at most
    one plane of the pencil and the walk ends."""
    if d is None:
        n1 = (0, 0, 1)
    else:
        crosses = ((0, d[2], -d[1]), (-d[2], 0, d[0]), (d[1], -d[0], 0))
        n1 = next(v for v in crosses if any(v))
    a, b, c = n1
    t = 0
    while True:
        off = a * p[0] + b * p[1] + c * p[2]
        points = 0
        for i, (x, y, z) in enumerate(rows):
            if a * x + b * y + c * z == off:
                points |= 1 << i
        if not avoid or all(m & ~points for m in avoid):
            return (a, b, c, -off), points
        if not t:  # n2 is needed only once n1's plane fails
            n2 = next(v for v in crosses
                      if any(n1[i] * v[j] - n1[j] * v[i] for i, j in ((1, 2), (2, 0), (0, 1))))
        t += 1
        a, b, c = (u + t * v for u, v in zip(n1, n2))


def enumerate_lines3(points: Sequence[Point]) -> list[Flat]:
    """Deduplicated lines through at least two of the given R^3 points."""
    fits = line_fits3(points)
    return [fits.obj(i) for i in range(len(fits.rows))]


# ---------------------------------------------------------------------------
# maximal cover sets (the brute-force solver's candidate list)


def cover_set_rows(points: Sequence[Point], family: FamilySpec) -> tuple[Fits, list[tuple[int, int]]]:
    """The candidates of `candidate_cover_sets` as integer rows: the `Fits`
    of every candidate object over the points, and the (row index, mask)
    pairs of the kept ones, in the list's order.

    Curves: each curve through d of the points (`curve_fits`) and the
    canonical completion of each tuple of fewer than d. Planes: each plane
    through three non-collinear points (`plane_fits3`), the canonical plane
    through each line of two or more points (`line_fits3`), and the
    horizontal plane through each point. The rows of one object share its
    exact key (`Fits.keys`) and its mask, so the first stands for all."""
    pts = tuple(points)
    if family.kind == "plane3":
        fitted = plane_fits3(pts)
        scale, scaled = _scaled(pts, 3)
        completed = [_completed_plane(scaled, p, d) for p, d in line_fits3(pts).rows]
        completed += [_completed_plane(scaled, p) for p in scaled]
    else:
        fitted = curve_fits(pts, family)
        scale, scaled = fitted.scale, fitted.scaled
        completed = [(row, mask) for _, _, row, mask in
                     _completions(family.kind, family.d, scale, scaled, (1 << len(scaled)) - 1)]
    masks = fitted.masks + [mask for _, mask in completed]
    fits = Fits(family.kind, scale, fitted.rows + [row for row, _ in completed], masks)
    keys = fits.keys()
    first: dict[tuple, int] = {}  # order key -> the object's first row
    for h, key in enumerate(keys):
        first.setdefault(key, h)
    order = sorted(first.values(), key=lambda h: (-masks[h].bit_count(), keys[h]))
    return fits, _maximal_sets([(h, masks[h]) for h in order])


def candidate_cover_sets(points: Sequence[Point], family: FamilySpec) -> list[tuple[object, int]]:
    """(object, covered-mask) pairs such that every single-object-coverable
    subset of the points is contained in some listed mask (point i is bit
    i). Listed largest mask first, ties in canonical object order, with
    dominated masks pruned, so each set-maximal mask keeps its canonically
    smallest object."""
    fits, kept = cover_set_rows(points, family)
    return [(fits.obj(h), mask) for h, mask in kept]


def _maximal_sets(sets: Sequence[tuple[object, int]]) -> list[tuple[object, int]]:
    """Dominance pruning of (object, mask) pairs listed largest mask first:
    the pairs whose mask lies in no earlier kept mask, so each set-maximal
    mask keeps its first object."""
    kept: list[tuple[object, int]] = []
    seen_masks: list[int] = []
    for obj, mask in sets:
        if any(mask | m == m for m in seen_masks):
            continue
        kept.append((obj, mask))
        seen_masks.append(mask)
    return kept


# ---------------------------------------------------------------------------
# independent cover checking


def check_cover(points: Sequence[Point], objects: Sequence, k: int) -> bool:
    """True iff at most k objects, each a Curve or a Plane3, jointly cover
    every point."""
    if len(objects) > k:
        return False
    return all(any(covers(o, p) for o in objects) for p in points)
