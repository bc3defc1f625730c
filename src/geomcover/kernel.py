"""Instance-size reduction for curve and plane cover.

Curve kernel: while some candidate covers s*k+1 points it must belong to
every k-cover, so it is forced and its points removed; afterwards more than
s*k^2 remaining points rule out any k-cover.

Plane kernel (R^3): first make the point set 1-ready, i.e. no line carries
more than k+1 points (heavy lines are trimmed, and lines whose heaviness was
collaterally destroyed get replacement points in general position on them).
A replacement point's bad parameters on its line, the current points on it
and the crossings of the lines through two points off it, are collected
once on integers, and the point sits at the least nonnegative parameter
that is not bad, so the kernel is deterministic. Two planes then share at
most k+1 points, and the curve-kernel argument applies with s = k+1.
Readiness and plane forcing are iterated to a fixpoint so the output
instance is stable under re-kernelization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from .geometry import (
    FamilySpec,
    Fits,
    Flat,
    GeometryError,
    Plane3,
    PlaneLayer,
    Point,
    _scaled,
    curve_fits,
    line_fits3,
    plane_fits3,
)


@dataclass
class KernelResult:
    points: tuple[Point, ...]
    k: int
    forced: list
    verdict: str  # "reduced" | "rejected"
    added_points: tuple[Point, ...] = ()
    # the incidence layer that the search and its sweep leaves read, and the
    # mask of `points` in it (point i is bit i): for curves the kernel's own
    # `curve_fits` over its input points, for planes the `PlaneLayer` of
    # `points`; None and 0 when there is nothing to search (a rejected
    # instance, or an empty one at budget 0)
    layer: Union[Fits, PlaneLayer, None] = field(default=None, compare=False)
    ground: int = field(default=0, compare=False)

    @property
    def rejected(self) -> bool:
        return self.verdict == "rejected"


def curve_kernel(points: Sequence[Point], family: FamilySpec, k: int) -> KernelResult:
    """Force unavoidable curves, then reject oversized instances. The masks are
    built once: a curve reaching a threshold s*k+1 >= d over the surviving
    points passes through d of them, so a fresh enumeration would find it.
    For the same reason the masks of a reduced instance, cut to its points,
    hold every curve through d of them, so they are its layer, with the
    surviving points as its ground."""
    if k < 0:
        raise ValueError("negative budget")
    pts = tuple(points)
    s = family.s
    forced = []
    k_cur = k
    alive = (1 << len(pts)) - 1
    fits = curve_fits(pts, family) if k >= 1 else None
    masks = fits.masks if fits is not None else []
    while k_cur >= 1 and alive.bit_count() >= family.d:
        rich = [(m & alive).bit_count() for m in masks]
        best_rich = max(rich, default=0)
        if best_rich < s * k_cur + 1:
            break
        # ties go to the canonically smallest curve
        best = min((c for c, r in enumerate(rich) if r == best_rich), key=fits.keys().__getitem__)
        forced.append(fits.obj(best))
        alive &= ~masks[best]
        k_cur -= 1
    kept = tuple(p for i, p in enumerate(pts) if alive >> i & 1)
    if len(kept) > s * k_cur * k_cur:
        return KernelResult(kept, k_cur, forced, "rejected")
    return KernelResult(kept, k_cur, forced, "reduced", layer=fits, ground=alive)


# ---------------------------------------------------------------------------
# plane kernel


def _cross(u, v) -> tuple[int, int, int]:
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def _replacement_point(line: Flat, pts: Sequence[Point]) -> Point:
    """A point on `line`, off every other line spanned by two current points:
    the one at the least nonnegative integer parameter that is not bad. The
    bad parameters are collected once, over the points and `line` scaled to
    integers: the parameter of each current point on `line`, and where the
    line through two points off `line` crosses it, when the two span a plane
    with `line` and are not parallel to it. A line through one point on
    `line` and one off it meets `line` only at the first. Only the integer
    ones are kept; as they are finitely many, the scan ends."""
    base, direction = line.base, line.basis[0]
    _, rows = _scaled([*pts, Point(base), Point(direction)], 3)
    a, d = rows[-2], rows[-1]  # the line's base and direction, scaled alike
    lead = next(c for c in range(3) if d[c])
    bad = set()
    off = []  # the points off `line`, relative to its base
    for p in rows[:-2]:
        v = (p[0] - a[0], p[1] - a[1], p[2] - a[2])
        if any(_cross(d, v)):
            off.append(v)
        elif v[lead] % d[lead] == 0:
            bad.add(v[lead] // d[lead])
    for i, v in enumerate(off):
        for w in off[i + 1:]:
            # t*d = v + s*e at the crossing, so t*(d x e) = v x e
            e = (w[0] - v[0], w[1] - v[1], w[2] - v[2])
            n = _cross(d, e)
            if any(n) and v[0] * n[0] + v[1] * n[1] + v[2] * n[2] == 0:
                c = next(c for c in range(3) if n[c])
                m = _cross(v, e)[c]
                if m % n[c] == 0:
                    bad.add(m // n[c])
    t = 0
    while t in bad:
        t += 1
    return Point(tuple(b + t * x for b, x in zip(base, direction)))


def _make_one_ready(pts: list[Point], k: int, added: list[Point]) -> tuple[list[Point], Fits]:
    """Trim every line to at most k+1 points, restoring collaterally damaged
    heavy lines with general-position replacements. Returns the points and
    their `line_fits3`.

    At k = 1 the heavy threshold sits at the two-point floor, where every
    point pair spans a heavy line and restoring them all inflates the
    instance without bound. A two-point line forces nothing beyond its own
    points (any plane covering both contains it), and trimmed points stay
    covered through the trimmed line's forced plane, so equivalence holds
    with the repair skipped there.
    """
    limit = k + 1
    while True:
        lines = line_fits3(pts, ordered=False)
        sizes = [m.bit_count() for m in lines.masks]
        top = max(sizes, default=0)
        if top <= limit:
            return pts, lines.in_order()
        # only the heavy lines are put in canonical order: the first richest
        # is the target, and the others are repaired in that order
        heavy = lines.order([j for j, size in enumerate(sizes) if size >= limit])
        target = next(j for j in heavy if sizes[j] == top)
        drop = lines.masks[target]
        heavy_before = [(j, lines.masks[j]) for j in heavy if j != target]
        for _ in range(limit):
            drop &= drop - 1  # the target keeps its first k+1 points
        pts = [p for i, p in enumerate(pts) if not drop >> i & 1]
        if limit < 3:
            continue
        # a replacement point avoids every line through two current points,
        # and each heavy line keeps two or more, so it lands on no other
        for j, mask in heavy_before:
            have = (mask & ~drop).bit_count()
            while have < limit:
                newp = _replacement_point(lines.obj(j), pts)
                pts.append(newp)
                added.append(newp)
                have += 1


def plane_kernel_r3(points: Sequence[Point], k: int) -> KernelResult:
    """Reduce an R^3 plane-cover instance: 1-readiness, then forced planes,
    iterated to a fixpoint; reject when more than k^3 + k^2 points survive
    (evaluated at the post-forcing budget), else hand on their `PlaneLayer`,
    built on the last round's fits when no plane was forced after them."""
    if k < 0:
        raise ValueError("negative budget")
    if any(p.dim != 3 for p in points):
        raise GeometryError("plane kernel needs R^3 points")
    pts = list(points)
    forced: list[Plane3] = []
    added: list[Point] = []
    k_cur = k
    fits = ()  # the lines and planes of `pts` once it stops for want of a rich plane
    while k_cur >= 1:
        pts, lines = _make_one_ready(pts, k_cur, added)
        threshold = k_cur * (k_cur + 1) + 1
        planes = plane_fits3(pts)
        sizes = [m.bit_count() for m in planes.masks]
        if max(sizes, default=0) < threshold:
            fits = lines, planes
            break
        best = sizes.index(max(sizes))  # the first of the richest
        best_mask = planes.masks[best]
        forced.append(planes.obj(best))
        pts = [p for i, p in enumerate(pts) if not (best_mask >> i) & 1]
        k_cur -= 1
    if len(pts) > k_cur * k_cur * (k_cur + 1):
        return KernelResult(tuple(pts), k_cur, forced, "rejected", tuple(added))
    return KernelResult(tuple(pts), k_cur, forced, "reduced", tuple(added),
                        layer=PlaneLayer(pts, *fits), ground=(1 << len(pts)) - 1)
