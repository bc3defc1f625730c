"""Exact intersections of two same-family plane curves, the reference the
tests hold each family's intersection bound s against: two distinct curves
of one family meet in at most s points."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional

from geomcover.geometry import Curve, GeometryError, Point, pt


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _quadratic_roots(a: Fraction, b: Fraction, c: Fraction) -> tuple[list[Fraction], int]:
    """Rational roots of ax^2+bx+c (a != 0) and the number of real roots."""
    disc = b * b - 4 * a * c
    if disc < 0:
        return [], 0
    if disc == 0:
        return [-b / (2 * a)], 1
    sq = _rational_sqrt(disc)
    if sq is None:
        return [], 2
    return [(-b - sq) / (2 * a), (-b + sq) / (2 * a)], 2


def curves_intersect(c1: Curve, c2: Curve) -> tuple[tuple[Point, ...], int]:
    """Rational intersection points of two distinct same-family curves, plus
    the exact total intersection count (irrational circle intersections are
    counted but not materialized)."""
    if c1.kind != c2.kind:
        raise GeometryError("curves from different families")
    if c1 == c2:
        raise GeometryError("identical curves")

    if c1.kind == "line2":
        a1, b1, d1 = c1.coeffs
        a2, b2, d2 = c2.coeffs
        det = a1 * b2 - a2 * b1
        if det == 0:
            return (), 0  # parallel
        x = (b1 * d2 - b2 * d1) / det
        y = (a2 * d1 - a1 * d2) / det
        return (pt(x, y),), 1

    if c1.kind == "circle2":
        cx1, cy1, r21 = c1.coeffs
        cx2, cy2, r22 = c2.coeffs
        if cx1 == cx2 and cy1 == cy2:
            return (), 0  # concentric
        # radical line: 2(c2-c1).(x,y) = (|c2|^2 - r2^2) - (|c1|^2 - r1^2)
        a = 2 * (cx2 - cx1)
        b = 2 * (cy2 - cy1)
        d = (cx2 * cx2 + cy2 * cy2 - r22) - (cx1 * cx1 + cy1 * cy1 - r21)
        # intersect with circle 1 by substitution along the dominant axis
        pts: list[Point] = []
        if b != 0:
            # y = (d - a x) / b
            qa = 1 + (a / b) ** 2
            qb = -2 * cx1 + 2 * (a / b) * (cy1 - d / b)
            qc = cx1 * cx1 + (d / b - cy1) ** 2 - r21
            roots, count = _quadratic_roots(qa, qb, qc)
            pts = [pt(x, (d - a * x) / b) for x in roots]
        else:
            x = d / a
            qa, qb, qc = Fraction(1), -2 * cy1, cy1 * cy1 + (x - cx1) ** 2 - r21
            roots, count = _quadratic_roots(qa, qb, qc)
            pts = [pt(x, y) for y in roots]
        return tuple(pts), count

    if c1.kind == "vparabola2":
        a1, b1, d1 = c1.coeffs
        a2, b2, d2 = c2.coeffs
        da, db, dc = a1 - a2, b1 - b2, d1 - d2
        if da == 0:
            if db == 0:
                return (), 0  # same a, b, different c: disjoint graphs
            x = -dc / db
            return (pt(x, a1 * x * x + b1 * x + d1),), 1
        roots, count = _quadratic_roots(da, db, dc)
        return tuple(pt(x, a1 * x * x + b1 * x + d1) for x in roots), count

    raise GeometryError("unknown curve kind %r" % c1.kind)
