"""Instance files and seeded instance generators.

Instances are stored as JSON with every coordinate an exact fraction string
("-3", "5/2"), so files round-trip bit-exactly across platforms. Duplicate
points are rejected on parse unless dedup mode is requested, in which case a
warning goes to stderr and first occurrences win.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from .geometry import (
    CIRCLE2,
    LINE2,
    PLANE3,
    VPARABOLA2,
    FamilySpec,
    GeometryError,
    Point,
    family_by_tag,
    pt,
)

FRACTION_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?$")


class InvalidInstanceError(ValueError):
    """Malformed instance file or generator parameters."""


@dataclass
class Instance:
    points: tuple[Point, ...]
    family: FamilySpec
    k: int
    metadata: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return self.family.ambient_dim

    @property
    def n(self) -> int:
        return len(self.points)


def _format_fraction(f: Fraction) -> str:
    return str(f)


def _parse_fraction(s: str) -> Fraction:
    if not isinstance(s, str) or not FRACTION_RE.match(s):
        raise InvalidInstanceError("bad fraction literal %r" % (s,))
    return Fraction(s)


def serialize_instance(inst: Instance) -> str:
    doc = {
        "dimension": inst.dimension,
        "family": inst.family.kind,
        "k": inst.k,
        "points": [[_format_fraction(c) for c in p.coords] for p in inst.points],
    }
    if inst.metadata:
        doc["metadata"] = inst.metadata
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_instance(text: str, dedup: bool = False) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidInstanceError("not valid JSON: %s" % e) from None
    if not isinstance(doc, dict):
        raise InvalidInstanceError("instance file must hold a JSON object")
    for key in ("dimension", "family", "k", "points"):
        if key not in doc:
            raise InvalidInstanceError("missing field %r" % key)
    dim = doc["dimension"]
    if dim not in (2, 3):
        raise InvalidInstanceError("dimension must be 2 or 3")
    try:
        family = family_by_tag(doc["family"])
    except GeometryError as e:
        raise InvalidInstanceError(str(e)) from None
    if family.ambient_dim != dim:
        raise InvalidInstanceError("family %s lives in dimension %d, not %d"
                                   % (family.kind, family.ambient_dim, dim))
    k = doc["k"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvalidInstanceError("k must be a nonnegative integer")
    if not isinstance(doc["points"], list):
        raise InvalidInstanceError("points must be a list")
    points = []
    seen = set()
    for row in doc["points"]:
        if not isinstance(row, list) or len(row) != dim:
            raise InvalidInstanceError("each point needs %d coordinates" % dim)
        p = Point(tuple(_parse_fraction(c) for c in row))
        if p in seen:
            if not dedup:
                raise InvalidInstanceError("duplicate point %r (rerun with dedup)" % (p,))
            print("warning: dropping duplicate point %r" % (p,), file=sys.stderr)
            continue
        seen.add(p)
        points.append(p)
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise InvalidInstanceError("metadata must be an object")
    return Instance(tuple(points), family, k, meta)


def load_instance(path: str, dedup: bool = False) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read(), dedup)


def save_instance(inst: Instance, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst))


# ---------------------------------------------------------------------------
# generators


GENERATOR_MODELS = ("grid", "uniform-random", "on-curves", "degenerate-plane")


def generate(model: str, params: dict, seed: int) -> Instance:
    """Deterministic instance for (model, params, seed)."""
    import random

    rng = random.Random(seed)
    params = dict(params)
    if int(params.get("k", 0)) < 0:
        raise InvalidInstanceError("k must be a nonnegative integer")

    if model == "grid":
        n = int(params.pop("n", 3))
        if n < 1:
            raise InvalidInstanceError("grid needs n >= 1")
        k = int(params.pop("k", n))
        points = tuple(pt(i, j) for i in range(n) for j in range(n))
        meta = {"model": "grid", "n": n, "seed": seed}
        return Instance(points, LINE2, k, meta)

    if model == "uniform-random":
        n = int(params.pop("n", 8))
        dim = int(params.pop("dimension", 2))
        span = int(params.pop("coord_range", 6))
        family = family_by_tag(params.pop("family", "line2" if dim == 2 else "plane3"))
        if family.ambient_dim != dim:
            raise InvalidInstanceError("family/dimension mismatch")
        if n < 1:
            raise InvalidInstanceError("uniform-random needs n >= 1")
        k = int(params.pop("k", max(1, -(-n // 2))))
        points = []
        seen = set()
        attempts = 0
        while len(points) < n:
            attempts += 1
            if attempts > 10000:
                raise InvalidInstanceError("coordinate range too small for %d distinct points" % n)
            p = pt(*(rng.randint(0, span) for _ in range(dim)))
            if p not in seen:
                seen.add(p)
                points.append(p)
        meta = {"model": "uniform-random", "n": n, "coord_range": span, "seed": seed}
        return Instance(tuple(points), family, k, meta)

    if model == "on-curves":
        family = family_by_tag(params.pop("family", "line2"))
        k = int(params.pop("k", 3))
        m = int(params.pop("m", 4))
        noise = int(params.pop("noise", 0))
        if k < 1 or m < 1 or noise < 0:
            raise InvalidInstanceError("on-curves needs k >= 1, m >= 1 and noise >= 0")
        points: list[Point] = []
        seen: set[Point] = set()

        def add(p: Point) -> bool:
            if p in seen:
                return False
            seen.add(p)
            points.append(p)
            return True

        for _ in range(k):
            placed = 0
            guard = 0
            while placed < m:
                guard += 1
                if guard > 10000:
                    raise InvalidInstanceError("could not place %d distinct points per object" % m)
                if family is LINE2:
                    if placed == 0:
                        x0, y0 = rng.randint(-8, 8), rng.randint(-8, 8)
                        dx, dy = 0, 0
                        while (dx, dy) == (0, 0):
                            dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
                    t = rng.randint(-6, 6)
                    placed += add(pt(x0 + t * dx, y0 + t * dy))
                elif family is CIRCLE2:
                    if placed == 0:
                        cx, cy = rng.randint(-6, 6), rng.randint(-6, 6)
                        radius = Fraction(rng.randint(1, 6))
                    t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    den = 1 + t * t
                    placed += add(pt(cx + radius * (1 - t * t) / den, cy + radius * 2 * t / den))
                elif family is VPARABOLA2:
                    if placed == 0:
                        a = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
                        b, c = rng.randint(-4, 4), rng.randint(-4, 4)
                    x = rng.randint(-6, 6)
                    placed += add(pt(x, a * x * x + b * x + c))
                elif family is PLANE3:
                    if placed == 0:
                        base = tuple(rng.randint(-4, 4) for _ in range(3))
                        u = (1, rng.randint(-2, 2), rng.randint(-2, 2))
                        v = (0, 1, rng.randint(-2, 2))
                    s_, t_ = rng.randint(-4, 4), rng.randint(-4, 4)
                    placed += add(pt(*(b + s_ * uu + t_ * vv for b, uu, vv in zip(base, u, v))))
                else:
                    raise InvalidInstanceError("no on-curves generator for %s" % family.kind)
        for _ in range(noise):
            guard = 0
            while True:
                guard += 1
                if guard > 10000:
                    raise InvalidInstanceError("could not place noise points")
                dimr = 3 if family is PLANE3 else 2
                p = pt(*(rng.randint(-10, 10) for _ in range(dimr)))
                if add(p):
                    break
        meta = {"model": "on-curves", "family": family.kind, "objects": k, "per_object": m,
                "noise": noise, "seed": seed, "planted_cover_size": k + noise}
        return Instance(tuple(points), family, k + noise if noise else k, meta)

    if model == "degenerate-plane":
        k = int(params.pop("k", 2))
        m = int(params.pop("m", 8))
        if k < 1 or m < 3:
            raise InvalidInstanceError("degenerate-plane needs k >= 1 and m >= 3")
        points: list[Point] = []
        seen2: set[Point] = set()
        online_target = max(2, (9 * m + 9) // 10)  # >= 90% of the cluster on one line
        for _ in range(k):
            base = tuple(rng.randint(-4, 4) for _ in range(3))
            u = (1, rng.randint(-2, 2), rng.randint(-2, 2))
            v = (0, 1, rng.randint(-2, 2))
            placed_on, placed_off = 0, 0
            guard = 0
            while placed_on < online_target or placed_off < m - online_target:
                guard += 1
                if guard > 20000:
                    raise InvalidInstanceError("could not place cluster points")
                if placed_on < online_target:
                    t = rng.randint(-2 * m, 2 * m)
                    p = pt(*(b + t * uu for b, uu in zip(base, u)))
                    if p not in seen2:
                        seen2.add(p)
                        points.append(p)
                        placed_on += 1
                else:
                    s_, t_ = rng.randint(-3, 3), rng.randint(1, 3)
                    p = pt(*(b + s_ * uu + t_ * vv for b, uu, vv in zip(base, u, v)))
                    if p not in seen2:
                        seen2.add(p)
                        points.append(p)
                        placed_off += 1
        meta = {"model": "degenerate-plane", "clusters": k, "per_cluster": m, "seed": seed,
                "planted_cover_size": k, "online_per_cluster": online_target}
        return Instance(tuple(points), PLANE3, k, meta)

    raise InvalidInstanceError("unknown generator model %r (choose from %s)"
                               % (model, ", ".join(GENERATOR_MODELS)))
