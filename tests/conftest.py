import random

from counter_reference import c_of_mask
from geomcover.geometry import CIRCLE2, LINE2, VPARABOLA2, PlaneLayer, Point, incidence_layer, pt
from geomcover.inclusion_exclusion import DEFAULT_SUBSET_CAP, CoverableCounter, _least_budget, _signed_histogram
from incidence_reference import layer_line


def _random_grid_points(rng: random.Random, n: int, span: int, dim: int) -> list[Point]:
    """n distinct points of the grid {0..span}^dim, drawn at random."""
    if n > (span + 1) ** dim:
        raise ValueError("%d distinct points do not fit in a %d-D grid of span %d" % (n, dim, span))
    out: list[Point] = []
    while len(out) < n:
        p = pt(*(rng.randint(0, span) for _ in range(dim)))
        if p not in out:
            out.append(p)
    return out


def random_points_2d(rng: random.Random, n: int, span: int = 4) -> list[Point]:
    """Distinct integer-grid points; the small span breeds collinear triples."""
    return _random_grid_points(rng, n, span, 2)


def random_points_3d(rng: random.Random, n: int, span: int = 3) -> list[Point]:
    return _random_grid_points(rng, n, span, 3)


def degenerate_curve_instances():
    """Seeded instances of 9 points, each with a built-in degeneracy: 5
    collinear points for line2, 5 concyclic points for circle2, and 5
    points on one parabola plus two shared-x pairs for vparabola2."""
    clusters = (
        (LINE2, [pt(t, 2 * t + 1) for t in range(-2, 3)]),
        (CIRCLE2, [pt(5, 0), pt(3, 4), pt(0, 5), pt(-4, 3), pt(-3, -4)]),
        (VPARABOLA2, [pt(x, x * x - 1) for x in range(-2, 3)] + [pt(0, 3), pt(1, -4)]),
    )
    out = []
    for seed in range(3):
        rng = random.Random(600 + seed)
        for fam, cluster in clusters:
            points = list(cluster)
            while len(points) < 9:
                p = pt(rng.randint(-5, 5), rng.randint(-5, 5))
                if p not in points:
                    points.append(p)
            rng.shuffle(points)
            out.append((fam, points))
    return out


def layer_counter(points, lines) -> CoverableCounter:
    """The plane counter over the distinct `points` and then the distinct
    `lines`, read off the `PlaneLayer` of the points and two points of each
    line. Points that only fix a line stay out of the ground, as the covered
    points of a plane search leaf do."""
    extra = []
    for line in lines:
        ends = (line.base, tuple(b + d for b, d in zip(line.base, line.basis[0])))
        extra += [Point(p) for p in ends if Point(p) not in points and Point(p) not in extra]
    layer = PlaneLayer(list(points) + extra)
    index = {layer_line(layer, j): j for j in range(len(layer.lines))}
    return CoverableCounter(layer, (1 << len(points)) - 1, [index[line] for line in lines])


def c_count(points, family) -> int:
    """c of the whole ground: the subsets of the points that one object
    covers, the empty set included, read off the production counter."""
    counter = CoverableCounter(incidence_layer(points, family))
    return c_of_mask(counter, counter.mask)


def ie_min_cover(points, family) -> int:
    """The least budget whose alternating sum reaches 1, from one subset
    sweep over the points, read as the CLI's `ie --min` reads it."""
    counter = CoverableCounter(incidence_layer(points, family))
    return _least_budget(_signed_histogram(counter, counter.mask, DEFAULT_SUBSET_CAP), counter.n)[0]
