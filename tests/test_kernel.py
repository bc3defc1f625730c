import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import degenerate_curve_instances, random_points_2d, random_points_3d
from geomcover import kernel
from geomcover.geometry import (
    CIRCLE2,
    LINE2,
    PLANE3,
    VPARABOLA2,
    PlaneLayer,
    check_cover,
    curve_covers,
    curve_fits,
    enumerate_candidates,
    enumerate_lines3,
    line_fits3,
    pt,
)
from geomcover.instances import generate
from geomcover.kernel import _replacement_point, curve_kernel, plane_kernel_r3
from geomcover.oracle import oracle_min_cover
from incidence_reference import (
    _collinear3,
    curve_through,
    fit_pairs,
    flat_contains,
    line2_curve,
    line_through,
    plane3_curve,
    reference_replacement_point,
)


def _kernel_cases():
    """(family, points, k): a grid with two extra points, the degenerate
    curve instances, and seeded random instances of every curve family."""
    rng = random.Random(97)
    grid = [pt(i, j) for i in range(3) for j in range(3)]
    cases = [(LINE2, grid + [pt(5, 1), pt(7, 2)], k) for k in (1, 2, 3)]
    for fam, pts in degenerate_curve_instances():
        cases += [(fam, pts, k) for k in (1, 2)]
    for fam in (LINE2, CIRCLE2, VPARABOLA2):
        for _ in range(12):
            cases.append((fam, random_points_2d(rng, rng.randint(5, 10)), rng.randint(1, 3)))
    return cases


def _reference_curve_kernel(points, fam, k):
    """The curve kernel with every candidate refitted and every richness
    recounted in each forcing round, plus the number of rounds in which two
    or more candidates tied for the richest."""
    pts, forced, tied = list(points), [], 0
    while k >= 1 and len(pts) >= fam.d:
        cands = {c for combo in itertools.combinations(pts, fam.d) for c in curve_through(fam, combo)}
        ranked = sorted((-sum(1 for p in pts if curve_covers(c, p)), c) for c in cands)
        if not ranked or -ranked[0][0] < fam.s * k + 1:
            break
        tied += len(ranked) > 1 and ranked[1][0] == ranked[0][0]
        best = ranked[0][1]
        forced.append(best)
        pts = [p for p in pts if not curve_covers(best, p)]
        k -= 1
    verdict = "rejected" if len(pts) > fam.s * k * k else "reduced"
    return (forced, tuple(pts), k, verdict), tied


class TestCurveKernel:
    def test_forces_heavy_line_then_residual_pair(self):
        # the 6-point line is forced at k=2; at k=1 the remaining pair's line
        # reaches the s*k+1 = 2 bar and is forced as well
        P = [pt(i, 0) for i in range(6)] + [pt(0, 5), pt(5, 7)]
        res = curve_kernel(P, LINE2, 2)
        assert res.verdict == "reduced"
        assert res.forced[0] == line2_curve(0, 1, 0)
        assert len(res.forced) == 2 and res.k == 0 and res.points == ()

    def test_rejects_general_position(self):
        P = [pt(i, i * i) for i in range(10)]  # no 3 collinear
        assert curve_kernel(P, LINE2, 3).verdict == "rejected"

    def test_empty_unchanged(self):
        res = curve_kernel([], LINE2, 4)
        assert res.verdict == "reduced" and res.points == () and res.k == 4

    def test_bounds_and_equisolvability_random(self):
        rng = random.Random(71)
        for fam in (LINE2, CIRCLE2, VPARABOLA2):
            for _ in range(25):
                pts = random_points_2d(rng, rng.randint(4, 9))
                k = rng.randint(1, 3)
                res = curve_kernel(pts, fam, k)
                original = oracle_min_cover(pts, fam).opt <= k
                if res.verdict == "rejected":
                    assert not original
                    continue
                assert len(res.points) <= fam.s * res.k * res.k
                for c in enumerate_candidates(res.points, fam):
                    assert sum(curve_covers(c, p) for p in res.points) <= fam.s * res.k
                reduced = (oracle_min_cover(res.points, fam).opt <= res.k) if res.points else True
                assert original == reduced

    def test_matches_reference_that_reenumerates_each_round(self):
        ties = 0
        for fam, pts, k in _kernel_cases():
            want, tied = _reference_curve_kernel(pts, fam, k)
            ties += tied
            res = curve_kernel(pts, fam, k)
            assert (res.forced, res.points, res.k, res.verdict) == want, (fam.kind, pts, k)
        assert ties >= 10

    def test_candidates_are_the_reduced_instances_curves(self):
        # the kernel's layer is its input's curves, and its ground the
        # surviving points: the layer curves through d or more ground points,
        # cut to the ground and renumbered, are exactly the curves a fresh
        # enumeration over the surviving points finds; in the planted cases
        # a cluster of 9 is forced at k=4, so the ground has holes
        planted = [(fam, generate("on-curves", {"family": fam.kind, "k": clusters, "m": 9,
                                                "noise": 6 - clusters}, seed).points, 4)
                   for fam in (LINE2, CIRCLE2, VPARABOLA2) for clusters in (1, 2)
                   for seed in range(2)]
        renumbered = 0
        for fam, pts, k in _kernel_cases() + planted:
            res = curve_kernel(pts, fam, k)
            if res.rejected:
                assert res.layer is None and res.ground == 0
                continue
            kept = [i for i in range(len(pts)) if res.ground >> i & 1]
            assert tuple(pts[i] for i in kept) == res.points
            assert fit_pairs(res.layer) == fit_pairs(curve_fits(pts, fam))

            def renumber(mask):
                return sum(1 << j for j, i in enumerate(kept) if mask >> i & 1)

            cut = sorted((curve, renumber(m & res.ground)) for curve, m in fit_pairs(res.layer)
                         if (m & res.ground).bit_count() >= fam.d)
            assert cut == sorted(fit_pairs(curve_fits(res.points, fam))), (fam.kind, pts, k)
            renumbered += bool(res.forced) and bool(cut)
        assert renumbered >= 12

    def test_idempotent(self):
        rng = random.Random(73)
        for _ in range(15):
            pts = random_points_2d(rng, rng.randint(4, 9))
            res = curve_kernel(pts, LINE2, 2)
            if res.verdict == "reduced":
                again = curve_kernel(res.points, LINE2, res.k)
                assert again.verdict == "reduced"
                assert again.points == res.points and again.k == res.k and not again.forced


class TestPlaneKernel:
    def test_no_rule_fires(self):
        P = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1), pt(2, 1, 0)]
        res = plane_kernel_r3(P, 2)
        assert res.verdict == "reduced" and res.points == tuple(P) and res.k == 2

    def test_forces_rich_plane(self):
        # 20 points on z=0, no 3 collinear, plus one point off the plane
        rng = random.Random(5)
        pts = []
        while len(pts) < 20:
            c = pt(rng.randint(0, 40), rng.randint(0, 40), 0)
            if c in pts:
                continue
            if any(_collinear3(c, a, b) for a in pts for b in pts if a != b):
                continue
            pts.append(c)
        P = pts + [pt(1, 1, 7)]
        res = plane_kernel_r3(P, 2)
        assert res.verdict == "reduced"
        assert res.forced == [plane3_curve(0, 0, 1, 0)]
        assert res.k == 1 and len(res.points) == 1

    def test_line_plus_point_reduces_via_forced_plane(self):
        # the heavy line is trimmed to k+1 = 2 points; the plane through the
        # trimmed line and the off point then covers all three remaining
        # points and is forced, matching the instance's actual solvability
        P = [pt(0, 0, 0), pt(1, 0, 0), pt(2, 0, 0), pt(0, 1, 1)]
        res = plane_kernel_r3(P, 1)
        assert res.verdict == "reduced"
        assert res.k == 0 and res.points == () and len(res.forced) == 1
        assert oracle_min_cover(P, PLANE3).opt <= 1

    def test_four_general_points_rejected_at_k1(self):
        P = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)]
        assert plane_kernel_r3(P, 1).verdict == "rejected"

    def test_bounds_and_equisolvability_random(self):
        rng = random.Random(79)
        for _ in range(25):
            pts = random_points_3d(rng, rng.randint(4, 9))
            k = rng.randint(1, 3)
            res = plane_kernel_r3(pts, k)
            original = oracle_min_cover(pts, PLANE3).opt <= k
            if res.verdict == "rejected":
                assert not original
                continue
            assert len(res.points) <= k * k * k + k * k
            for line in enumerate_lines3(res.points):
                online = sum(1 for p in res.points if flat_contains(line, p))
                assert online <= res.k + 1
            reduced = (oracle_min_cover(res.points, PLANE3).opt <= res.k) if res.points else True
            assert original == reduced

    def test_line_counts_match_point_by_point_count(self):
        rng = random.Random(73)
        sets = [random_points_3d(rng, 10), random_points_3d(rng, 14, span=2),
                list(generate("degenerate-plane", {"k": 2, "m": 6}, seed=3).points)]
        heaviest = 0
        for pts in sets:
            lines = sorted({line_through(p, q) for p, q in itertools.combinations(pts, 2)})
            want = [(line, sum(1 for p in pts if flat_contains(line, p))) for line in lines]
            assert [(line, mask.bit_count()) for line, mask in fit_pairs(line_fits3(pts))] == want
            heaviest = max(heaviest, max(count for _, count in want))
        assert heaviest >= 4

    def test_layer_is_the_layer_of_its_points(self):
        """The layer a reduced instance hands on, whether built on the last
        round's fits or fitted afresh after a forced plane, is the
        `PlaneLayer` of its points."""
        rng = random.Random(71)
        cases = [(random_points_3d(rng, rng.randint(4, 9)), rng.randint(1, 3)) for _ in range(15)]
        cases += [(list(generate("degenerate-plane", {"k": k, "m": m}, seed=s).points), k)
                  for k, m, s in ((2, 5, 0), (3, 5, 1), (2, 6, 3))]
        # a forced plane, then a round that stops with points left; a forced
        # plane that ends the budget and the points; no round at budget 0
        flat = [pt(x, x * x % 7, 0) for x in range(9)]
        cases += [(flat + [pt(1, 1, 7)], 2),
                  ([pt(0, 0, 0), pt(1, 0, 0), pt(2, 0, 0), pt(0, 1, 1)], 1), ([], 0)]
        forced = 0
        for pts, k in cases:
            res = plane_kernel_r3(pts, k)
            if res.rejected:
                continue
            forced += bool(res.forced)
            fresh = PlaneLayer(res.points)
            assert fit_pairs(res.layer._lines) == fit_pairs(fresh._lines), (pts, k)
            assert fit_pairs(res.layer._planes) == fit_pairs(fresh._planes), (pts, k)
            assert (res.layer.planes, res.layer.line_planes, res.layer.line_point_plane) == \
                (fresh.planes, fresh.line_planes, fresh.line_point_plane), (pts, k)
        assert forced >= 2

    def test_two_runs_bit_identical(self):
        rng = random.Random(83)
        pts = [pt(i, 0, 0) for i in range(6)] + random_points_3d(rng, 5, span=9)
        a = plane_kernel_r3(pts, 2)
        b = plane_kernel_r3(pts, 2)
        assert (a.points, a.forced, a.k, a.added_points) == (b.points, b.forced, b.k, b.added_points)

    def test_idempotent(self):
        rng = random.Random(89)
        for _ in range(10):
            pts = random_points_3d(rng, rng.randint(5, 9))
            res = plane_kernel_r3(pts, 2)
            if res.verdict == "reduced":
                again = plane_kernel_r3(res.points, res.k)
                assert again.verdict == "reduced"
                assert again.points == res.points and again.k == res.k


def _grid_plus_two(a, b, base=(0, 0, 0), u=(1, 0, 0), v=(0, 1, 0)):
    """The a x b grid base + i*u + j*v, then the points (0, 0, 5) and (1, 2, 7)."""
    grid = [pt(*(o + i * x + j * y for o, x, y in zip(base, u, v)))
            for i in range(a) for j in range(b)]
    return grid + [pt(0, 0, 5), pt(1, 2, 7)]


class TestPlaneKernelRepair:
    def test_matches_the_kernel_on_the_fraction_reference(self, monkeypatch):
        """The kernel's points, forced planes, budget, added points and
        verdict equal the kernel's with the Fraction line repair, on grids in
        z = 0 and tilted grids with fractional coordinates, plus two points
        off the grid."""
        half, third = Fraction(1, 2), Fraction(1, 3)
        cases = [(_grid_plus_two(a, b), k)
                 for a, b in ((3, 4), (4, 4), (3, 5), (4, 5), (3, 6)) for k in (2, 3, 4)]
        for base, u, v in (((0, 0, 0), (half, 0, third), (0, 2 * third, half)),
                           ((1, half, 0), (1, 1, third), (-half, 1, 2))):
            cases += [(_grid_plus_two(4, 4, base, u, v), k) for k in (2, 3)]

        def result(res):
            return res.points, res.forced, res.k, res.added_points, res.verdict

        added = 0
        for pts, k in cases:
            got = plane_kernel_r3(pts, k)
            with monkeypatch.context() as patch:
                patch.setattr(kernel, "_replacement_point", reference_replacement_point)
                want = plane_kernel_r3(pts, k)
            assert result(got) == result(want), (pts, k)
            added += len(got.added_points)
        assert added >= 90

    def test_degenerate_plane_adds_one_pinned_point(self):
        """degenerate-plane k=4 m=4 seed 2 at budget 3 restores one damaged
        line, with the point at its least good parameter."""
        pts = generate("degenerate-plane", {"k": 4, "m": 4}, seed=2).points
        res = plane_kernel_r3(pts, 3)
        assert res.added_points == (pt(1, 3, 1),)


def _replacement_cases(seed, count):
    """(line, points): 3 to 12 distinct points of [-3, 3]^3, in about 30 % of
    cases divided by 2 or 3, and a line through two of them with up to 5
    more points on it, at integer and half-integer parameters."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        den = rng.choice((2, 3)) if rng.random() < 0.3 else 1
        pts = list(dict.fromkeys(pt(*(Fraction(rng.randint(-3, 3), den) for _ in range(3)))
                                 for _ in range(rng.randint(3, 12))))
        if len(pts) < 2:
            continue
        line = line_through(*rng.sample(pts, 2))
        for _ in range(rng.randint(0, 5)):
            t = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))
            on = pt(*(b + t * d for b, d in zip(line.base, line.basis[0])))
            if on not in pts:
                pts.append(on)
        rng.shuffle(pts)
        cases.append((line, pts))
    return cases


class TestReplacementPoint:
    def test_skips_every_bad_parameter(self):
        # on the x-axis, points sit at t = 0 and 2, and the lines through
        # (1, 1, 0) and (1, -1, 0), through (3, 1, 1) and (3, -1, -1), and
        # through (5, 2, 0) and (3, -2, 0) cross it at t = 1, 3 and 4; no
        # pair crosses it at t = 5
        P = [pt(0, 0, 0), pt(2, 0, 0), pt(1, 1, 0), pt(1, -1, 0),
             pt(3, 1, 1), pt(3, -1, -1), pt(5, 2, 0), pt(3, -2, 0)]
        xaxis = line_through(P[0], P[1])
        assert xaxis.base == (0, 0, 0) and xaxis.basis[0] == (1, 0, 0)
        got = _replacement_point(xaxis, P)
        assert got == pt(5, 0, 0) == reference_replacement_point(xaxis, P)
        assert flat_contains(xaxis, got) and got not in P
        for a, b in itertools.combinations(P, 2):
            if not (flat_contains(xaxis, a) and flat_contains(xaxis, b)):
                assert not _collinear3(got, a, b)

    def test_matches_the_fraction_reference(self):
        """The same point as the repair that tests each parameter against
        every pair of points in Fractions."""
        rejected = fractional = 0
        for line, pts in _replacement_cases(61, 2000):
            got = _replacement_point(line, pts)
            assert got == reference_replacement_point(line, pts), (line, pts)
            rejected += got != pt(*line.base)
            fractional += any(c.denominator > 1 for c in got)
        assert rejected >= 200 and fractional >= 200


# the lattice points at distance 5 from the origin
_RADIUS5 = ((5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
            (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3))


@st.composite
def _clustered_curves(draw, fam):
    """At most 12 distinct integer points (one to three clusters of 3 to 7
    points on curves of `fam`, then up to 6 noise points) and a budget of 1
    to 4."""
    coord = st.integers(-4, 4)
    steps = st.lists(st.integers(-3, 3), min_size=3, max_size=7, unique=True)
    points = []
    for _ in range(draw(st.integers(1, 3))):
        if fam is LINE2:
            (bx, by), (dx, dy) = draw(st.tuples(coord, coord)), draw(st.tuples(coord, coord).filter(any))
            points += [(bx + t * dx, by + t * dy) for t in draw(steps)]
        elif fam is CIRCLE2:
            cx, cy = draw(coord), draw(coord)
            offsets = draw(st.lists(st.sampled_from(_RADIUS5), min_size=3, max_size=7, unique=True))
            points += [(cx + a, cy + b) for a, b in offsets]
        else:
            a, b, c = draw(st.integers(-2, 2).filter(bool)), draw(coord), draw(coord)
            points += [(x, a * x * x + b * x + c) for x in draw(steps)]
    points += draw(st.lists(st.tuples(coord, coord), max_size=6))
    return [pt(*p) for p in list(dict.fromkeys(points))[:12]], draw(st.integers(1, 4))


@st.composite
def _clustered_planes(draw):
    """At most 12 distinct integer points in R^3 (a collinear cluster, one or
    two coplanar clusters of 3 to 8 points and up to 4 noise points) and a
    budget of 1 to 3."""
    coord = st.integers(-3, 3)
    vec = st.tuples(coord, coord, coord)
    step = st.integers(-2, 2)
    base, d = draw(vec), draw(vec.filter(any))
    points = [tuple(b + t * x for b, x in zip(base, d))
              for t in draw(st.lists(step, min_size=3, max_size=5, unique=True))]
    for _ in range(draw(st.integers(1, 2))):
        base, u, v = draw(vec), draw(vec.filter(any)), draw(vec.filter(any))
        points += [tuple(b + s * x + t * y for b, x, y in zip(base, u, v))
                   for s, t in draw(st.lists(st.tuples(step, step), min_size=3, max_size=8,
                                             unique=True))]
    points += draw(st.lists(vec, max_size=4))
    return [pt(*p) for p in list(dict.fromkeys(points))[:12]], draw(st.integers(1, 3))


@st.composite
def _tiled_curves(draw, fam):
    """A curve C through s*k points, each of them on one of k planted curves
    of `fam` that hold s points of C and e more each (k = 4 and e = 2 for
    lines, k = 3 and e = 3 for circles and parabolas), at budget k. The
    planted curves cover every point; C, the richest curve, is one point
    short of forcing; and once forced it would leave e points on each planted
    curve, which k - 1 curves do not cover in general position."""
    k, e = (4, 2) if fam is LINE2 else (3, 3)
    small = st.integers(-4, 4)
    nonzero = small.filter(bool)
    points = []
    if fam is LINE2:
        m0, c0 = draw(small), draw(small)
        for x in draw(st.lists(small, min_size=k, max_size=k, unique=True)):
            m = draw(small.filter(lambda v: v != m0))
            y = m0 * x + c0
            points += [(x, y)] + [(x + t, y + m * t) for t in
                                  draw(st.lists(nonzero, min_size=e, max_size=e, unique=True))]
    elif fam is VPARABOLA2:
        a, b, c = draw(nonzero), draw(small), draw(small)
        xs = draw(st.lists(st.integers(-6, 6), min_size=2 * k, max_size=2 * k, unique=True))
        for p, q in zip(xs[::2], xs[1::2]):
            lam = draw(nonzero.filter(lambda v: v != -a))
            extra = draw(st.lists(st.integers(-6, 6).filter(lambda x: x not in (p, q)),
                                  min_size=e, max_size=e, unique=True))
            points += [(x, a * x * x + b * x + c + lam * (x - p) * (x - q)) for x in [p, q] + extra]
    else:
        on_c = draw(st.lists(st.sampled_from(_RADIUS5), min_size=2 * k, max_size=2 * k, unique=True))
        for (px, py), (qx, qy) in zip(on_c[::2], on_c[1::2]):
            # the centres on the bisector of P and Q, which passes through C's
            vx, vy = (px + qx, py + qy) if (px + qx, py + qy) != (0, 0) else (-py, px)
            mu = Fraction(draw(nonzero), 2)
            zx, zy = mu * vx, mu * vy
            points += [(px, py), (qx, qy)]
            for m in draw(st.lists(small, min_size=e, max_size=e, unique=True)):
                # the second point of the circle on the line through P along (1, m)
                tau = -2 * ((px - zx) + m * (py - zy)) / (1 + m * m)
                points.append((px + tau, py + tau * m))
    return [pt(*p) for p in dict.fromkeys(points)], k


@st.composite
def _tiled_plane(draw):
    """A plane H of k(k+1) points on k lines of k+1 points each, at k = 2,
    each line in a planted plane with two more points off H, at budget k.
    The planted planes cover every point; H, the richest plane, is one point
    short of forcing; and once forced it would leave two points on each
    planted plane, which one plane does not cover in general position."""
    k, e = 2, 2
    coord = st.integers(-3, 3)
    points = []
    for y in draw(st.lists(coord, min_size=k, max_size=k, unique=True)):
        a, b = draw(coord), draw(coord)
        points += [(x, y, 0) for x in draw(st.lists(coord, min_size=k + 1, max_size=k + 1,
                                                    unique=True))]
        points += [(x + t * a, y + t * b, t) for x, t in
                   draw(st.lists(st.tuples(coord, coord.filter(bool)), min_size=e, max_size=e,
                                 unique=True))]
    return [pt(*p) for p in dict.fromkeys(points)], k


def _assert_kernel_properties(points, fam, k, kern, bound):
    """The kernel's instance is equisolvable with the input, has at most
    `bound` points, and its forced objects plus an oracle cover of its points
    cover the input within k."""
    truth = oracle_min_cover(points, fam).opt <= k
    if kern.rejected:
        assert not truth
        return
    assert len(kern.points) <= bound
    rest = oracle_min_cover(kern.points, fam)
    assert truth == (rest.opt <= kern.k)
    if truth:
        assert check_cover(points, list(kern.forced) + rest.witness, k)


class TestKernelProperties:
    @pytest.mark.parametrize("fam", (LINE2, CIRCLE2, VPARABOLA2), ids=lambda f: f.kind)
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_curve_kernel(self, fam, data):
        points, k = data.draw(_clustered_curves(fam))
        kern = curve_kernel(points, fam, k)
        _assert_kernel_properties(points, fam, k, kern, fam.s * kern.k ** 2)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(_clustered_planes())
    def test_plane_kernel(self, instance):
        points, k = instance
        kern = plane_kernel_r3(points, k)
        _assert_kernel_properties(points, PLANE3, k, kern, kern.k ** 3 + kern.k ** 2)

    # instances whose other objects tile a rich object that falls one point
    # short of the forcing threshold
    @pytest.mark.parametrize("fam", (LINE2, CIRCLE2, VPARABOLA2), ids=lambda f: f.kind)
    @settings(derandomize=True, database=None, max_examples=15, deadline=None)
    @given(data=st.data())
    def test_curve_kernel_on_tilings(self, fam, data):
        points, k = data.draw(_tiled_curves(fam))
        kern = curve_kernel(points, fam, k)
        _assert_kernel_properties(points, fam, k, kern, fam.s * kern.k ** 2)

    @settings(derandomize=True, database=None, max_examples=15, deadline=None)
    @given(_tiled_plane())
    def test_plane_kernel_on_tilings(self, instance):
        points, k = instance
        kern = plane_kernel_r3(points, k)
        _assert_kernel_properties(points, PLANE3, k, kern, kern.k ** 3 + kern.k ** 2)
