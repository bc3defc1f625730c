import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incidence_reference as reference
from conftest import degenerate_curve_instances, random_points_2d, random_points_3d
from curve_intersections import curves_intersect
from geomcover.geometry import (
    CIRCLE2,
    LINE2,
    PLANE3,
    VPARABOLA2,
    Fits,
    GeometryError,
    candidate_cover_sets,
    check_cover,
    curve_covers,
    curve_fits,
    enumerate_candidates,
    line_fits3,
    plane_covers,
    plane_fits3,
    pt,
)
from geomcover.instances import generate
from geomcover.kernel import _replacement_point
from incidence_reference import (
    affine_hull,
    circle2_curve,
    covering_curve,
    curve_through,
    fit_pairs,
    flat_contains,
    line2_curve,
    line_through,
    make_flat,
    plane3_curve,
    plane_through,
    vparabola2_curve,
)

CURVE_FAMILIES = (LINE2, CIRCLE2, VPARABOLA2)


class TestRandomGridPoints:
    def test_a_full_grid_is_drawn_and_an_overfull_one_is_refused(self):
        rng = random.Random(5)
        assert len(set(random_points_3d(rng, 8, span=1))) == 8
        assert len(set(random_points_2d(rng, 4, span=1))) == 4
        with pytest.raises(ValueError):
            random_points_3d(rng, 9, span=1)
        with pytest.raises(ValueError):
            random_points_2d(rng, 5, span=1)


class TestCurveThrough:
    def test_line_two_points(self):
        assert curve_through(LINE2, [pt(0, 0), pt(1, 1)]) == (line2_curve(1, -1, 0),)

    def test_circle_right_triangle(self):
        assert curve_through(CIRCLE2, [pt(0, 0), pt(2, 0), pt(0, 2)]) == (circle2_curve(1, 1, 2),)

    def test_parabola_three_points(self):
        assert curve_through(VPARABOLA2, [pt(0, 0), pt(1, 1), pt(2, 4)]) == (vparabola2_curve(1, 0, 0),)

    def test_parabola_repeated_x_is_empty(self):
        assert curve_through(VPARABOLA2, [pt(0, 0), pt(0, 1)]) == ()

    def test_collinear_three_no_circle_no_parabola(self):
        collinear = [pt(0, 0), pt(1, 1), pt(2, 2)]
        assert curve_through(CIRCLE2, collinear) == ()
        assert curve_through(VPARABOLA2, collinear) == ()

    def test_duplicates_rejected(self):
        with pytest.raises(GeometryError):
            curve_through(LINE2, [pt(0, 0), pt(0, 0)])

    def test_small_sets_get_a_completion(self):
        for fam in CURVE_FAMILIES:
            for pts in ([pt(2, 3)], [pt(2, 3), pt(4, 1)]):
                if len(pts) >= fam.s + 1:
                    continue
                fits = curve_through(fam, pts)
                assert fits, (fam.kind, pts)
                assert all(curve_covers(fits[0], p) for p in pts)

    def test_roundtrip_random(self):
        # fit then substitute: every defining point must test as covered
        rng = random.Random(101)
        for fam in CURVE_FAMILIES:
            done = 0
            while done < 1000:
                size = rng.randint(1, fam.s + 1)
                pts = random_points_2d(rng, size, span=9)
                fits = curve_through(fam, pts)
                for c in fits:
                    assert all(curve_covers(c, p) for p in pts), (fam.kind, pts, c)
                done += 1


class TestMembership:
    def test_line(self):
        assert curve_covers(line2_curve(1, -1, 0), pt(5, 5))

    def test_circle(self):
        assert curve_covers(circle2_curve(0, 0, 25), pt(3, 4))

    def test_parabola_miss(self):
        assert not curve_covers(vparabola2_curve(1, 0, 0), pt(2, 5))

    def test_richness(self):
        xaxis, circle = line2_curve(0, 1, 0), circle2_curve(0, 0, 25)
        assert sum(curve_covers(xaxis, p) for p in [pt(0, 0), pt(1, 0), pt(1, 1)]) == 2
        assert sum(curve_covers(xaxis, p) for p in []) == 0
        assert sum(curve_covers(circle, p) for p in [pt(3, 4), pt(5, 0), pt(0, 5), pt(1, 1)]) == 3


class TestIntersections:
    def test_lines_cross(self):
        points, count = curves_intersect(line2_curve(1, 0, 0), line2_curve(0, 1, 0))
        assert points == (pt(0, 0),) and count == 1

    def test_parallel_lines(self):
        assert curves_intersect(line2_curve(0, 1, 0), line2_curve(0, 1, -1)) == ((), 0)

    def test_circles_symmetric(self):
        points, count = curves_intersect(circle2_curve(0, 0, 25), circle2_curve(6, 0, 25))
        assert set(points) == {pt(3, 4), pt(3, -4)} and count == 2

    def test_circles_irrational_counted(self):
        # x^2+y^2=2 meets (x-3)^2+y^2=2 at x=3/2, y^2=-1/4: none; shift to
        # radical x=1 on r2=2: y^2=1 rational; use r2=3 for irrational y
        points, count = curves_intersect(circle2_curve(0, 0, 3), circle2_curve(2, 0, 3))
        assert points == () and count == 2

    def test_identical_rejected(self):
        with pytest.raises(GeometryError):
            curves_intersect(line2_curve(1, 0, 0), line2_curve(1, 0, 0))

    def test_pairwise_bound_exhaustive(self):
        # every same-family pair over candidates of random 8-point sets meets <= s times
        rng = random.Random(77)
        for fam in CURVE_FAMILIES:
            pts = random_points_2d(rng, 8)
            cands = enumerate_candidates(pts, fam)
            for c1, c2 in itertools.combinations(cands, 2):
                _, count = curves_intersect(c1, c2)
                assert count <= fam.s, (fam.kind, c1, c2)


class TestEnumeration:
    def test_grid_2x2_has_six_lines(self):
        grid = [pt(0, 0), pt(0, 1), pt(1, 0), pt(1, 1)]
        assert len(enumerate_candidates(grid, LINE2)) == 6

    def test_collinear_dedup(self):
        assert len(enumerate_candidates([pt(0, 0), pt(1, 1), pt(2, 2)], LINE2)) == 1
        assert len(enumerate_candidates([pt(0, 0), pt(1, 0), pt(0, 1)], LINE2)) == 3

    def test_matches_naive_double_loop(self):
        rng = random.Random(5)
        for fam in CURVE_FAMILIES:
            pts = random_points_2d(rng, 9)
            naive = set()
            for combo in itertools.combinations(pts, fam.d):
                naive.update(curve_through(fam, combo))
            got = enumerate_candidates(pts, fam)
            assert got == sorted(naive)
            assert all(sum(curve_covers(c, p) for p in pts) >= fam.d for c in got)

    def test_curve_masks_match_brute_force(self):
        # every d-tuple fitted, every point tested; clusters give curves
        # through 5 points and vparabola2 pairs that no parabola fits
        # (a curve first fitted at a later tuple lands later in `brute`, so
        # the list comparison checks the discovery order too)
        for own, pts in degenerate_curve_instances():
            for fam in CURVE_FAMILIES:
                brute = {}
                for combo in itertools.combinations(pts, fam.d):
                    for c in curve_through(fam, combo):
                        brute[c] = sum(1 << i for i, p in enumerate(pts) if curve_covers(c, p))
                got = fit_pairs(curve_fits(pts, fam))
                assert got == list(brute.items()), fam.kind
                if fam == own:
                    assert max(m.bit_count() for m in brute.values()) >= 5
        with pytest.raises(GeometryError):
            curve_fits([pt(0, 0), pt(1, 1), pt(0, 0)], LINE2)

    def test_3d_masks_match_fraction_predicates(self):
        # the masks come from point pairs and triples; every point on a line
        # or plane must be in its mask, checked point by point
        rng = random.Random(8)
        sets = [random_points_3d(rng, 9), random_points_3d(rng, 12, span=2),
                [pt(i, 0, 0) for i in range(4)] + [pt(i, j, 0) for i in range(2) for j in (1, 2)]
                + random_points_3d(rng, 3, span=5)]
        for pts in sets:
            pairs = sorted({line_through(p, q) for p, q in itertools.combinations(pts, 2)})
            lines = fit_pairs(line_fits3(pts))
            assert [line for line, _ in lines] == pairs
            for line, mask in lines:
                assert mask == sum(1 << i for i, p in enumerate(pts) if flat_contains(line, p))
            planes = fit_pairs(plane_fits3(pts))
            assert [plane for plane, _ in planes] == enumerate_candidates(pts, PLANE3)
            for plane, mask in planes:
                assert mask == sum(1 << i for i, p in enumerate(pts) if plane_covers(plane, p))

    def test_canonical_idempotent(self):
        rng = random.Random(6)
        pts = random_points_2d(rng, 7)
        for fam in CURVE_FAMILIES:
            for c in enumerate_candidates(pts, fam):
                rebuilt = type(c)(c.kind, c.coeffs)
                assert rebuilt == c


def _affine(points, scale, shift):
    """Each point times `scale`, plus `shift` in every coordinate."""
    return [pt(*(scale * c + shift for c in p.coords)) for p in points]


def _rational_points(rng, n, dim):
    """Distinct points on a coarse grid of mixed, coprime and negative
    denominators, so that collinear, concyclic and coplanar sets occur."""
    out = []
    while len(out) < n:
        p = pt(*(Fraction(rng.randint(-3, 3), rng.choice((1, 2, -3, 4, -5, 7))) for _ in range(dim)))
        if p not in out:
            out.append(p)
    return out


def _paraboloid(points):
    """2D points lifted onto z = x^2 + y^2, where the concyclic and collinear
    ones become coplanar."""
    return [pt(x, y, x * x + y * y) for x, y in points]


class TestIntegerIncidence:
    """The integer builders against the Fraction reference builders: equal
    objects, masks and order."""

    def assert_curves_match(self, pts):
        for fam in CURVE_FAMILIES:
            assert fit_pairs(curve_fits(pts, fam)) == reference.curve_masks(pts, fam), (fam.kind, pts)
            for combo in itertools.chain(*(itertools.combinations(pts, size)
                                           for size in range(1, fam.d))):
                assert curve_through(fam, combo) == reference.curve_completion(fam, combo), (
                    fam.kind, combo)

    def assert_flats_match(self, pts):
        assert fit_pairs(line_fits3(pts)) == reference.line_masks3(pts), pts
        assert fit_pairs(plane_fits3(pts)) == reference.plane_masks3(pts), pts

    def test_degenerate_curve_instances(self):
        for _, pts in degenerate_curve_instances():
            self.assert_curves_match(pts)
            self.assert_flats_match(_paraboloid(pts))

    def test_rational_coordinates(self):
        rng = random.Random(31)
        for _ in range(12):
            pts = _rational_points(rng, 9, 2)
            self.assert_curves_match(pts)
            for fam in CURVE_FAMILIES:
                for combo in itertools.combinations(pts[:6], fam.d):
                    assert curve_through(fam, combo) == reference.curve_fit(fam, combo)
            self.assert_flats_match(_rational_points(rng, 9, 3))

    def test_translated_and_dilated_copies(self):
        # the maps keep every incidence, so the discovery-order curve masks
        # are unchanged; the objects move, so the sorted 3D lists may reorder
        big = 10 ** 12
        maps = ((Fraction(-2, 3), Fraction(5, 7)), (big, big + 1), (Fraction(1, big), -big),
                (Fraction(7, 3), Fraction(-1, 6)))
        rng = random.Random(37)
        sets2 = [pts for _, pts in degenerate_curve_instances()[::2]] + [_rational_points(rng, 8, 2)]
        for pts in sets2:
            for scale, shift in maps:
                moved = _affine(pts, scale, shift)
                self.assert_curves_match(moved)
                for fam in CURVE_FAMILIES:
                    assert curve_fits(moved, fam).masks == curve_fits(pts, fam).masks
        sets3 = [list(generate("degenerate-plane", {"k": 2, "m": 4}, seed=5).points),
                 _rational_points(rng, 8, 3)]
        for pts in sets3:
            for scale, shift in maps:
                moved = _affine(pts, scale, shift)
                self.assert_flats_match(moved)
                assert sorted(plane_fits3(moved).masks) == sorted(plane_fits3(pts).masks)

    def test_coordinates_near_10_to_the_12(self):
        rng = random.Random(41)
        big = 10 ** 12
        pts = [pt(big + rng.randint(-3, 3), big + rng.randint(-3, 3)) for _ in range(12)]
        self.assert_curves_match(list(dict.fromkeys(pts)))
        pts = [pt(*(big * rng.randint(-2, 2) + rng.randint(-2, 2) for _ in range(3))) for _ in range(12)]
        self.assert_flats_match(list(dict.fromkeys(pts)))

    def test_degenerate_plane_instances(self):
        for seed in range(4):
            self.assert_flats_match(list(generate("degenerate-plane", {"k": 2, "m": 5}, seed=seed).points))

    def test_plane_found_after_a_collinear_triple(self):
        # points 0, 1, 2 are collinear, so the plane z = 0 is first fitted at
        # (0, 1, 3): point 2 lies below the last fitting point but on the plane
        pts = [pt(0, 0, 0), pt(1, 0, 0), pt(2, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 0)]
        self.assert_flats_match(pts)
        assert dict(fit_pairs(plane_fits3(pts)))[plane3_curve(0, 0, 1, 0)] == 0b101111

    def test_replacement_points(self):
        # replacement points lie on lines in canonical form, whose base and
        # direction are rational
        pts = list(generate("degenerate-plane", {"k": 2, "m": 5}, seed=2).points)
        for line, _ in fit_pairs(line_fits3(pts))[:6]:
            for _ in range(2):
                pts.append(_replacement_point(line, pts))
        assert any(c.denominator > 1 for p in pts for c in p.coords)
        self.assert_flats_match(pts)
        self.assert_curves_match(list(dict.fromkeys(pt(x, y) for x, y, _ in pts)))


def _with_equal_rows(fits):
    """`fits` with more integer rows of its objects: a curve's or plane's row
    times -3, 2 and -1, and a 3D line's point moved along it with its
    direction times -2 or 3. The negative multiples give negative
    denominators."""
    if fits.kind == "line3":
        more = [((tuple(pk + t * dk for pk, dk in zip(p, d)), tuple(f * dk for dk in d)), m)
                for (p, d), m in zip(fits.rows, fits.masks) for t, f in ((1, -2), (-2, 3))]
    else:
        more = [(tuple(f * x for x in row), m)
                for row, m in zip(fits.rows, fits.masks) for f in (-3, 2, -1)]
    return Fits(fits.kind, fits.scale, fits.rows + [row for row, _ in more],
                fits.masks + [m for _, m in more])


def _near_10_to_the_12(rng, n, dim):
    """Distinct points with coordinates 10^12 * [-2, 2] plus a small fraction."""
    return list(dict.fromkeys(
        pt(*(10 ** 12 * rng.randint(-2, 2) + Fraction(rng.randint(-9, 9), rng.choice((1, -2, 3)))
             for _ in range(dim))) for _ in range(n)))


class TestOrderKeys:
    """`Fits.keys()` compare, for every pair of rows of each builder, as the
    built objects do: less exactly when the objects are less, equal exactly
    when they are equal (rows of one object, among them rows with negative
    denominators, get one key)."""

    def assert_keys_order_objects(self, fits):
        """Every pair, checked on the neighbours in key order: where the keys
        are sorted, the objects step up exactly where the keys do, and then
        by transitivity every pair compares alike."""
        keys = fits.keys()
        order = sorted(range(len(keys)), key=keys.__getitem__)
        objs = [fits.obj(i) for i in order]
        for (a, b), (x, y) in zip(itertools.pairwise(order), itertools.pairwise(objs)):
            assert (keys[a] < keys[b]) == (x < y) and (keys[a] == keys[b]) == (x == y), (x, y)

    def assert_all(self, pts):
        builders = ([lambda p, fam=fam: curve_fits(p, fam) for fam in CURVE_FAMILIES]
                    if pts[0].dim == 2 else [line_fits3, plane_fits3])
        for build in builders:
            fits = build(pts)
            self.assert_keys_order_objects(fits)
            self.assert_keys_order_objects(_with_equal_rows(fits))
            if fits.kind in ("line3", "plane3"):
                assert fits.keys() == sorted(fits.keys())  # the lists are in canonical order

    def test_seeded_point_sets(self):
        rng = random.Random(47)
        sets = [pts for _, pts in degenerate_curve_instances()]
        sets += [_paraboloid(pts) for pts in sets[::3]]
        sets += [list(generate("degenerate-plane", {"k": 2, "m": 5}, seed=s).points) for s in range(3)]
        sets += [_rational_points(rng, 8, dim) for dim in (2, 3) for _ in range(3)]
        sets += [_near_10_to_the_12(rng, 9, dim) for dim in (2, 3)]
        sets += [_affine(pts, Fraction(1, 10 ** 12), 10 ** 12 + 1) for pts in sets[:2]]
        for pts in sets:
            self.assert_all(pts)

    _coord = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, -3, 5, -7)))

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.integers(2, 3), st.sampled_from((0, 10 ** 12)),
           st.lists(st.tuples(_coord, _coord, _coord), min_size=3, max_size=7))
    def test_rational_points(self, dim, offset, coords):
        """Rational coordinates over mixed and negative denominators, all
        shifted by 0 or by 10^12."""
        pts = list(dict.fromkeys(pt(*(offset + c for c in p[:dim])) for p in coords))
        if len(pts) >= 3:
            self.assert_all(pts)


class TestDimensionChecks:
    def test_curve_masks_rejects_3d_points(self):
        for fam in CURVE_FAMILIES:
            for n in (1, fam.d - 1, fam.d, 5):
                with pytest.raises(GeometryError):
                    curve_fits([pt(i, i * i, 1) for i in range(n)], fam)
        with pytest.raises(GeometryError):
            curve_fits([pt(0, 0), pt(1, 0), pt(0, 1, 2)], CIRCLE2)

    def test_line_masks3_rejects_2d_points(self):
        for n in (1, 4):
            with pytest.raises(GeometryError):
                line_fits3([pt(i, 2 * i) for i in range(n)])
        with pytest.raises(GeometryError):
            line_fits3([pt(0, 0, 0), pt(1, 0)])

    def test_plane_masks3_rejects_2d_points(self):
        with pytest.raises(GeometryError):
            plane_fits3([pt(0, 0), pt(1, 0), pt(0, 1), pt(2, 3)])
        with pytest.raises(GeometryError):
            plane_fits3([pt(0, 0, 0), pt(1, 0, 0), pt(0, 1)])


class TestFlats:
    def test_plane_through(self):
        assert plane_through(pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)) == plane3_curve(0, 0, 1, 0)

    def test_plane_through_line_point(self):
        xaxis = line_through(pt(0, 0, 0), pt(1, 0, 0))
        assert reference.plane_through_line_point(xaxis, pt(0, 0, 1)) == plane3_curve(0, 1, 0, 0)
        with pytest.raises(GeometryError):
            reference.plane_through_line_point(xaxis, pt(5, 0, 0))

    def test_collinear_triple_rejected(self):
        with pytest.raises(GeometryError):
            plane_through(pt(0, 0, 0), pt(1, 1, 1), pt(2, 2, 2))

    def test_affine_hull(self):
        xaxis = line_through(pt(0, 0, 0), pt(1, 0, 0))
        assert affine_hull([pt(0, 0, 0), pt(1, 0, 0)]) == xaxis
        h = affine_hull([xaxis, pt(0, 1, 0)])
        assert h.dim == 2 and flat_contains(h, pt(7, -2, 0))
        assert affine_hull([pt(0, 0, 0)]).dim == 0
        assert affine_hull([pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)]).dim == 3

    def test_hull_monotone(self):
        rng = random.Random(8)
        for _ in range(50):
            pts = random_points_3d(rng, rng.randint(1, 5))
            h1 = affine_hull(pts)
            extra = random_points_3d(rng, 1)[0]
            h2 = affine_hull(pts + [extra])
            if h2.dim < 3:
                assert flat_contains(h2, h1)

    def test_flat_contains(self):
        z0 = plane_through(pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0))
        xaxis = line_through(pt(0, 0, 0), pt(1, 0, 0))
        assert flat_contains(z0, xaxis)
        assert not flat_contains(z0, pt(1, 1, 1))
        assert flat_contains(xaxis, make_flat(pt(3, 0, 0).coords, []))

    def test_flat_canonical_form_unique(self):
        # same line from different spans
        l1 = line_through(pt(0, 0, 0), pt(2, 2, 0))
        l2 = line_through(pt(5, 5, 0), pt(-1, -1, 0))
        assert l1 == l2


class TestCoverSets:
    def test_collinear_pairs_available_for_circles(self):
        # no circle through three collinear points, so pair sets must exist
        sets = candidate_cover_sets([pt(0, 0), pt(1, 0), pt(2, 0)], CIRCLE2)
        assert sorted(m for _, m in sets) == [3, 5, 6]

    def test_every_coverable_subset_dominated(self):
        rng = random.Random(9)
        for fam in CURVE_FAMILIES:
            pts = random_points_2d(rng, 7)
            sets = [m for _, m in candidate_cover_sets(pts, fam)]
            for r in range(1, len(pts) + 1):
                for combo in itertools.combinations(range(len(pts)), r):
                    if covering_curve(fam, [pts[i] for i in combo]) is None:
                        continue
                    mask = sum(1 << i for i in combo)
                    assert any(mask & m == mask for m in sets), (fam.kind, combo)

    def test_check_cover(self):
        grid = [pt(0, 0), pt(0, 1), pt(1, 0), pt(1, 1)]
        rows = [line2_curve(0, 1, 0), line2_curve(0, 1, -1)]
        assert check_cover(grid, rows, 2)
        assert not check_cover(grid, rows, 1)
        assert not check_cover(grid, rows[:1], 2)


class TestCandidateCoverSets:
    """`candidate_cover_sets`, built from the integer rows, against the
    Fraction enumerator (`incidence_reference.candidate_cover_sets`): equal
    objects, masks and order."""

    def assert_matches(self, pts, families=None):
        if families is None:
            families = (PLANE3,) if pts and pts[0].dim == 3 else CURVE_FAMILIES
        for fam in families:
            assert candidate_cover_sets(pts, fam) == reference.candidate_cover_sets(pts, fam), (
                fam.kind, pts)

    def test_empty_and_single_point_inputs(self):
        for fam in CURVE_FAMILIES + (PLANE3,):
            assert candidate_cover_sets([], fam) == [] == reference.candidate_cover_sets([], fam)
        for pts in ([pt(2, -3)], [pt(Fraction(1, -3), 5)], [pt(0, 0), pt(1, 0)], [pt(0, 0), pt(0, 1)]):
            self.assert_matches(pts)
        for pts in ([pt(1, 2, 3)], [pt(Fraction(-1, 2), 0, 7)], [pt(0, 0, 0), pt(0, 0, 1)]):
            self.assert_matches(pts)

    def test_collinear_and_coplanar_clusters(self):
        rng = random.Random(53)
        for _, pts in degenerate_curve_instances():
            self.assert_matches(pts)
            self.assert_matches(_paraboloid(pts))  # its circles and lines become coplanar
        line = [pt(t, 2 * t, 1 - t) for t in range(-2, 3)]
        for extra in ([], [pt(0, 0, 5)], [pt(0, 0, 5), pt(1, 0, 0), pt(3, 3, 3)]):
            self.assert_matches(line + extra)
        for _ in range(6):
            self.assert_matches(random_points_3d(rng, 9, span=2))
            self.assert_matches(random_points_2d(rng, 9, span=3))

    def test_degenerate_plane_instances(self):
        for seed in range(3):
            self.assert_matches(list(generate("degenerate-plane", {"k": 2, "m": 4}, seed=seed).points))

    def test_rational_points_with_mixed_and_negative_denominators(self):
        rng = random.Random(59)
        for _ in range(6):
            self.assert_matches(_rational_points(rng, 8, 2))
            self.assert_matches(_rational_points(rng, 8, 3))

    def test_coordinates_near_10_to_the_12(self):
        rng = random.Random(61)
        for dim in (2, 3):
            self.assert_matches(_near_10_to_the_12(rng, 9, dim))
        big = 10 ** 12
        self.assert_matches([pt(big + rng.randint(-3, 3), big + rng.randint(-3, 3)) for _ in range(4)]
                            + [pt(big, big + 7), pt(-big, Fraction(big, 3))])

    def test_repeated_x_for_vertical_parabolas(self):
        # columns of points sharing an x: no parabola through two of them
        self.assert_matches([pt(x, y) for x in (-1, 0, 2) for y in (0, 1, 4)], (VPARABOLA2,))
        self.assert_matches([pt(0, 0), pt(0, 1), pt(0, -1), pt(Fraction(1, 2), 3)], (VPARABOLA2,))
        self.assert_matches([pt(x, x * x) for x in range(-2, 3)] + [pt(1, 0), pt(-2, 0)], (VPARABOLA2,))

    _coord = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, -3, 4)))

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(st.sampled_from(CURVE_FAMILIES + (PLANE3,)), st.sampled_from((0, 10 ** 12)),
           st.lists(st.tuples(_coord, _coord, _coord), max_size=8))
    def test_random_grounds(self, fam, offset, coords):
        pts = list(dict.fromkeys(pt(*(offset + c for c in p[:fam.ambient_dim])) for p in coords))
        self.assert_matches(pts, (fam,))
