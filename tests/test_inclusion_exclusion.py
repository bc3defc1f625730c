import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    c_count,
    degenerate_curve_instances,
    ie_min_cover,
    layer_counter,
    random_points_2d,
    random_points_3d,
)
from counter_reference import (
    FractionPlaneCounter,
    c_of_mask,
    assert_counter_matches_reference,
    assert_table_lists_candidate_cover_sets,
    folded,
    q_count,
    reference_histogram,
    reference_sums,
    reference_terms,
    representative,
    step,
)
import extraction_reference
from extraction_reference import reference_extract_cover
from geomcover import inclusion_exclusion
from geomcover.curve_branch import curve_cover
from geomcover.geometry import (
    CIRCLE2,
    LINE2,
    PLANE3,
    VPARABOLA2,
    Plane3,
    _bits,
    check_cover,
    incidence_layer,
    pt,
)
from geomcover.inclusion_exclusion import (
    DEFAULT_SUBSET_CAP,
    LOW_BLOCK,
    CandidateTable,
    CapExceededError,
    CoverableCounter,
    SolverInternalError,
    _least_budget,
    _self_reduce,
    _signed_histogram,
    _signed_sum,
    extract_cover,
    ie_decide,
    ie_sums,
)
from geomcover.instances import generate
from geomcover.oracle import oracle_min_cover
from incidence_reference import covering_curve, flat_contains, line2_curve, line_through


def brute_coverable_count(pts, fam):
    total = 0
    for r in range(len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            if not sub or covering_curve(fam, sub) is not None:
                total += 1
    return total


class TestRepresentative:
    def test_lines_prefix(self):
        assert representative([pt(0, 0), pt(1, 0), pt(2, 0)], LINE2) == (pt(0, 0), pt(1, 0))

    def test_anyflat_all_three(self):
        tri = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)]
        assert representative(tri, PLANE3) == tuple(tri)

    def test_empty(self):
        assert representative([], LINE2) == ()
        assert representative([], PLANE3) == ()

    def test_anyflat_stops_when_hull_spans(self):
        quad = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0)]
        assert representative(quad, PLANE3) == tuple(quad[:3])

    def test_line_element_prefix(self):
        xaxis = line_through(pt(0, 0, 0), pt(1, 0, 0))
        # a point on the line does not grow the hull past it
        assert representative([xaxis, pt(5, 0, 0)], PLANE3) == (xaxis,)


class TestQCount:
    def test_pair_with_tail(self):
        X = [pt(0, 0), pt(0, 1), pt(1, 0), pt(2, 0)]  # x-then-y order
        assert q_count(X, LINE2, [pt(0, 0), pt(1, 0)]) == 2

    def test_singleton(self):
        X = [pt(0, 0), pt(0, 1), pt(1, 0), pt(2, 0)]
        assert q_count(X, LINE2, [pt(0, 0)]) == 1

    def test_anyflat_coplanar_tail(self):
        quad = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0)]
        assert q_count(quad, PLANE3, quad[:3]) == 2

    def test_invalid_reps_count_zero(self):
        X = [pt(0, 0), pt(0, 1), pt(1, 0)]
        assert q_count(X, LINE2, [pt(1, 0), pt(0, 0)]) == 0  # not ascending
        assert q_count(X, VPARABOLA2, [pt(0, 0), pt(0, 1)]) == 0  # shared x
        tri_collinear = [pt(0, 0, 0), pt(1, 0, 0), pt(2, 0, 0)]
        assert q_count(tri_collinear, PLANE3, tri_collinear) == 0  # hull stalls


class TestCCount:
    def test_three_noncollinear(self):
        assert c_count([pt(0, 0), pt(1, 0), pt(0, 1)], LINE2) == 7

    def test_three_collinear(self):
        assert c_count([pt(0, 0), pt(1, 0), pt(2, 0)], LINE2) == 8

    def test_empty(self):
        assert c_count([], LINE2) == 1

    def test_matches_bruteforce_random(self):
        rng = random.Random(7)
        for fam in (LINE2, CIRCLE2, VPARABOLA2):
            for _ in range(4):
                pts = random_points_2d(rng, 10, span=5)
                assert c_count(pts, fam) == brute_coverable_count(pts, fam)

    def test_order_invariant(self):
        rng = random.Random(13)
        pts = random_points_2d(rng, 8)
        base = c_count(pts, LINE2)
        for _ in range(3):
            rng.shuffle(pts)
            assert c_count(pts, LINE2) == base

    def test_representative_partition_three_orderings(self):
        # sum of q over all candidate representatives equals c for every subset
        rng = random.Random(23)
        pts = random_points_2d(rng, 7, span=3)
        for _ in range(3):
            rng.shuffle(pts)
            for r in range(len(pts) + 1):
                for sub_idx in itertools.combinations(range(len(pts)), r):
                    sub = [pts[i] for i in sub_idx]
                    total = 1  # empty representative
                    for size in (1, 2):
                        for rep in itertools.combinations(sub, size):
                            total += q_count(sub, LINE2, rep)
                    assert total == c_count(sub, LINE2)

    def test_monotone_in_ground(self):
        rng = random.Random(31)
        pts = random_points_2d(rng, 9)
        for fam in (LINE2, CIRCLE2):
            counter = CoverableCounter(incidence_layer(pts, fam))
            full = (1 << 9) - 1
            for _ in range(40):
                small = rng.randrange(1 << 9)
                big = small | rng.randrange(1 << 9)
                assert c_of_mask(counter, small & big) <= c_of_mask(counter, big)
            assert c_of_mask(counter, 0) == 1


class TestDecide:
    def test_single_point(self):
        res = ie_decide([pt(4, 4)], LINE2, 1)
        assert res.decision and res.ie_sum == 1

    def test_three_points(self):
        tri = [pt(0, 0), pt(1, 0), pt(0, 1)]
        assert not ie_decide(tri, LINE2, 1).decision
        assert ie_decide(tri, LINE2, 2).decision
        assert ie_decide([pt(0, 0), pt(1, 0), pt(2, 0)], LINE2, 1).decision

    def test_anyflat_coplanarity(self):
        xaxis = line_through(pt(0, 0, 0), pt(1, 0, 0))

        def decide(points):
            counter = layer_counter(points, [xaxis])
            return _signed_sum(counter, counter.mask, 1, DEFAULT_SUBSET_CAP).decision

        assert decide([pt(0, 1, 0), pt(1, 2, 0)])
        assert not decide([pt(0, 1, 0), pt(0, 0, 1)])

    def test_budget_zero_and_empty(self):
        assert ie_decide([], LINE2, 0).decision
        assert not ie_decide([pt(1, 1)], LINE2, 0).decision

    def test_cap(self):
        pts = [pt(i, i * i) for i in range(27)]
        with pytest.raises(CapExceededError):
            ie_decide(pts, LINE2, 3)
        ie_decide(pts[:5], LINE2, 3, cap=5)
        with pytest.raises(CapExceededError):
            ie_decide(pts[:6], LINE2, 3, cap=5)

    def test_nonnegative_and_monotone_in_k(self):
        rng = random.Random(37)
        for fam in (LINE2, CIRCLE2, VPARABOLA2):
            pts = random_points_2d(rng, rng.randint(4, 9))
            sums = ie_sums(pts, fam, range(0, 6))
            assert all(v >= 0 for v in sums.values())
            assert all(sums[k] <= sums[k + 1] for k in range(5))


class TestMinCover:
    def test_grid(self):
        grid3 = [pt(i, j) for i in range(3) for j in range(3)]
        assert ie_min_cover(grid3, LINE2) == 3

    def test_points_on_circle(self):
        circle_pts = [pt(0, 0), pt(2, 0), pt(0, 2), pt(2, 2)]
        assert ie_min_cover(circle_pts, CIRCLE2) == 1

    def test_general_position_pairs(self):
        assert ie_min_cover([pt(0, 0), pt(1, 2), pt(3, 1), pt(5, 5)], LINE2) == 2

    def test_matches_oracle_random(self):
        rng = random.Random(41)
        for fam in (LINE2, CIRCLE2, VPARABOLA2):
            for _ in range(10):
                pts = random_points_2d(rng, rng.randint(3, 9))
                assert ie_min_cover(pts, fam) == oracle_min_cover(pts, fam).opt


class TestExtract:
    def test_collinear_line(self):
        assert extract_cover([pt(0, 0), pt(1, 0), pt(2, 0)], LINE2, 1) == [line2_curve(0, 1, 0)]

    def test_grid_2x2(self):
        grid = [pt(0, 0), pt(0, 1), pt(1, 0), pt(1, 1)]
        w = extract_cover(grid, LINE2, 2)
        assert check_cover(grid, w, 2)

    def test_grid_3x3(self):
        grid3 = [pt(i, j) for i in range(3) for j in range(3)]
        w = extract_cover(grid3, LINE2, 3)
        assert check_cover(grid3, w, 3)

    def test_no_instance_raises(self):
        with pytest.raises(SolverInternalError):
            extract_cover([pt(0, 0), pt(1, 0), pt(0, 1)], LINE2, 1)

    def test_sum_below_one_raises(self):
        # the check tests the sum it is handed, here on a yes-instance
        counter = CoverableCounter(incidence_layer([pt(0, 0), pt(1, 0), pt(2, 0)], LINE2))
        for total in (0, -3):
            with pytest.raises(SolverInternalError):
                _self_reduce(counter, 1, total, DEFAULT_SUBSET_CAP)
        with pytest.raises(SolverInternalError):  # a wrong sum at budget 0
            _self_reduce(counter, 0, 1, DEFAULT_SUBSET_CAP)
        assert _self_reduce(counter, 1, 1, DEFAULT_SUBSET_CAP) == [line2_curve(0, 1, 0)]

    def test_matches_reference_extraction(self):
        """The witness equals the one of the reference loop, which lists
        candidate_cover_sets afresh and runs a fresh subset sweep per step."""
        cases = [(fam, points, ()) for fam, points in degenerate_curve_instances()]
        for fam, points in _random_curve_grounds(53, 4, 3, 9):
            cases.append((fam, points, ()))
        for points, lines in _random_plane_grounds(59, 12, 3, 7):
            cases.append((PLANE3, points, lines))
        assert sum(1 for _, _, lines in cases if lines) >= 8
        for fam, points, lines in cases:
            k = _min_cover(fam, points, lines)
            for budget in (k, k + 1):
                w = _extract(fam, points, budget, lines)
                ref = reference_extract_cover(points, fam, budget, flats=lines)
                assert repr(w) == repr(ref) and w == ref, (fam, points, lines, budget)
                assert _covers_ground(points, lines, w, budget)

    def test_decides_as_often_as_the_reference(self, monkeypatch):
        """Extraction reads only the objects through the first remaining
        element and skips a cut mask inside one that failed, so it runs one
        sweep per removal that the reference loop decides, over the whole
        pruned list: no more, no fewer."""
        cases = [(fam, points, ()) for fam, points in degenerate_curve_instances()]
        cases += [(fam, points, ()) for fam, points in _random_curve_grounds(53, 4, 6, 10)]
        cases += [(PLANE3, points, lines) for points, lines in _random_plane_grounds(59, 12, 3, 7)]
        calls = {"sweep": 0, "reference": 0}

        def counting(fn, key):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        signed_sum = _signed_sum
        monkeypatch.setattr(inclusion_exclusion, "_signed_sum", counting(signed_sum, "sweep"))
        monkeypatch.setattr(extraction_reference, "reference_decide",
                            counting(extraction_reference.reference_decide, "reference"))
        failed = 0
        for fam, points, lines in cases:
            counter = (layer_counter(points, lines) if lines
                       else CoverableCounter(incidence_layer(points, fam)))
            k = _least_budget(_signed_histogram(counter, counter.mask, DEFAULT_SUBSET_CAP), counter.n)[0]
            total = signed_sum(counter, counter.mask, k, DEFAULT_SUBSET_CAP).ie_sum
            calls.update(sweep=0, reference=0)
            w = _self_reduce(counter, k, total, DEFAULT_SUBSET_CAP)
            sweeps = calls["sweep"]
            assert w == reference_extract_cover(points, fam, k, flats=lines)
            # the reference decides the whole ground once before its steps
            assert sweeps == calls["reference"] - 1, (fam, points, lines)
            failed += sweeps - len(w)
        assert failed >= 15

    def test_random_witnesses_check_out(self):
        rng = random.Random(43)
        for fam in (LINE2, CIRCLE2, VPARABOLA2):
            for _ in range(8):
                pts = random_points_2d(rng, rng.randint(3, 8))
                k = ie_min_cover(pts, fam)
                w = extract_cover(pts, fam, k)
                assert check_cover(pts, w, k)

    def test_anyflat_witness(self):
        xaxis = line_through(pt(0, 0, 0), pt(1, 0, 0))
        points = [pt(0, 1, 0), pt(1, 2, 0), pt(0, 0, 5)]
        k = _min_cover(PLANE3, points, [xaxis])
        w = _extract(PLANE3, points, k, [xaxis])
        assert _covers_ground(points, [xaxis], w, k)


def _min_cover(fam, points, lines):
    """ie_min_cover over the points, then the lines on a layer counter."""
    if not lines:
        return ie_min_cover(points, fam)
    counter = layer_counter(points, lines)
    return _least_budget(_signed_histogram(counter, counter.mask, DEFAULT_SUBSET_CAP), counter.n)[0]


def _covers_ground(points, lines, objects, k):
    """At most k objects cover every point, and each line lies in one of the
    planes among them."""
    return check_cover(points, objects, k) and all(
        any(isinstance(o, Plane3) and flat_contains(o, line) for o in objects) for line in lines)


def _extract(fam, points, budget, lines):
    """extract_cover over the points, then the lines on a layer counter."""
    if not lines:
        return extract_cover(points, fam, budget)
    counter = layer_counter(points, lines)
    total = _signed_sum(counter, counter.mask, budget, DEFAULT_SUBSET_CAP).ie_sum
    return _self_reduce(counter, budget, total, DEFAULT_SUBSET_CAP)


def _random_curve_grounds(seed, copies, lo, hi):
    rng = random.Random(seed)
    return [(fam, random_points_2d(rng, rng.randint(lo, hi)))
            for fam in (LINE2, CIRCLE2, VPARABOLA2) for _ in range(copies)]


def _random_plane_grounds(seed, count, lo, hi):
    """Points on a small grid with 0-3 lines, some through two of the points
    and some through a point and a fresh one."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        points = random_points_3d(rng, rng.randint(lo, hi), span=2)
        lines = []
        for _ in range(rng.randint(0, 3)):
            a = rng.choice(points)
            b = rng.choice(points) if rng.random() < 0.5 else random_points_3d(rng, 1)[0]
            if a != b and line_through(a, b) not in lines:
                lines.append(line_through(a, b))
        out.append((points, lines))
    return out


class TestCandidateTable:
    def test_lists_candidate_cover_sets_of_the_remaining_elements(self):
        """Object for object, mask for mask and in order, the table's list
        through the first element of a remaining mask, with its dominated
        masks pruned, is candidate_cover_sets of the remaining elements cut to
        the objects through that element."""
        rng = random.Random(61)
        grounds = [(fam, points, ()) for fam, points in _random_curve_grounds(67, 10, 3, 10)]
        grounds += [(PLANE3, points, lines) for points, lines in _random_plane_grounds(71, 30, 3, 8)]
        assert sum(1 for _, _, lines in grounds if len(lines) >= 2) >= 5
        for fam, points, lines in grounds:
            counter = (layer_counter(points, lines) if lines
                       else CoverableCounter(incidence_layer(points, fam)))
            table = CandidateTable(counter)
            full = (1 << counter.n) - 1
            assert_table_lists_candidate_cover_sets(
                table, counter, points, lines, fam,
                [full, 0] + [rng.randint(1, full) for _ in range(8)])


    def test_curve_counter_cut_from_a_larger_layer(self):
        """A curve counter over a ground with holes in a larger layer, as a
        search leaf's after the kernel forced curves, has the c values, the
        signed sums and the candidate list of a counter built over the
        ground's points alone."""
        rng = random.Random(83)
        for fam, points in _random_curve_grounds(89, 6, 6, 11):
            layer = incidence_layer(points, fam)
            ground = rng.getrandbits(len(points)) | 1 << rng.randrange(len(points))
            kept = _bits(ground)
            counter = CoverableCounter(layer, ground)
            alone = CoverableCounter(incidence_layer([points[i] for i in kept], fam))
            assert (counter.n, counter.mask) == (len(kept), ground)
            for local in range(1 << len(kept)):
                x = sum(1 << i for j, i in enumerate(kept) if local >> j & 1)
                assert c_of_mask(counter, x) == c_of_mask(alone, local)
            for k in range(4):
                assert (_signed_sum(counter, ground, k, DEFAULT_SUBSET_CAP)
                        == _signed_sum(alone, alone.mask, k, DEFAULT_SUBSET_CAP))
            full = (1 << len(kept)) - 1
            assert_table_lists_candidate_cover_sets(
                CandidateTable(counter), counter, [points[i] for i in kept], (), fam,
                [full] + [rng.randint(0, full) for _ in range(6)])


def _plane_grounds():
    """Small plane grounds: 3-grid point sets, degenerate-plane instances,
    and points with 1-3 lines."""
    rng = random.Random(73)
    grounds = [(random_points_3d(rng, rng.randint(4, 10), span=2), []) for _ in range(8)]
    grounds += [(list(generate("degenerate-plane", {"k": k, "m": m}, seed=s).points), [])
                for k, m, s in ((2, 5, 0), (2, 5, 1), (1, 8, 2))]
    grounds += [(points, lines) for points, lines in _random_plane_grounds(79, 12, 3, 7) if lines]
    return grounds


def _hand_built_plane_grounds():
    """Grounds of points and lines that reach every kind of ground mask of
    the plane counter: points on one line and in no layer plane (1 - P(l) = 1), a line
    in a pencil of three layer planes (1 - P(l) = -2) with four ground
    points on it, ground points on a ground line, and coplanar and skew
    pairs of ground lines."""
    axis = [pt(t, 0, 0) for t in range(4)]
    pencil = [pt(0, 1, 0), pt(0, 0, 1), pt(0, 1, 1)]   # z = 0, y = 0, y = z
    xaxis, yline = line_through(axis[0], axis[1]), line_through(pt(0, 1, 0), pt(1, 1, 0))
    skew, cross = line_through(pt(0, 0, 1), pt(0, 1, 1)), line_through(axis[0], pt(0, 1, 2))
    return [
        ([pt(t, 2 * t, 3 * t) for t in range(6)], []),
        (axis + pencil, []),
        (axis[:3] + pencil, [xaxis]),
        (axis[:2] + [pt(1, 1, 0), pt(0, 0, 1)], [xaxis, yline]),   # parallel
        (axis[1:3] + [pt(0, 1, 1)], [xaxis, cross, skew]),         # crossing, skew
        ([pt(0, 1, 0), pt(5, 5, 5)], [xaxis, skew, yline, cross]),
    ]


class TestPlaneCounterIdentities:
    def test_hand_built_grounds_match_references_on_every_mask(self):
        pencils = set()  # P(l) of the lines with two or more ground elements
        for points, lines in _hand_built_plane_grounds():
            counter = layer_counter(points, lines)
            layer, stamped = counter.layer, {l for _, l in counter._stamped}
            pencils |= {len(ps) for l, ps in enumerate(layer.line_planes)
                        if (layer.lines[l] & counter._points_mask).bit_count() + (l in stamped) >= 2}
            assert_counter_matches_reference(counter, FractionPlaneCounter(points, lines))
            assert_table_lists_candidate_cover_sets(
                CandidateTable(counter), counter, points, lines, PLANE3, range(1 << counter.n))
        assert {0, 2, 3, 4} <= pencils, pencils

    def test_read_terms_match_the_full_scan(self):
        """The counter cuts only the layer's rich planes and lines, the
        pencils of its ground lines and those lines, and finds every read
        term that a scan of every layer plane and line finds."""
        for points, lines in _hand_built_plane_grounds() + _plane_grounds():
            counter = layer_counter(points, lines)
            assert sorted(counter.terms) == reference_terms(counter), (points, lines)

    def test_walk_and_c_of_mask_match_fraction_reference(self):
        grounds = _plane_grounds()
        assert sum(1 for _, lines in grounds if len(lines) >= 2) >= 3
        for points, lines in grounds:
            counter = (layer_counter(points, lines) if lines
                       else CoverableCounter(incidence_layer(points, PLANE3)))
            assert_counter_matches_reference(counter, FractionPlaneCounter(points, lines))

    def test_every_step_is_the_difference_of_c(self):
        for points, lines in _plane_grounds():
            if len(points) + len(lines) > 8:
                continue
            counter = layer_counter(points, lines)
            ref = FractionPlaneCounter(points, lines)
            order = _bits(counter.mask)  # the counter's bit of the reference's element b
            for local in range(1 << ref.n):
                y = sum(1 << e for b, e in enumerate(order) if local >> b & 1)
                for b, e in enumerate(order):
                    if not local >> b & 1:
                        assert (step(counter, e, y)
                                == ref.c_of_mask(local | 1 << b) - ref.c_of_mask(local)), \
                            (points, lines, e, y)

    def test_sums_match_reference(self):
        """The sums over the whole ground, and over proper submask grounds as
        extraction walks them: random ones, and on grounds with lines the
        points alone, the lines alone and a random part of either."""
        rng = random.Random(97)
        for points, lines in _plane_grounds():
            counter = layer_counter(points, lines)
            ref = FractionPlaneCounter(points, lines)
            order = _bits(counter.mask)  # the counter's bit of the reference's element b
            full = (1 << counter.n) - 1
            locals_ = [full] + [rng.randint(1, full - 1) for _ in range(4)]
            if lines:
                on_points = (1 << len(points)) - 1
                on_lines = full & ~on_points
                locals_ += [on_points, on_lines, on_points & rng.randint(1, full),
                            on_lines & rng.randint(1, full)]
            for local in locals_:
                ground = sum(1 << order[b] for b in _bits(local))
                sums = reference_sums(ref, local, range(5))
                for k, total in sums.items():
                    assert _signed_sum(counter, ground, k, DEFAULT_SUBSET_CAP).ie_sum == total, \
                        (points, lines, local, k)
                if local == full and not lines:
                    assert ie_sums(points, PLANE3, range(5)) == sums


class TestOracleEquivalence:
    def test_curves_and_anyflat(self):
        rng = random.Random(47)
        for fam in (LINE2, CIRCLE2, VPARABOLA2):
            for _ in range(20):
                pts = random_points_2d(rng, rng.randint(3, 10))
                for k in (1, 2, 3):
                    assert ie_decide(pts, fam, k).decision == (oracle_min_cover(pts, fam).opt <= k)
        for _ in range(10):
            pts = random_points_3d(rng, rng.randint(3, 7))
            for k in (1, 2):
                assert ie_decide(pts, PLANE3, k).decision == (oracle_min_cover(pts, PLANE3).opt <= k)


def _brute_c(points, fam):
    """c(X) for every subset mask X, from a coverability test of every
    subset Z of the points and a sum over the submasks of X."""
    n = len(points)
    coverable = [not z or covering_curve(fam, [points[i] for i in range(n) if z >> i & 1]) is not None
                 for z in range(1 << n)]
    table = []
    for x in range(1 << n):
        z, total = x, 0
        while True:
            total += coverable[z]
            if not z:
                break
            z = (z - 1) & x
        table.append(total)
    return table


def _brute_signed_sums(c, ground, ks):
    """{k: the sum over the submasks X of `ground` of c[X]^k, negated when
    |ground \\ X| is odd} from a table c of every c(X)."""
    sums = dict.fromkeys(ks, 0)
    sub = ground
    while True:
        sign = -1 if (ground.bit_count() - sub.bit_count()) & 1 else 1
        for k in sums:
            sums[k] += sign * c[sub] ** k
        if not sub:
            return sums
        sub = (sub - 1) & ground


class TestCurveCounterIdentities:
    def test_c_of_mask_matches_brute_force(self):
        for fam, points in degenerate_curve_instances():
            counter = CoverableCounter(incidence_layer(points, fam))
            assert [c_of_mask(counter, x) for x in range(1 << 9)] == _brute_c(points, fam)

    def test_every_gray_step_matches_brute_difference(self):
        for fam, points in degenerate_curve_instances():
            c = _brute_c(points, fam)
            counter = CoverableCounter(incidence_layer(points, fam))
            x = 0
            for i in range(1, 1 << 9):
                e = (i & -i).bit_length() - 1
                y = x & ~(1 << e)
                assert step(counter, e, y) == c[y | 1 << e] - c[y], \
                    (fam.kind, points, e, y)
                x ^= 1 << e
            assert x == 1 << 8  # the walk visited every subset and ends on the top bit

    def test_identity_matches_brute_force_on_whole_and_cut_grounds(self):
        """The identity over a counter's read terms (`c_of_mask`) equals
        brute force on every submask of its ground, on the degenerate and
        block-boundary instances, for the counter over all the points and for
        counters cut to random sub-grounds, whose x-classes and lines hold
        fewer points. The terms read include the vparabola2 x-classes (a = -1
        at t = 1 only there) and the circle2 collinear lines (a = -1 at t = 2
        only there)."""
        rng = random.Random(107)
        kinds = set()  # (family, a, t) of the terms read
        for fam, points in degenerate_curve_instances() + _block_boundary_instances():
            c = _brute_c(points, fam)
            layer = incidence_layer(points, fam)
            full = (1 << len(points)) - 1
            for ground in [full] + [rng.randint(1, full - 1) for _ in range(3)]:
                counter = CoverableCounter(layer, ground)
                assert counter.mask == ground and counter.closed == fam.d
                kinds |= {(fam.kind, a, t) for _, a, t in counter.terms}
                sub = ground
                while True:
                    assert c_of_mask(counter, sub) == c[sub], (fam.kind, points, ground, sub)
                    if not sub:
                        break
                    sub = (sub - 1) & ground
        assert {("line2", 1, 2), ("circle2", 1, 3), ("circle2", -1, 2),
                ("vparabola2", 1, 3), ("vparabola2", -1, 1)} <= kinds, kinds

    def test_sums_match_reference_signed_sum(self):
        """The sums over the whole ground, and over proper submask grounds as
        extraction walks them, on the counter over the whole ground: its
        terms cut to the submask."""
        full = (1 << 9) - 1
        rng = random.Random(83)
        for fam, points in degenerate_curve_instances():
            c = _brute_c(points, fam)
            counter = CoverableCounter(incidence_layer(points, fam))
            for ground in [full] + [rng.randint(1, full - 1) for _ in range(6)]:
                ref = _brute_signed_sums(c, ground, range(10))
                for k in ref:
                    assert _signed_sum(counter, ground, k, DEFAULT_SUBSET_CAP).ie_sum == ref[k], \
                        (fam.kind, points, ground, k)
                if ground == full:
                    assert ie_sums(points, fam, range(10)) == ref
                    for k in range(10):
                        assert ie_decide(points, fam, k) == (ref[k] >= 1, ref[k], 1 << 9)


def _block_boundary_instances():
    """Curve instances of 10 points whose degeneracies sit where the curve
    sweep's low block (the lowest LOW_BLOCK = 7 ground elements) meets its
    high elements on the prefix grounds: one curve with three or more points
    in the block, and one with four or more points split across it."""
    return [
        # y = 0 holds points 0-3; x = 5 holds 5-9
        (LINE2, [pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0), pt(1, 3),
                 pt(5, 1), pt(5, 2), pt(5, 3), pt(5, 4), pt(5, 5)]),
        # the circle of radius 5 about the origin holds 0-2 and 8; that of
        # radius 5 about (10, 10) holds 5-7 and 9
        (CIRCLE2, [pt(5, 0), pt(0, 5), pt(-5, 0), pt(1, 1), pt(2, 7),
                   pt(13, 14), pt(14, 13), pt(10, 15), pt(0, -5), pt(15, 10)]),
        # y = x^2 holds 0, 2-4, 8 and 9; points 0 and 1, 2 and 5, and 0 and 7
        # share x
        (VPARABOLA2, [pt(0, 0), pt(0, 3), pt(1, 1), pt(2, 4), pt(-1, 1),
                      pt(1, 5), pt(4, 0), pt(0, 7), pt(-2, 4), pt(3, 9)]),
    ]


class TestCurveBlockBoundaries:
    def test_signed_sums_at_every_ground_size(self):
        """The curve sweep's signed sums against brute force at every ground
        size from 0 to 10, three past the low block, so that the block is the
        whole ground, exactly full, and followed by one to three high
        elements: on the prefix grounds, where the degeneracies sit at the
        block's boundary, and on random grounds with holes."""
        rng = random.Random(97)
        for fam, points in _block_boundary_instances():
            c = _brute_c(points, fam)
            counter = CoverableCounter(incidence_layer(points, fam))
            for size in range(len(points) + 1):
                grounds = [(1 << size) - 1]
                grounds += [sum(1 << i for i in rng.sample(range(len(points)), size))
                            for _ in range(2)]
                for ground in grounds:
                    ref = _brute_signed_sums(c, ground, range(10))
                    for k in ref:
                        assert _signed_sum(counter, ground, k, DEFAULT_SUBSET_CAP).ie_sum == ref[k], \
                            (fam.kind, ground, k)


def _plane_boundary_grounds():
    """Plane grounds of every size from 0 to LOW_BLOCK + 3 elements, each
    with 0-3 pending lines: coplanar-heavy ones (points of a grid in z = 0
    and one point off it, lines in z = 0 and one across it) and general ones
    (points and lines through points of a small cube)."""
    rng = random.Random(101)
    grid = [pt(x, y, 0) for x in range(4) for y in range(4)]
    cube = [pt(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    grounds = []
    for size in range(LOW_BLOCK + 4):
        for coplanar, shift in itertools.product((True, False), (0, 2)):
            nl = min((size + coplanar + shift) % 4, size)
            pool = grid if coplanar else cube
            points = rng.sample(pool, size - nl)
            if coplanar and len(points) >= 3:
                points[-1] = pt(1, 2, 3)
            lines = []
            while len(lines) < nl:
                line = line_through(*rng.sample(pool, 2))
                if coplanar and not lines:
                    line = line_through(pt(0, 0, 0), pt(1, 1, 2))
                if line not in lines:
                    lines.append(line)
            grounds.append((points, lines))
    return grounds


class TestPlaneBlockBoundaries:
    def test_histograms_at_every_ground_size(self):
        """The plane sweep's signed histogram equals the Fraction
        reference's at every ground size from 0 to 10, three past the low
        block, so that the block is the whole ground, exactly full, and
        followed by one to three high elements, with 0-3 pending lines among
        the elements: over the whole ground and over two proper sub-grounds,
        as extraction passes them."""
        rng = random.Random(103)
        sizes = set()
        for points, lines in _plane_boundary_grounds():
            counter = layer_counter(points, lines)
            ref = FractionPlaneCounter(points, lines)
            order = _bits(counter.mask)  # the counter's bit of the reference's element b
            full = (1 << ref.n) - 1
            sizes.add((ref.n, len(lines)))
            for local in [full] + [rng.randrange(full) for _ in range(2) if full]:
                ground = sum(1 << order[b] for b in _bits(local))
                hist = folded(_signed_histogram(counter, ground, DEFAULT_SUBSET_CAP))
                assert {c: m for c, m in hist.items() if m} == reference_histogram(ref, local), \
                    (points, lines, local)
        assert {n for n, _ in sizes} == set(range(LOW_BLOCK + 4))
        assert {nl for _, nl in sizes} == {0, 1, 2, 3}

    def test_field_width_switch_on_coplanar_grounds(self):
        """On a coplanar ground every subset is coverable, so c(X) = 2^|X|
        and the histogram is C(m, j) subsets at c = 2^j, signed by m - j. At
        m = 14 the full ground's field 2c = 2^15 is the top of a 16-bit
        field; at m = 15 it passes it, and the walk takes 32-bit fields.
        Grounds of points alone and of points with two lines in their plane,
        and the curve grounds where c(X) = 2^|X| as well: collinear points
        for line2, concyclic ones for circle2 and points of one parabola for
        vparabola2."""
        grid = [pt(x, y, 0) for x in range(4) for y in range(4)]
        in_plane = [line_through(pt(0, 5, 0), pt(1, 5, 0)), line_through(pt(5, 0, 0), pt(5, 1, 0))]
        curves = [(LINE2, [pt(t, 2 * t + 1) for t in range(15)]),
                  (CIRCLE2, [pt(*p) for p in _RADIUS25]),
                  (VPARABOLA2, [pt(x, x * x - 1) for x in range(-7, 8)])]
        for m in (14, 15):
            counters = [layer_counter(points, lines)
                        for points, lines in ((grid[:m], []), (grid[:m - 2], in_plane))]
            counters += [CoverableCounter(incidence_layer(points[:m], fam)) for fam, points in curves]
            want = {1 << j: (-1) ** (m - j) * math.comb(m, j) for j in range(m + 1)}
            for counter in counters:
                hist = _signed_histogram(counter, counter.mask, DEFAULT_SUBSET_CAP)
                assert folded(hist) == want, (m, counter.family.kind)


# the 20 integer points at distance 25 from the origin
_RADIUS25 = [(25, 0), (-25, 0), (0, 25), (0, -25)] + [(a * x, b * y) for x, y in ((7, 24), (24, 7), (15, 20), (20, 15))
                                                      for a in (1, -1) for b in (1, -1)]
# the 12 integer points at distance 5 from the origin
_RADIUS5 = [(5, 0), (-5, 0), (0, 5), (0, -5)] + [(a * x, b * y) for x, y in ((3, 4), (4, 3))
                                                  for a in (1, -1) for b in (1, -1)]


@st.composite
def _clustered_curve_instance(draw):
    """A curve family and at most 9 distinct integer points: a collinear,
    concyclic or shared-x cluster and a few free points."""
    coord = st.integers(-4, 4)
    bx, by = draw(coord), draw(coord)
    kind = draw(st.sampled_from(("collinear", "concyclic", "shared-x")))
    if kind == "collinear":
        dx, dy = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
        ts = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=5, unique=True))
        points = [(bx + t * dx, by + t * dy) for t in ts]
    elif kind == "concyclic":
        offsets = draw(st.lists(st.sampled_from(_RADIUS5), min_size=3, max_size=5, unique=True))
        points = [(bx + dx, by + dy) for dx, dy in offsets]
    else:
        xs = draw(st.lists(coord, min_size=1, max_size=3, unique=True))
        points = [(x, y) for x in xs
                  for y in draw(st.lists(coord, min_size=2, max_size=2, unique=True))]
    points += draw(st.lists(st.tuples(coord, coord), max_size=4))
    unique = list(dict.fromkeys(points))[:9]
    return draw(st.sampled_from((LINE2, CIRCLE2, VPARABOLA2))), [pt(*p) for p in unique]


class TestCurveSweepProperty:
    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(_clustered_curve_instance())
    def test_agrees_with_oracle_and_branch(self, instance):
        fam, points = instance
        opt = oracle_min_cover(points, fam).opt
        assert ie_min_cover(points, fam) == opt
        assert curve_cover(points, fam, opt).decision
        assert opt == 0 or not curve_cover(points, fam, opt - 1).decision
        witness = extract_cover(points, fam, opt)
        assert check_cover(points, witness, opt)
