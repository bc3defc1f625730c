import itertools
import json
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import incidence_reference
from conftest import random_points_3d
from counter_reference import (
    FractionPlaneCounter,
    assert_counter_matches_reference,
    assert_table_lists_candidate_cover_sets,
    reference_sums,
    reference_terms,
)
from geomcover import inclusion_exclusion, plane_branch
from geomcover.cli import EXIT_CAP, EXIT_OK
from geomcover.curve_branch import SearchStats, branch_cover, budget_partitions, sweep_leaf
from geomcover.geometry import (
    PLANE3,
    PlaneLayer,
    _bits,
    check_cover,
    plane_covers,
    pt,
)
from geomcover.inclusion_exclusion import (
    DEFAULT_SUBSET_CAP,
    CandidateTable,
    CoverableCounter,
    _signed_sum,
)
from geomcover.instances import generate
from geomcover.kernel import KernelResult, plane_kernel_r3
from geomcover.oracle import oracle_min_cover
from geomcover.plane_branch import (
    _is_ripe,
    _line_rich_enough,
    _PlaneSearch,
    _too_degenerate_counts,
    extend_lines,
    make_plane_config,
    plane_cover,
    plane_object,
)
from incidence_reference import flat_contains, layer_line, line_through, plane3_curve
from test_golden_records import _load, solve_record


def _points_in(layer, mask):
    """The points of the layer in `mask` (point i is bit i)."""
    return [p for i, p in enumerate(layer.points) if (mask >> i) & 1]


def _reduced(points, k=3):
    """The kernel result that hands `points` on as they are, with their
    layer."""
    return KernelResult(tuple(points), k, [], "reduced", layer=PlaneLayer(points),
                        ground=(1 << len(points)) - 1)


def _line_index(layer, p, q):
    """The layer index of the line through the layer points p and q."""
    both = _mask_of(layer, [p, q])
    return next(l for l, m in enumerate(layer.lines) if not both & ~m)


def _mask_of(layer, points):
    """The mask of the layer points `points`."""
    return sum(1 << layer.points.index(p) for p in points)


def _combos(layer, lines, mask, avoid=()):
    """The plane names of each combination of one `extend_lines` option per
    line, in product order."""
    return [tuple(option[0] for option in combo)
            for combo in itertools.product(*extend_lines(layer, lines, mask, avoid))]


def _extension_objects(layer, combo):
    """The planes of one `extend_lines` combination, built."""
    return tuple(plane_object(layer, h) for h in combo)


class TestDegeneracy:
    def test_exact_fifth_power_threshold(self):
        assert _too_degenerate_counts(10, 9, Fraction(16))        # 1^5*16 < 10^5
        assert not _too_degenerate_counts(10, 2, Fraction(16))    # 8^5*16 >= 10^5
        assert _too_degenerate_counts(7, 7, Fraction(1))          # fully collinear

    def test_agrees_with_float_evaluation(self):
        rng = random.Random(97)
        for _ in range(1000):
            t = rng.randint(1, 40)
            m = rng.randint(1, t)
            gamma = Fraction(rng.randint(1, 500), rng.randint(1, 4))
            exact = _too_degenerate_counts(t, m, gamma)
            approx = not (m <= (1 - float(gamma) ** (-0.2)) * t)
            # the float check can sit on the boundary; compare where it is safe
            lhs, rhs = (t - m) ** 5 * gamma, t ** 5
            if abs(float(lhs) - float(rhs)) > 1e-6 * float(rhs):
                assert exact == approx, (t, m, gamma)

    def test_line_rich_enough_fifth_powers(self):
        # m >= gamma - gamma^(4/5): gamma=32 -> threshold 16
        assert _line_rich_enough(16, Fraction(32))
        assert not _line_rich_enough(15, Fraction(32))


class TestRipeness:
    CFG = make_plane_config(16)

    def test_just_stamped_line_not_ripe_at_large_gamma(self):
        assert not _is_ripe(3, 3, self.CFG.gammas)  # gamma_3^5 = 32^5 >= 32*32^4

    def test_shallow_stamp_ripens(self):
        assert _is_ripe(1, 2, self.CFG.gammas)

    def test_eventually_ripe(self):
        r = self.CFG.r
        ripe_depths = [d for d in range(2, r + 1) if _is_ripe(2, d, self.CFG.gammas)]
        assert ripe_depths and ripe_depths == list(range(ripe_depths[0], r + 1))


class TestExtendLines:
    def test_single_line_single_point(self):
        o, x, top = pt(0, 0, 0), pt(1, 0, 0), pt(0, 0, 1)
        layer = PlaneLayer([o, x, top])
        combos = _combos(layer, [_line_index(layer, o, x)], _mask_of(layer, [top]))
        assert [_extension_objects(layer, c) for c in combos] == [(plane3_curve(0, 1, 0, 0),)]
        assert all(isinstance(h, int) for h in combos[0])

    def test_fallback_without_points(self):
        o, x = pt(0, 0, 0), pt(1, 0, 0)
        layer = PlaneLayer([o, x])
        combos = _combos(layer, [_line_index(layer, o, x)], 0)
        assert len(combos) == 1
        assert flat_contains(_extension_objects(layer, combos[0])[0], line_through(o, x))

    def test_two_skew_lines(self):
        a0, a1, b0, b1 = pt(0, 0, 0), pt(1, 0, 0), pt(0, 5, 1), pt(1, 5, 2)
        extra = [pt(0, 0, 3), pt(2, 7, 1)]
        layer = PlaneLayer([a0, a1, b0, b1] + extra)
        lines = [_line_index(layer, a0, a1), _line_index(layer, b0, b1)]
        combos = [_extension_objects(layer, c)
                  for c in _combos(layer, lines, _mask_of(layer, extra))]
        assert 1 <= len(combos) <= 4
        for combo in combos:
            assert len(set(combo)) == 2
            assert flat_contains(combo[0], line_through(a0, a1))
            assert flat_contains(combo[1], line_through(b0, b1))

    def test_avoid_filter(self):
        # planes through the x-axis and a point of the parallel line would
        # cover that line; they must be filtered and the fallback used
        o, x, p0, p1, p3 = pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0), pt(3, 1, 0)
        layer = PlaneLayer([o, x, p0, p1, p3])
        combos = _combos(layer, [_line_index(layer, o, x)], _mask_of(layer, [p3]),
                         avoid=[_line_index(layer, p0, p1)])
        assert len(combos) == 1
        assert not flat_contains(_extension_objects(layer, combos[0])[0], line_through(p0, p1))

    def test_matches_fraction_reference(self):
        """Seeded layers, line picks, avoid lines and masks: the same planes,
        in the same order, as the Fraction extension over the lines' `Flat`s
        and the points in the mask, including masks with no point off the
        lines, lines whose every option is filtered, repeated options and
        fallbacks past the first plane of the pencil. Every option's mask
        holds exactly the layer points on its plane, and its size counts
        those in the mask."""
        rng = random.Random(131)
        seen = dict(fallbacks=0, walked=0, all_filtered=0, repeats=0, empty=0, calls=0)
        point_sets = [random_points_3d(rng, rng.randint(5, 10), span=2) for _ in range(40)]
        point_sets += [list(generate("degenerate-plane", {"k": 2, "m": 5}, seed=s).points)
                       for s in range(3)]
        for points in point_sets:
            layer = PlaneLayer(points)
            n, nl = len(points), len(layer.lines)
            for _ in range(12):
                picked = rng.sample(range(nl), min(nl, rng.randint(1, 4)))
                cut = rng.randint(1, min(3, len(picked)))
                lines, avoid = picked[:cut], picked[cut:]
                near = 0
                for j in picked:
                    near |= layer.lines[j]
                mask = rng.choice([rng.getrandbits(n), near & rng.getrandbits(n), near, 0])
                got = [_extension_objects(layer, c) for c in _combos(layer, lines, mask, avoid)]
                want = list(incidence_reference.extend_lines(
                    [layer_line(layer, j) for j in lines], _points_in(layer, mask),
                    avoid=[layer_line(layer, j) for j in avoid]))
                assert got == want, (points, lines, avoid, mask)
                seen["calls"] += 1
                options = extend_lines(layer, lines, mask, avoid)
                for i, line in enumerate(lines):
                    off = _bits(mask & ~layer.lines[line])
                    seen["empty"] += not off
                    through = [layer.line_point_plane[line * n + x] for x in off]
                    seen["repeats"] += len(set(through)) < len(through)
                    for h, on, size in options[i]:
                        plane = _extension_objects(layer, [h])[0]
                        assert on == sum(1 << t for t, p in enumerate(points)
                                         if plane_covers(plane, p))
                        assert size == (on & mask).bit_count()
                    fallback = options[i][0][0]
                    if isinstance(fallback, int):
                        continue
                    seen["fallbacks"] += 1
                    seen["all_filtered"] += bool(off)
                    plane = _extension_objects(layer, [fallback])[0]
                    seen["walked"] += plane != incidence_reference.canonical_plane_through_line(
                        layer_line(layer, line))
        assert all(seen.values()), seen


class TestPlaneCover:
    def test_two_planted_clusters(self):
        cluster_a = [pt(i, j, 0) for i in range(3) for j in range(3)]
        cluster_b = [pt(i, j, i + j + 1) for i in range(3) for j in range(2)]
        P = cluster_a + cluster_b
        res = plane_cover(P, 2)
        assert res.decision and check_cover(P, res.witness, 2)
        assert not plane_cover(P, 1).decision

    def test_four_general_points(self):
        P = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)]
        assert not plane_cover(P, 1).decision
        assert plane_cover(P, 2).decision  # k >= ceil(n/3) always suffices

    def test_empty(self):
        res = plane_cover([], 0)
        assert res.decision and res.witness == []

    def test_agrees_with_oracle_random(self):
        rng = random.Random(103)
        for _ in range(12):
            pts = random_points_3d(rng, rng.randint(4, 9))
            k = rng.randint(1, 3)
            want = oracle_min_cover(pts, PLANE3).opt <= k
            res = plane_cover(pts, k)
            assert res.decision == want, (pts, k)
            if res.decision:
                assert check_cover(pts, res.witness, k)

    def test_degenerate_instances_agree_with_oracle(self):
        # planted clusters with 90% of each cluster on one line force the
        # too-degenerate path, where heavy lines are stamped; at k = 2 the
        # search is two levels deep, so a stamped line ripens only at a leaf,
        # which takes it as a ground element (test_searches_extend_ripe_lines
        # reaches the extension)
        for seed in range(4):
            inst = generate("degenerate-plane", {"k": 2, "m": 5}, seed=seed)
            pts = list(inst.points)
            if len(pts) > 12:
                continue
            want = oracle_min_cover(pts, PLANE3).opt <= inst.k
            res = plane_cover(pts, inst.k)
            assert res.decision == want
            if res.decision:
                assert check_cover(pts, res.witness, inst.k)

    def test_searches_extend_ripe_lines(self, monkeypatch):
        calls = []
        real = plane_branch.extend_lines

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(plane_branch, "extend_lines", counting)
        for seed in (0, 1):
            inst = generate("degenerate-plane", {"k": 4, "m": 4}, seed=seed)
            calls.clear()
            res = plane_cover(list(inst.points), 3)
            assert len(calls) > 100
            assert res.decision and check_cover(inst.points, res.witness, 3)

    def test_stamped_lines_stay_within_budget(self):
        inst = generate("degenerate-plane", {"k": 2, "m": 6}, seed=9)
        res = plane_cover(list(inst.points), 2)
        assert res.decision
        assert len(res.witness) <= 2


class _LeafRecorder(_PlaneSearch):
    """The plane search, recording the (mask, line indexes, budget) of every
    sweep leaf it reaches."""

    def __init__(self, *args):
        super().__init__(*args)
        self.leaves = set()

    def _ie(self, mask, lines, budget):
        self.leaves.add((mask, lines, budget))
        return super()._ie(mask, lines, budget)


def _searched(points, k):
    """The recording search over every budget partition of the kernelized
    instance, stopping at the first that accepts."""
    kern = plane_kernel_r3(points, k)
    assert not kern.rejected and kern.k >= 2
    config = make_plane_config(kern.k)
    search = _LeafRecorder(kern, PLANE3, config)
    for partition in budget_partitions(config.k, 2 * config.r):
        if search.run(partition)[0]:
            break
    return search


def _unreduced(points):
    """The plane search over `points` as they are, without the kernel."""
    return _PlaneSearch(_reduced(points), PLANE3, make_plane_config(3))


class _PlainSearch(_PlaneSearch):
    """The reference search: it enters every child, each of which tests its
    own size, over the product of the ripe lines' options and the
    combinations of the plane and line windows. It counts the extension
    nodes and the line windows shorter than their pick count it meets."""

    def __init__(self, *args):
        super().__init__(*args)
        self.extensions = self.short_windows = 0

    def run(self, partition, mask=None, stamped=(), depth=1, partial=()):
        cfg = self.cfg
        if mask is None:
            mask = self.ground
        remaining_budget = sum(partition[2 * (depth - 1):])
        gammas = cfg.gammas
        assert len(stamped) <= cfg.k, "pending lines exceed the budget"

        ripe = [e for e in stamped if _is_ripe(e[1], depth, gammas)]

        # the size reject presumes every pending line already passed a
        # ripeness check at this depth; skip it while extensions are due
        if not ripe and mask.bit_count() > cfg.caps[depth - 1][remaining_budget + len(stamped)]:
            self._reject(1, depth)
            return False, None

        leaf = self._leaf(mask, depth, remaining_budget, stamped, partial)
        if leaf is not None:
            return leaf

        if ripe:
            self.extensions += 1
            keep = tuple(e for e in stamped if e not in ripe)
            for combo in itertools.product(*extend_lines(self.layer, [j for j, _ in ripe], mask,
                                                         avoid=[j for j, _ in keep])):
                covered = 0
                for _, m, _ in combo:
                    covered |= m
                ok, wit = self.run(partition, mask & ~covered, keep, depth,
                                   partial + tuple(h for h, _, _ in combo))
                if ok:
                    return True, wit
            return False, None

        lo = gammas[depth]
        least, most = cfg.lows[depth], cfg.caps[depth - 1][1]
        not_too_degenerate = []
        for p, (pmask, contained) in enumerate(self.planes):
            on = pmask & mask
            t = on.bit_count()
            if t < 3 or not (least <= t <= most):
                continue
            m = max((self.lines[j] & on).bit_count() for j in contained)
            if not _too_degenerate_counts(t, m, lo):
                not_too_degenerate.append((p, pmask, t))
        not_too_degenerate.sort(key=lambda e: -e[2])

        window_lines = []
        for j, lmask in enumerate(self.lines):
            m = (lmask & mask).bit_count()
            if 2 <= m <= most and _line_rich_enough(m, lo):
                window_lines.append((j, lmask, m))
        window_lines.sort(key=lambda e: -e[2])

        h_i = partition[2 * (depth - 1)]
        l_i = partition[2 * (depth - 1) + 1]
        self.short_windows += len(window_lines) < l_i
        for planes_pick in itertools.combinations(not_too_degenerate, h_i):
            for lines_pick in itertools.combinations(window_lines, l_i):
                covered = 0
                for _, pmask, _ in planes_pick:
                    covered |= pmask
                for _, lmask, _ in lines_pick:
                    covered |= lmask
                new_stamped = stamped + tuple((j, depth) for j, _, _ in lines_pick)
                ok, wit = self.run(partition, mask & ~covered, new_stamped, depth + 1,
                                   partial + tuple(h for h, _, _ in planes_pick))
                if ok:
                    return True, wit
        return False, None


class TestChildWalk:
    def test_counters_match_plain_search(self):
        """Decision, witness and every counter equal the plain search's, on
        instances whose search extends ripe lines, and on the plane anchor."""
        cases = [(generate("degenerate-plane", {"k": 4, "m": 4}, seed=s).points, 3)
                 for s in range(4)]
        cases.append((generate("degenerate-plane", {"k": 3, "m": 8}, seed=1).points, 2))
        extensions = []

        def plain_search(*args):
            extensions.append(_PlainSearch(*args))
            return extensions[-1]

        for points, k in cases:
            kern = plane_kernel_r3(list(points), k)
            config = make_plane_config(kern.k)
            parts = list(budget_partitions(config.k, 2 * config.r))
            plain = branch_cover(kern, PLANE3, config, plain_search, parts)
            fast = branch_cover(kern, PLANE3, config, _PlaneSearch, parts)
            assert fast == plain, (k, len(points))
        assert all(s.extensions for s in extensions[:4])

    def test_extension_nodes(self):
        """Nodes that extend three ripe two-point lines, as the partition
        <0, 3, 0, ...> of a degenerate-plane no-instance stamps them at depth
        1: most of their children are counted in bulk, over the options of
        the lines after the first."""
        inst = generate("degenerate-plane", {"k": 4, "m": 4}, seed=5)
        kern = plane_kernel_r3(list(inst.points), 3)
        config = make_plane_config(kern.k)
        partition = (0, 3) + (0,) * (2 * config.r - 2)
        layer = PlaneLayer(kern.points)
        pairs = [j for j, m in enumerate(layer.lines) if m.bit_count() == 2][::12]
        full = (1 << len(kern.points)) - 1
        for trio in itertools.combinations(pairs, 3):
            mask = full & ~(layer.lines[trio[0]] | layer.lines[trio[1]] | layer.lines[trio[2]])
            stamped = tuple((j, 1) for j in trio)
            plain = _PlainSearch(kern, PLANE3, config)
            fast = _PlaneSearch(kern, PLANE3, config)
            assert (fast._expand(partition, mask, 2, (), stamped)
                    == plain.run(partition, mask, stamped, 2))
            assert fast.stats == plain.stats and plain.extensions == 1, trio

    def test_short_line_window(self):
        """A node whose line window is shorter than its line pick count has
        no child: it counts itself, and its depth stays the deepest."""
        points = [pt(i, 0, 0) for i in range(5)] + [pt(0, 1, 0), pt(0, 0, 1)]
        kern = _reduced(points)
        config = make_plane_config(3)
        mask = 0b11111  # the five points of one line
        for partition in ((0, 2, 1, 0, 0, 0), (1, 2, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0)):
            plain = _PlainSearch(kern, PLANE3, config)
            fast = _PlaneSearch(kern, PLANE3, config)
            assert fast._expand(partition, mask, 1, ()) == plain.run(partition, mask)
            assert fast.stats == plain.stats
            assert plain.short_windows == 1 and plain.stats.max_depth == 1


def _assert_leaf_matches_counter(search, mask, lines, budgets):
    """Every c(X) of the leaf's counter, from its step walk and from
    c_of_mask, equals the Fraction reference's over the same ground (the
    points in mask, then the lines), and so does every signed sum. The
    counter's read terms are those of a scan of every layer plane and line."""
    n = len(search.layer.points)
    points = _points_in(search.layer, mask)
    flats = [layer_line(search.layer, j) for j in lines]
    leaf = CoverableCounter(search.layer, mask, lines)
    ref = FractionPlaneCounter(points, flats)
    order = [i for i in range(n) if (mask >> i) & 1] + [n + q for q in range(len(lines))]
    assert leaf.mask == sum(1 << g for g in order)
    assert sorted(leaf.terms) == reference_terms(leaf)
    assert_counter_matches_reference(leaf, ref)
    sums = reference_sums(ref, (1 << ref.n) - 1, budgets)
    for budget in budgets:
        assert (_signed_sum(leaf, leaf.mask, budget, DEFAULT_SUBSET_CAP)
                == (sums[budget] >= 1, sums[budget], 1 << ref.n))


def _leaf_instances():
    rng = random.Random(211)
    insts = [random_points_3d(rng, 7 + t % 2) for t in range(4)]
    insts += [list(generate("degenerate-plane", {"k": 2, "m": 5}, seed=s).points) for s in (0, 1)]
    return insts


class TestLeafCounter:
    def test_every_leaf_matches_counter_and_ie_decide(self):
        by_lines = {}
        for points in _leaf_instances():
            search = _searched(points, 2)
            for mask, lines, budget in sorted(search.leaves):
                _assert_leaf_matches_counter(search, mask, lines, [budget])
                by_lines[len(lines)] = by_lines.get(len(lines), 0) + 1
        assert by_lines.get(1) and by_lines.get(2), by_lines

    def test_leaf_tables_list_candidate_cover_sets(self):
        rng = random.Random(223)
        with_lines = 0
        for points in _leaf_instances():
            search = _searched(points, 2)
            for mask, lines, _ in sorted(search.leaves)[::8]:
                counter = CoverableCounter(search.layer, mask, lines)
                full = (1 << counter.n) - 1
                assert_table_lists_candidate_cover_sets(
                    CandidateTable(counter), counter, _points_in(search.layer, mask),
                    [layer_line(search.layer, j) for j in lines], PLANE3,
                    [full] + [rng.randint(1, full) for _ in range(2)])
                with_lines += bool(lines)
        assert with_lines >= 10, with_lines

    # lines A (three points) and B are parallel, C crosses both away from
    # the points, D is skew to A and B and parallel to C
    HAND = [pt(0, 0, 0), pt(1, 0, 0), pt(2, 0, 0), pt(0, 1, 0), pt(1, 1, 0),
            pt(3, -1, 0), pt(3, 2, 0), pt(0, 0, 1), pt(0, 1, 1),
            pt(1, 2, 0), pt(2, 3, 5), pt(5, 1, 2), pt(0, 0, 3), pt(4, 4, 1)]

    def test_hand_built_grounds(self):
        search = _unreduced(self.HAND)
        index = {layer_line(search.layer, j): j for j in range(len(search.lines))}

        def line(a, b):
            return index[line_through(self.HAND[a], self.HAND[b])]

        A, B, C, D = line(0, 1), line(3, 4), line(5, 6), line(7, 8)

        def coplanar(f, g):
            both = search.lines[f] | search.lines[g]
            return any(not both & ~m for m, _ in search.planes)

        assert all(coplanar(f, g) for f, g in ((A, B), (A, C), (C, D)))
        assert not any(coplanar(f, g) for f, g in ((A, D), (B, D)))
        off = sum(1 << i for i in range(9, 14))
        cases = [
            (off, (A, B)),                     # parallel
            (off, (A, C)),                     # intersecting
            (off, (D, A)),                     # skew
            (off, (A, C, B)),
            (off & ~(1 << 13), (D, B, C)),
            (0b1001 | 1 << 10, (A, B)),        # points on the lines themselves
            (0b100101 | 1 << 9, (C, A, D)),
            (0, (A, B, C, D)),
        ]
        for mask, lines in cases:
            _assert_leaf_matches_counter(search, mask, lines, (0, 1, 2, 3))


def _least_planes(layer, lines):
    """The fewest planes that hold every one of the layer `lines`: the plane
    through the first holds it alone, or is a layer plane that holds others."""
    if not lines:
        return 0
    first, rest = lines[0], lines[1:]
    best = 1 + _least_planes(layer, rest)
    for p in layer.line_planes[first]:
        held = layer.planes[p][0]
        left = tuple(l for l in rest if layer.lines[l] & ~held)
        if len(left) < len(rest):
            best = min(best, 1 + _least_planes(layer, left))
    return best


def _pencil_against_sweep(points, line_tuples):
    """Decide every point mask of the layer of `points` with each tuple of
    pending lines, at a budget of its line count, by the pencil test and by
    the sweep leaf. A pencil no must be a sweep no, and the sweep's no must
    be the pencil's unless the lines fit in two planes fewer than the
    budget, so that a branch can run out of lines with two planes left.
    On a pencil no, `_ie` answers no and counts the sweep's 2^|ground|
    subsets. Returns the number of leaves the pencil left open and the sweep
    answered no."""
    search = _unreduced(points)
    layer, n = search.layer, len(points)
    open_no = subsets = 0
    for lines in line_tuples:
        budget = len(lines)
        slack = _least_planes(layer, lines) <= budget - 2
        for mask in range(1 << n):
            no = search._pencil_no(mask, lines, budget)
            swept = sweep_leaf(CoverableCounter(layer, mask, lines), budget, DEFAULT_SUBSET_CAP,
                               SearchStats())
            if no:
                assert swept is None and search._ie(mask, lines, budget) is None, (mask, lines)
                subsets += 1 << mask.bit_count() + budget
            elif swept is None:
                assert slack, (mask, lines)
                open_no += 1
    assert search.stats.ie_subsets == subsets
    return open_no


class TestPencilLeaves:
    """Saturated sweep leaves, whose budget equals their pending lines,
    decided from the pencil of their first line (`_PlaneSearch._pencil_no`)."""

    # seven points of the plane z = 0, on lines of two and three points
    FLAT = [pt(0, 0, 0), pt(1, 0, 0), pt(2, 0, 0), pt(0, 1, 0), pt(1, 1, 0), pt(0, 2, 0),
            pt(2, 1, 0)]
    # the axes through the origin, the line y = 1 in z = 0 parallel to the
    # x-axis, and points off all of them
    AXES = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 0), pt(2, 3, 1),
            pt(1, 2, 3), pt(3, 1, 2)]
    # two lines through (0, 0, 0) in z = 0 and two through (0, 0, 1) in
    # z = 1, and points off both planes
    TWO_PAIRS = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1), pt(1, -1, 1),
                 pt(3, 1, 5), pt(1, 4, 2), pt(2, 5, 3)]

    @staticmethod
    def _lines(points, *pairs):
        layer = PlaneLayer(points)
        return tuple(_line_index(layer, points[a], points[b]) for a, b in pairs)

    def test_hand_built_layers(self):
        pencils = set()
        cases = []
        # a line of the plane z = 0 lies in one layer plane, in two with one
        # point off z = 0, and in three with two points off z = 0 that span
        # no plane with it
        for off in ([], [pt(1, 1, 1)], [pt(1, 1, 1), pt(2, 0, 3)]):
            points = self.FLAT + off
            line_tuples = [self._lines(points, *pairs) for pairs in (
                [(0, 1)], [(0, 3)], [(0, 1), (3, 4)], [(0, 4), (1, 3)],
                [(0, 1), (0, 3), (1, 6)])]
            cases.append((points, line_tuples))
            layer = PlaneLayer(points)
            pencils |= {len(layer.line_planes[l]) for lines in line_tuples for l in lines}
        assert pencils == {1, 2, 3}
        # three lines through one point, pairwise coplanar, with a line parallel
        # to one of them and a line through two points off all of them
        x, y, z, par, free = ((0, 1), (0, 2), (0, 3), (2, 4), (5, 6))
        cases.append((self.AXES, [self._lines(self.AXES, *pairs) for pairs in (
            [x, y], [x, z, y], [x, par], [y, par, x], [x, free], [free, x, y, z])]))
        for points, line_tuples in cases:
            assert not _pencil_against_sweep(points, line_tuples)

    def test_lines_in_two_planes_stay_open(self):
        """Four lines that two planes hold leave two planes for the points,
        which the pencil test does not decide, so it answers no on no mask;
        three of them, two in one plane, leave it no such slack."""
        lines = self._lines(self.TWO_PAIRS, (0, 1), (0, 2), (3, 4), (3, 5))
        search = _unreduced(self.TWO_PAIRS)
        assert not any(search._pencil_no(mask, lines, 4) for mask in range(1 << 9))
        assert not _pencil_against_sweep(self.TWO_PAIRS, [lines, lines[1:], lines[:1] + lines[2:]])

    def test_random_layers(self):
        rng = random.Random(229)
        for _ in range(6):
            points = random_points_3d(rng, 8, span=2)
            layer = PlaneLayer(points)
            line_tuples = [tuple(rng.sample(range(len(layer.lines)), rng.randint(1, 3)))
                           for _ in range(3)]
            _pencil_against_sweep(points, line_tuples)

    @staticmethod
    def _golden_fifteen():
        """Golden case 15: uniform-random plane3 n = 8, range 3, seed 3,
        branch at k = 2, a no-instance of 434 sweep leaves."""
        case = next(c for c in _load() if c["model"] == "uniform-random"
                    and c["params"]["n"] == 8 and c["seed"] == 3)
        assert case["flags"][:2] == ["--algorithm", "branch"] and case["k"] == 2
        return case, generate(case["model"], case["params"], case["seed"])

    @staticmethod
    def _count_sweeps(monkeypatch):
        calls = []
        real = inclusion_exclusion._signed_histogram

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(inclusion_exclusion, "_signed_histogram", counting)
        return calls

    def test_most_leaves_run_no_sweep(self, monkeypatch, tmp_path):
        calls = self._count_sweeps(monkeypatch)
        case, inst = self._golden_fifteen()
        rc, out = solve_record(inst, case["flags"], case["k"], str(tmp_path))
        assert (rc, out) == (case["rc"], case["stdout"])
        leaves = json.loads(out)["stats"]["leaves_ie"]
        assert leaves == 434 and 10 * len(calls) < leaves, len(calls)

    def test_saturated_leaf_over_the_cap_exits_3(self, monkeypatch, tmp_path):
        """With only the partitions that stamp two lines at depth 1, every
        leaf is saturated: 5 points and 2 lines at most. A cap of 6 stops
        the first such leaf before any sweep, and 7 lets every leaf pass."""
        real = plane_branch.budget_partitions
        monkeypatch.setattr(plane_branch, "budget_partitions",
                            lambda k, r: [p for p in real(k, r) if p[:2] == (0, k)])
        calls = self._count_sweeps(monkeypatch)
        case, inst = self._golden_fifteen()
        flags = case["flags"][:2]
        for cap, want in ((6, EXIT_CAP), (7, EXIT_OK)):
            rc, _ = solve_record(inst, flags + ["--ie-cap", str(cap)], 2, str(tmp_path))
            assert rc == want
        assert not calls


class TestIncidenceLayer:
    def test_contained_lines_match_flat_contains(self):
        anchor = generate("degenerate-plane", {"k": 3, "m": 8}, seed=1)
        point_sets = _leaf_instances() + [list(anchor.points)]
        assert len(point_sets[-1]) == 24
        for points in point_sets:
            layer = _unreduced(points).layer
            for p, (_, contained) in enumerate(layer.planes):
                assert contained == [j for j in range(len(layer.lines))
                                     if flat_contains(layer.plane(p), layer_line(layer, j))]


@st.composite
def _clustered_plane3(draw):
    """At most 8 distinct integer points in R^3: a collinear cluster, a
    coplanar cluster and a few free points, with a budget of 1 to 3."""
    coord = st.integers(-3, 3)
    vec = st.tuples(coord, coord, coord)
    step = st.integers(-2, 2)
    base, d = draw(vec), draw(vec.filter(any))
    points = [tuple(b + t * x for b, x in zip(base, d))
              for t in draw(st.lists(step, min_size=2, max_size=4, unique=True))]
    base, u, v = draw(vec), draw(vec.filter(any)), draw(vec.filter(any))
    points += [tuple(b + s * x + t * y for b, x, y in zip(base, u, v))
               for s, t in draw(st.lists(st.tuples(step, step), min_size=3, max_size=5, unique=True))]
    points += draw(st.lists(vec, max_size=3))
    unique = list(dict.fromkeys(points))[:8]
    return [pt(*p) for p in unique], draw(st.sampled_from((2, 1, 3)))


class TestPlaneCoverProperty:
    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(_clustered_plane3())
    def test_agrees_with_oracle(self, instance):
        points, k = instance
        res = plane_cover(points, k)
        assert res.decision == (oracle_min_cover(points, PLANE3).opt <= k)
        if res.decision:
            assert check_cover(points, res.witness, k)
