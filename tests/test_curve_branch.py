import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import random_points_2d
from geomcover import curve_branch, geometry, inclusion_exclusion, kernel, oracle
from geomcover.curve_branch import (
    _CurveSearch,
    branch_cover,
    budget_partitions,
    curve_cover,
    make_branch_config,
    recursion_depth,
)
from geomcover.geometry import (
    CIRCLE2,
    LINE2,
    VPARABOLA2,
    Point,
    check_cover,
    curve_covers,
    enumerate_candidates,
    pt,
)
from geomcover.inclusion_exclusion import extract_cover, ie_decide
from geomcover.instances import generate
from geomcover.kernel import curve_kernel
from geomcover.oracle import oracle_min_cover
from geomcover.plane_branch import make_plane_config
from incidence_reference import line2_curve

TRIPLES = [pt(0, 0), pt(1, 0), pt(2, 0),
           pt(0, 7), pt(1, 9), pt(2, 11),
           pt(10, 1), pt(10, 2), pt(10, 3)]
GRID3 = [pt(i, j) for i in range(3) for j in range(3)]


def below_base_threshold(n_pts: int, budget_factor: Fraction, k: int) -> bool:
    """Reference base-case test: n_pts < budget_factor * log2(k), exactly; for
    k not a power of two the comparison is lifted to integer powers:
    2^(n*q) < k^p."""
    if k <= 1:
        return False
    if budget_factor <= 0:
        return False
    p, q = budget_factor.numerator, budget_factor.denominator
    return 2 ** (n_pts * q) < k ** p


def rich_poor_candidates(points, family, lo, hi):
    """Reference window: candidates freshly enumerated over `points` whose
    richness lies in [lo, hi], richest first."""
    if lo > hi:
        raise ValueError("empty richness window")
    pts = tuple(points)
    out = [(sum(curve_covers(c, p) for p in pts), c) for c in enumerate_candidates(pts, family)]
    out = [(r, c) for r, c in out if lo <= r <= hi]
    out.sort(key=lambda rc: (-rc[0], rc[1]))
    return [c for _, c in out]


def _layer_points(layer):
    """The points of a curve layer, from its scaled integer points."""
    return [Point(tuple(Fraction(c, layer.scale) for c in p)) for p in layer.scaled]


class _PlainSearch(_CurveSearch):
    """The reference search: it enters every child, each of which tests its
    own size in rational arithmetic, over the combinations of a window sorted
    by (-richness, curve). It records the windows shorter than their pick
    count and the zero picks it meets."""

    def __init__(self, *args):
        super().__init__(*args)
        self.short_windows = self.zero_picks = 0

    def window(self, mask, depth):
        lo, hi = self.cfg.gammas[depth], self.cfg.gammas[depth - 1]
        window = [(self.layer.obj(c), m, (m & mask).bit_count()) for c, m in self.cands]
        window = [(c, m, r) for c, m, r in window if r >= self.family.d and lo <= r <= hi]
        window.sort(key=lambda t: (-t[2], t[0]))
        return window

    def run(self, partition, mask=None, depth=1, partial=()):
        cfg = self.cfg
        if mask is None:
            mask = self.ground
        self.stats.nodes_expanded += 1
        self.stats.max_depth = max(self.stats.max_depth, depth)
        remaining_budget = sum(partition[depth - 1:])
        n_pts = mask.bit_count()
        if n_pts > remaining_budget * cfg.gammas[depth - 1]:
            self.stats.leaves_rejected += 1
            return False, None
        factor = Fraction(self.family.d - 1, 2)
        if depth == cfg.r or below_base_threshold(n_pts, factor * remaining_budget, cfg.k):
            self.stats.leaves_ie += 1
            if self._ie(mask, (), remaining_budget) is not None:
                points = [p for i, p in enumerate(_layer_points(self.layer)) if (mask >> i) & 1]
                ext = extract_cover(points, self.family, remaining_budget, cap=cfg.ie_cap)
                return True, list(partial) + ext
            return False, None
        window = self.window(mask, depth)
        self.short_windows += len(window) < partition[depth - 1]
        self.zero_picks += partition[depth - 1] == 0
        for combo in itertools.combinations(window, partition[depth - 1]):
            covered = 0
            for _, m, _ in combo:
                covered |= m
            ok, wit = self.run(partition, mask & ~covered, depth + 1,
                               partial + tuple(c for c, _, _ in combo))
            if ok:
                return True, wit
        return False, None


def _columns_instance():
    """17 points on the vertical lines x = 0..3, which a vertical parabola
    meets once each: no curve holds more than 4 of them, and only three do.
    At k=4 the first window is [4, 8], shorter than a pick count of 4."""
    rng = random.Random(1)
    return [pt(x, y) for x, count in enumerate((5, 4, 4, 4)) for y in rng.sample(range(-9, 10), count)]


def _reference_cases():
    """Seeded planted and random instances of each curve family, each at its
    optimum and one below, the line2 benchmark anchor, and the column
    instance at k=4."""
    yield _columns_instance(), VPARABOLA2, 4
    cases = [("on-curves", {"family": "line2", "k": 4, "m": 3}, 21, LINE2)]
    for fam in (LINE2, CIRCLE2, VPARABOLA2):
        for model, params in (("on-curves", {"k": 3, "m": 3, "noise": 1}),
                              ("on-curves", {"k": 2, "m": 4, "noise": 2}),
                              ("uniform-random", {"n": 9, "coord_range": 5}),
                              ("uniform-random", {"n": 10, "coord_range": 6}),
                              ("uniform-random", {"n": 6, "coord_range": 5})):
            for seed in range(3):
                cases.append((model, dict(params, family=fam.kind), seed, fam))
    for model, params, seed, fam in cases:
        points = generate(model, params, seed).points
        opt = oracle_min_cover(points, fam).opt
        for k in (opt, opt - 1):
            yield points, fam, k


class TestDepthAndPartitions:
    def test_depth_formula(self):
        assert recursion_depth(8, 2, 1) == 4
        assert recursion_depth(2, 2, 1) == 3
        assert recursion_depth(16, 3, 2) == 4

    def test_depth_needs_k_at_least_two(self):
        with pytest.raises(ValueError):
            recursion_depth(1, 2, 1)

    def test_partitions_lexicographic(self):
        assert list(budget_partitions(2, 2)) == [(0, 2), (1, 1), (2, 0)]

    def test_partitions_zero_budget(self):
        assert list(budget_partitions(0, 3)) == [(0, 0, 0)]

    def test_partitions_count_stars_and_bars(self):
        assert len(list(budget_partitions(4, 3))) == 15

    def test_base_threshold_exact(self):
        # line2 at k=8, budget 3: n < (1/2) * 3 * log2(8) = 4.5
        assert make_branch_config(8, LINE2).base[3] == 5
        # non-power-of-two k, circle2 at k=3, budget 2: n < 2*log2(3) ~ 3.17
        assert make_branch_config(3, CIRCLE2).base[2] == 4

    def test_integer_tables_match_fraction_definitions(self):
        # the base-case reference is monotone in the point count, so the
        # counts up to one past each table entry cover its whole truth table
        configs = [(fam, Fraction(fam.d - 1, 2), make_branch_config)
                   for fam in (LINE2, CIRCLE2, VPARABOLA2)]
        configs.append((None, Fraction(1), lambda k, _: make_plane_config(k)))
        for fam, factor, make in configs:
            for k in range(1, 41):
                cfg = make(k, fam)
                assert len(cfg.base) == k + 1 and len(cfg.caps) == len(cfg.gammas) == cfg.r + 1
                for b, base in enumerate(cfg.base):
                    for n in range(base + 2):
                        assert (n < base) == below_base_threshold(n, factor * b, k), (fam, k, b, n)
                for caps, low, gamma in zip(cfg.caps, cfg.lows, cfg.gammas):
                    assert low == math.ceil(gamma)
                    assert caps == tuple(math.floor(b * gamma) for b in range(2 * k + 1))


class TestWindow:
    def test_single_rich_line(self):
        pts = [pt(0, 0), pt(1, 0), pt(2, 0), pt(9, 9)]
        assert rich_poor_candidates(pts, LINE2, Fraction(3), Fraction(10)) == [line2_curve(0, 1, 0)]

    def test_empty_when_lo_exceeds_n(self):
        pts = [pt(0, 0), pt(1, 0)]
        assert rich_poor_candidates(pts, LINE2, Fraction(5), Fraction(9)) == []

    def test_grid_pair_lines(self):
        grid = [pt(0, 0), pt(0, 1), pt(1, 0), pt(1, 1)]
        assert len(rich_poor_candidates(grid, LINE2, Fraction(2), Fraction(2))) == 6


class TestCurveCover:
    def test_three_collinear_triples(self):
        res = curve_cover(TRIPLES, LINE2, 3)
        assert res.decision and check_cover(TRIPLES, res.witness, 3)
        assert not curve_cover(TRIPLES, LINE2, 2).decision

    def test_empty_instance(self):
        res = curve_cover([], LINE2, 0)
        assert res.decision and res.witness == []

    def test_grid(self):
        assert curve_cover(GRID3, LINE2, 3).decision
        assert not curve_cover(GRID3, LINE2, 2).decision

    def test_two_circles(self):
        from geomcover.instances import generate
        inst = generate("on-curves", {"family": "circle2", "k": 2, "m": 6}, seed=11)
        res = curve_cover(inst.points, CIRCLE2, 2)
        assert res.decision and check_cover(inst.points, res.witness, 2)

    def test_monotone_in_k(self):
        rng = random.Random(53)
        pts = random_points_2d(rng, 9)
        decisions = [curve_cover(pts, LINE2, k).decision for k in range(0, 6)]
        assert decisions == sorted(decisions)

    def test_agrees_with_oracle_and_ie(self):
        rng = random.Random(59)
        mask_rng = random.Random(60)
        for fam in (LINE2, CIRCLE2, VPARABOLA2):
            for _ in range(12):
                pts = random_points_2d(rng, rng.randint(4, 10))
                k = rng.randint(1, 4)
                want = oracle_min_cover(pts, fam).opt <= k
                res = curve_cover(pts, fam, k)
                assert res.decision == want == ie_decide(pts, fam, k).decision
                if res.decision:
                    assert check_cover(pts, res.witness, k)
                # the mask-based window over the kernel's candidates equals a
                # fresh enumeration over the surviving points, at every
                # branching depth, for the kernel at k (when it reduces) and
                # at a budget that forces nothing
                cfg = make_branch_config(max(k, 2), fam)
                kerns = [curve_kernel(pts, fam, k), curve_kernel(pts, fam, len(pts))]
                for kern in [kern for kern in kerns if not kern.rejected]:
                    search = _CurveSearch(kern, fam, cfg)
                    # random subsets of the kept points, as masks over the
                    # kernel's input points
                    kept = [i for i in range(len(pts)) if kern.ground >> i & 1]
                    picks = [mask_rng.getrandbits(len(kept)) for _ in range(4)]
                    masks = [kern.ground] + [sum(1 << i for j, i in enumerate(kept) if r >> j & 1)
                                             for r in picks]
                    for depth in range(1, cfg.r):
                        for mask in masks:
                            survivors = [p for i, p in enumerate(pts) if (mask >> i) & 1]
                            fresh = rich_poor_candidates(survivors, fam, cfg.gammas[depth],
                                                         cfg.gammas[depth - 1])
                            assert [search.layer.obj(c)
                                    for c, _, _ in search.window(mask, depth)] == fresh

    def test_leaf_count_bounded_by_branch_product(self):
        res = curve_cover(GRID3, LINE2, 2)
        # crude sanity bound: every leaf comes from some partition's chain of
        # at most C(candidates, k_i) choices
        total_cands = 20  # 8 rich lines + 12 pair lines in the grid
        assert res.stats.leaves_ie + res.stats.leaves_rejected <= 4 * total_cands ** 2


class TestCountAtParent:
    def test_same_result_and_counters_as_plain_enumeration(self):
        searches = []

        def plain_search(*args):
            searches.append(_PlainSearch(*args))
            return searches[-1]

        for points, fam, k in _reference_cases():
            kern = curve_kernel(points, fam, k)
            cfg = make_branch_config(kern.k, fam)
            parts = list(budget_partitions(cfg.k, cfg.r))
            plain = branch_cover(kern, fam, cfg, plain_search, parts)
            fast = branch_cover(kern, fam, cfg, _CurveSearch, parts)
            assert fast == plain, (points, fam.kind, k)
        short = sum(s.short_windows for s in searches)
        zero = sum(s.zero_picks for s in searches)
        assert len(searches) >= 40 and short and zero, (len(searches), short, zero)


def _count_curve_fits(monkeypatch) -> list:
    """Patch `curve_fits` wherever a geomcover module binds it, so that each
    call appends its number of points to the returned list."""
    calls = []
    real = geometry.curve_fits

    def counting(points, family):
        calls.append(len(points))
        return real(points, family)

    for module in (geometry, kernel, curve_branch, inclusion_exclusion, oracle):
        if getattr(module, "curve_fits", None) is real:
            monkeypatch.setattr(module, "curve_fits", counting)
    return calls


class TestOneCurveBuild:
    def test_curve_cover_fits_once(self, monkeypatch):
        calls = _count_curve_fits(monkeypatch)
        # searched no-instances whose search reaches no sweep leaf, so the
        # kernel's build is the only one
        cases = [("uniform-random", {"family": "line2", "n": 10, "coord_range": 6}, 5, LINE2, 4),
                 ("on-curves", {"family": "circle2", "k": 3, "m": 3, "noise": 1}, 2, CIRCLE2, 3),
                 ("on-curves", {"family": "vparabola2", "k": 3, "m": 3, "noise": 1}, 1,
                  VPARABOLA2, 3)]
        for model, params, seed, fam, k in cases:
            points = generate(model, params, seed).points
            calls.clear()
            res = curve_cover(points, fam, k)
            assert res.stats.nodes_expanded > 1 and res.stats.leaves_ie == 0
            assert not res.decision
            assert calls == [len(points)]

    def test_yes_leaves_fit_nothing(self, monkeypatch):
        """Solves that end at a yes sweep leaf fit their curves once, in the
        kernel: the leaf's counter and candidate table are cut from the
        kernel's layer. Where the kernel forces curves first, the leaf's
        ground is a mask of the surviving input points, with holes: at a
        search leaf (line2, two forced) and at the small case that skips the
        search (line2, kernel budget 1)."""
        calls = _count_curve_fits(monkeypatch)
        grounds = []
        real_init = inclusion_exclusion.CoverableCounter.__init__

        def recording_init(self, layer, ground=None, lines=()):
            grounds.append(ground)
            real_init(self, layer, ground, lines)

        monkeypatch.setattr(inclusion_exclusion.CoverableCounter, "__init__", recording_init)
        cases = [("circle2", {"k": 2, "m": 5, "noise": 2}, 0, CIRCLE2, 3, False),
                 ("vparabola2", {"k": 2, "m": 5, "noise": 2}, 0, VPARABOLA2, 3, False),
                 ("line2", {"k": 2, "m": 8, "noise": 3}, 0, LINE2, 4, True),
                 ("line2", {"k": 2, "m": 5, "noise": 2}, 1, LINE2, 3, True)]
        for family, params, seed, fam, k, forces in cases:
            points = generate("on-curves", dict(params, family=family), seed).points
            kern = curve_kernel(points, fam, k)
            assert bool(kern.forced) == forces and not kern.rejected
            calls.clear()
            grounds.clear()
            res = curve_cover(points, fam, k)
            assert res.decision and res.stats.leaves_ie == 1, family
            assert check_cover(points, res.witness, k)
            assert calls == [len(points)], family
            assert grounds and all(g is not None and not g & ~kern.ground for g in grounds)
            if forces:
                assert kern.ground & (kern.ground + 1) and all(g & (g + 1) for g in grounds)
