import random
from fractions import Fraction

import pytest

from conftest import random_points_2d
from geomcover.curve_branch import (
    _CurveSearch,
    below_base_threshold,
    budget_partitions,
    curve_cover,
    make_branch_config,
    recursion_depth,
)
from geomcover.geometry import (
    CIRCLE2,
    LINE2,
    VPARABOLA2,
    check_cover,
    enumerate_candidates,
    line2_curve,
    pt,
    richness,
)
from geomcover.inclusion_exclusion import ie_decide
from geomcover.oracle import oracle_decide

TRIPLES = [pt(0, 0), pt(1, 0), pt(2, 0),
           pt(0, 7), pt(1, 9), pt(2, 11),
           pt(10, 1), pt(10, 2), pt(10, 3)]
GRID3 = [pt(i, j) for i in range(3) for j in range(3)]


def rich_poor_candidates(points, family, lo, hi):
    """Reference window: candidates freshly enumerated over `points` whose
    richness lies in [lo, hi], richest first."""
    if lo > hi:
        raise ValueError("empty richness window")
    pts = tuple(points)
    out = [(richness(c, pts), c) for c in enumerate_candidates(pts, family)]
    out = [(r, c) for r, c in out if lo <= r <= hi]
    out.sort(key=lambda rc: (-rc[0], rc[1]))
    return [c for _, c in out]


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
        # n < 1.5 * log2(8) = 4.5
        assert below_base_threshold(4, Fraction(3, 2), 8)
        assert not below_base_threshold(5, Fraction(3, 2), 8)
        # non-power-of-two k: n < 2*log2(3) ~ 3.17
        assert below_base_threshold(3, Fraction(2), 3)
        assert not below_base_threshold(4, Fraction(2), 3)


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
                want = oracle_decide(pts, fam, k)
                res = curve_cover(pts, fam, k)
                assert res.decision == want == ie_decide(pts, fam, k).decision
                if res.decision:
                    assert check_cover(pts, res.witness, k)
                # the mask-based window equals a fresh enumeration over the
                # surviving points, at every branching depth
                cfg = make_branch_config(max(k, 2), fam)
                search = _CurveSearch(pts, fam, cfg)
                full = (1 << len(pts)) - 1
                masks = [full] + [mask_rng.getrandbits(len(pts)) for _ in range(4)]
                for depth in range(1, cfg.r):
                    for mask in masks:
                        survivors = [p for i, p in enumerate(pts) if (mask >> i) & 1]
                        fresh = rich_poor_candidates(survivors, fam, cfg.gammas[depth],
                                                     cfg.gammas[depth - 1])
                        assert [c for c, _, _ in search.window(mask, depth)] == fresh

    def test_base_case_factor_variants_agree(self):
        # both published thresholds (factor (d-1)/2 and factor 1) are exact
        # solvers; only the work split between branching and sweeping moves
        rng = random.Random(71)
        for _ in range(8):
            pts = random_points_2d(rng, rng.randint(5, 10))
            k = rng.randint(1, 3)
            default = curve_cover(pts, LINE2, k)
            wide = curve_cover(pts, LINE2, k, base_case_factor=Fraction(1))
            assert default.decision == wide.decision == oracle_decide(pts, LINE2, k)

    def test_leaf_count_bounded_by_branch_product(self):
        res = curve_cover(GRID3, LINE2, 2)
        # crude sanity bound: every leaf comes from some partition's chain of
        # at most C(candidates, k_i) choices
        total_cands = 20  # 8 rich lines + 12 pair lines in the grid
        assert res.stats.leaves_ie + res.stats.leaves_rejected <= 4 * total_cands ** 2
