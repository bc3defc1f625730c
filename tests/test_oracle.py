import random

import pytest

from conftest import random_points_2d
from geomcover.geometry import CIRCLE2, LINE2, PLANE3, VPARABOLA2, GeometryError, check_cover, pt
from geomcover.inclusion_exclusion import CapExceededError
from geomcover.oracle import count_rich, oracle_decide, oracle_min_cover

GRID3 = [pt(i, j) for i in range(3) for j in range(3)]


class TestMinCover:
    def test_grid(self):
        res = oracle_min_cover(GRID3, LINE2)
        assert res.opt == 3
        assert check_cover(GRID3, res.witness, 3)

    def test_points_on_one_circle(self):
        pts = [pt(0, 0), pt(2, 0), pt(0, 2), pt(2, 2)]
        assert oracle_min_cover(pts, CIRCLE2).opt == 1

    def test_general_position(self):
        assert oracle_min_cover([pt(0, 0), pt(1, 2), pt(3, 1), pt(5, 5)], LINE2).opt == 2

    def test_collinear_triple_circles_uses_pairs(self):
        assert oracle_min_cover([pt(0, 0), pt(1, 0), pt(2, 0)], CIRCLE2).opt == 2

    def test_cap(self):
        pts = [pt(i, i * i) for i in range(17)]
        with pytest.raises(CapExceededError):
            oracle_min_cover(pts, LINE2)

    def test_witness_minimality_spot_check(self):
        rng = random.Random(3)
        for fam in (LINE2, CIRCLE2, VPARABOLA2):
            for _ in range(10):
                pts = random_points_2d(rng, rng.randint(3, 8))
                res = oracle_min_cover(pts, fam)
                assert check_cover(pts, res.witness, res.opt)
                # dropping any witness object leaves some point uncovered,
                # otherwise opt would not be minimal
                for i in range(len(res.witness)):
                    rest = res.witness[:i] + res.witness[i + 1:]
                    assert not check_cover(pts, rest, res.opt)

    def test_decide_monotone(self):
        rng = random.Random(17)
        pts = random_points_2d(rng, 8)
        decisions = [oracle_decide(pts, LINE2, k) for k in range(0, 9)]
        assert decisions == sorted(decisions)
        assert decisions[-1]

    def test_decide_budget_above_n(self):
        # a budget past n objects must not be mistaken for a found cover
        assert oracle_decide([pt(0, 0, 0)], PLANE3, 2)
        pts = [pt(0, 0), pt(1, 2), pt(3, 1)]
        assert [oracle_decide(pts, LINE2, k) for k in range(6)] == [False, False, True, True, True, True]


class TestCountRich:
    def test_grid_threshold_three(self):
        assert count_rich(GRID3, LINE2, 3) == 8  # 3 rows, 3 columns, 2 diagonals

    def test_above_n(self):
        assert count_rich(GRID3, LINE2, 10) == 0

    def test_all_collinear(self):
        assert count_rich([pt(i, 0) for i in range(5)], LINE2, 5) == 1

    def test_monotone_in_gamma(self):
        rng = random.Random(19)
        pts = random_points_2d(rng, 9)
        counts = [count_rich(pts, LINE2, g) for g in range(2, 10)]
        assert counts == sorted(counts, reverse=True)


    def test_rejects_points_of_the_wrong_dimension(self):
        with pytest.raises(GeometryError):
            count_rich([pt(0, 0), pt(1, 0), pt(0, 1), pt(2, 3)], PLANE3, 3)
        with pytest.raises(GeometryError):
            count_rich([pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)], LINE2, 2)
