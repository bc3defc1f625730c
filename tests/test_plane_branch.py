import random
from fractions import Fraction

from conftest import random_points_3d
from geomcover.geometry import (
    PLANE3,
    check_cover,
    flat_contains,
    line_through,
    plane3_curve,
    pt,
)
from geomcover.instances import generate
from geomcover.oracle import oracle_decide
from geomcover.plane_branch import (
    _is_ripe,
    _line_rich_enough,
    _too_degenerate_counts,
    extend_lines,
    make_plane_config,
    plane_cover,
)

XAXIS = line_through(pt(0, 0, 0), pt(1, 0, 0))


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
        assert list(extend_lines([XAXIS], [pt(0, 0, 1)])) == [(plane3_curve(0, 1, 0, 0),)]

    def test_fallback_without_points(self):
        combos = list(extend_lines([XAXIS], []))
        assert len(combos) == 1 and flat_contains(combos[0][0], XAXIS)

    def test_two_skew_lines(self):
        other = line_through(pt(0, 5, 1), pt(1, 5, 2))
        combos = list(extend_lines([XAXIS, other], [pt(0, 0, 3), pt(2, 7, 1)]))
        assert 1 <= len(combos) <= 4
        for combo in combos:
            assert len(set(combo)) == 2
            assert flat_contains(combo[0], XAXIS) and flat_contains(combo[1], other)

    def test_avoid_filter(self):
        # planes through the x-axis and a point of the parallel line would
        # cover that line; they must be filtered and the fallback used
        parallel = line_through(pt(0, 1, 0), pt(1, 1, 0))
        combos = list(extend_lines([XAXIS], [pt(3, 1, 0)], avoid=[parallel]))
        assert len(combos) == 1
        assert not flat_contains(combos[0][0], parallel)


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
        for t in range(12):
            pts = random_points_3d(rng, rng.randint(4, 9))
            k = rng.randint(1, 3)
            want = oracle_decide(pts, PLANE3, k)
            res = plane_cover(pts, k, rng_seed=t)
            assert res.decision == want, (pts, k)
            if res.decision:
                assert check_cover(pts, res.witness, k)

    def test_degenerate_instances_agree_with_oracle(self):
        # planted clusters with 90% of each cluster on one line force the
        # too-degenerate path, where heavy lines are stamped and extended
        for seed in range(4):
            inst = generate("degenerate-plane", {"k": 2, "m": 5}, seed=seed)
            pts = list(inst.points)
            if len(pts) > 12:
                continue
            want = oracle_decide(pts, PLANE3, inst.k)
            res = plane_cover(pts, inst.k, rng_seed=seed)
            assert res.decision == want
            if res.decision:
                assert check_cover(pts, res.witness, inst.k)

    def test_stamped_lines_stay_within_budget(self):
        inst = generate("degenerate-plane", {"k": 2, "m": 6}, seed=9)
        res = plane_cover(list(inst.points), 2, rng_seed=9)
        assert res.decision
        assert len(res.witness) <= 2

    def test_threads_same_decision(self):
        rng = random.Random(107)
        pts = random_points_3d(rng, 8)
        for k in (2, 3):
            seq = plane_cover(pts, k)
            par = plane_cover(pts, k, threads=2)
            assert seq.decision == par.decision
            assert seq.witness == par.witness
