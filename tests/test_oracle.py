import random

import pytest

import incidence_reference as reference
from conftest import random_points_2d, random_points_3d
from geomcover.geometry import (
    CIRCLE2,
    LINE2,
    PLANE3,
    VPARABOLA2,
    GeometryError,
    check_cover,
    cover_set_rows,
    curve_fits,
    plane_fits3,
    pt,
)
from geomcover.inclusion_exclusion import CapExceededError
from geomcover.instances import generate
from geomcover.oracle import oracle_min_cover

GRID3 = [pt(i, j) for i in range(3) for j in range(3)]


def reference_min_cover(points, family):
    """(opt, witness) of the oracle's branch-and-bound run over the Fraction
    reference's candidate list, branching on its (object, mask) pairs."""
    n = len(points)
    cands = reference.candidate_cover_sets(points, family)
    by_element = [[(obj, mask) for obj, mask in cands if mask >> e & 1] for e in range(n)]
    max_size = max((mask.bit_count() for _, mask in cands), default=1)
    best, best_witness = n + 1, []

    def search(uncovered, chosen):
        nonlocal best, best_witness
        if not uncovered:
            if len(chosen) < best:
                best, best_witness = len(chosen), list(chosen)
            return
        if len(chosen) + -(-uncovered.bit_count() // max_size) >= best:
            return
        e = (uncovered & -uncovered).bit_length() - 1
        for obj, mask in by_element[e]:
            search(uncovered & ~mask, chosen + [obj])

    search((1 << n) - 1, [])
    return best, best_witness


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
        decisions = [oracle_min_cover(pts, LINE2).opt <= k for k in range(0, 9)]
        assert decisions == sorted(decisions)
        assert decisions[-1]

    def test_decide_budget_above_n(self):
        # a budget past n objects must not be mistaken for a found cover
        assert oracle_min_cover([pt(0, 0, 0)], PLANE3).opt <= 2
        pts = [pt(0, 0), pt(1, 2), pt(3, 1)]
        assert [oracle_min_cover(pts, LINE2).opt <= k for k in range(6)] == [False, False, True, True, True, True]


class TestWitnessRows:
    def test_witness_objects_are_the_built_objects_of_kept_rows(self):
        """The oracle branches on row indexes and builds only the witness's
        objects: they are objects of kept candidate rows whose masks cover
        every point, and opt and witness are those of the same search over
        the Fraction reference's objects."""
        rng = random.Random(29)
        cases = [(fam, random_points_2d(rng, rng.randint(1, 9)))
                 for fam in (LINE2, CIRCLE2, VPARABOLA2) for _ in range(5)]
        cases += [(PLANE3, random_points_3d(rng, rng.randint(1, 9), span=2)) for _ in range(5)]
        cases += [(PLANE3, list(generate("degenerate-plane", {"k": 2, "m": 4}, seed=s).points))
                  for s in range(2)]
        for fam, pts in cases:
            fits, kept = cover_set_rows(pts, fam)
            built = {fits.obj(h): mask for h, mask in kept}
            res = oracle_min_cover(pts, fam)
            covered = 0
            for obj in res.witness:
                covered |= built[obj]
            assert covered == (1 << len(pts)) - 1
            assert tuple(res) == reference_min_cover(pts, fam), (fam.kind, pts)


def _nodes_needed(pts, fam) -> int:
    """The least node budget under which the oracle finishes, by doubling
    and then bisection."""
    lo, hi = 0, 1
    while True:
        try:
            oracle_min_cover(pts, fam, max_nodes=hi)
            break
        except CapExceededError:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            oracle_min_cover(pts, fam, max_nodes=mid)
            hi = mid
        except CapExceededError:
            lo = mid
    return hi


class TestNodeBudget:
    def test_budget_raises_past_the_search_and_changes_nothing_within_it(self):
        """A run that needs B search nodes raises under B - 1 and, under B
        or more, returns the unbudgeted opt and witness."""
        rng = random.Random(41)
        cases = [(fam, random_points_2d(rng, rng.randint(5, 11), span=6))
                 for fam in (LINE2, CIRCLE2, VPARABOLA2) for _ in range(3)]
        cases += [(PLANE3, random_points_3d(rng, rng.randint(5, 11))) for _ in range(3)]
        for fam, pts in cases:
            plain = oracle_min_cover(pts, fam)
            need = _nodes_needed(pts, fam)
            assert need > 1
            with pytest.raises(CapExceededError):
                oracle_min_cover(pts, fam, max_nodes=need - 1)
            for budget in (need, need + 1, 10 * need):
                assert oracle_min_cover(pts, fam, max_nodes=budget) == plain

    def test_budget_zero_raises(self):
        with pytest.raises(CapExceededError):
            oracle_min_cover(GRID3, LINE2, max_nodes=0)


def count_rich(points, family, gamma: int) -> int:
    """The candidates through gamma or more of the points: popcounts over
    the masks of the fitted curves or planes."""
    fits = plane_fits3(points) if family.kind == "plane3" else curve_fits(points, family)
    return sum(mask.bit_count() >= gamma for mask in fits.masks)


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
