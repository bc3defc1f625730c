"""Parameterized branching solver for curve cover.

The budget k is split over r recursion levels (all compositions are tried).
Level i only branches on candidates whose richness lies in the halving window
[gamma_i, gamma_(i-1)] with gamma_i = s*k/2^i; once few enough points remain,
or at the deepest level, the subset-sweep decider finishes the job exactly.
`branch_cover` tries the budget partitions one after another with a single
search object, the one search path that the paper's polynomial-space bound
assumes; it is shared with the R^3 plane solver.

The curve search reads its candidates off the kernel's result: the kernel has
fitted every curve once, and cuts the masks to the points it keeps. Almost
every child of a node is too large for its remaining budget, so the node
counts those children itself, in bulk where a whole run of combinations must
fall short, and calls only the children that pass.

All thresholds are evaluated in exact rational (or integer-power) arithmetic,
so accept/reject boundaries cannot drift with platform rounding.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .geometry import FamilySpec, Point
from .inclusion_exclusion import DEFAULT_SUBSET_CAP, CoverableCounter, _self_reduce, _signed_sum
from .kernel import KernelResult, curve_kernel


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    leaves_ie: int = 0
    leaves_rejected: int = 0
    max_depth: int = 0
    ie_subsets: int = 0
    wall_ms: int = 0


class CoverResult(NamedTuple):
    decision: bool
    witness: Optional[list]
    stats: SearchStats


def ceil_log2_int(k: int) -> int:
    """Smallest r with 2^r >= k, for k >= 1."""
    if k < 1:
        raise ValueError("ceil_log2_int needs k >= 1")
    return (k - 1).bit_length()


def ceil_log2_fraction(x: Fraction) -> int:
    """Smallest nonnegative r with 2^r >= x (x > 0)."""
    r = 0
    while (1 << r) < x:
        r += 1
    return r


def recursion_depth(k: int, d: int, s: int) -> int:
    """Number of recursion levels: r = max(1, ceil(log2(4sk / ((d-1) log2 k)))),
    with the inner log taken as the conservative integer ceiling."""
    if k < 2:
        raise ValueError("branching needs k >= 2; fall through to the subset sweep")
    denom = (d - 1) * ceil_log2_int(k)
    return max(1, ceil_log2_fraction(Fraction(4 * s * k, denom)))


def budget_partitions(k: int, r: int) -> Iterator[tuple[int, ...]]:
    """All compositions of k into r nonnegative parts, lexicographically."""
    if r < 1:
        raise ValueError("need at least one part")

    def rec(prefix: tuple[int, ...], remaining: int, parts_left: int):
        if parts_left == 1:
            yield prefix + (remaining,)
            return
        for first in range(remaining + 1):
            yield from rec(prefix + (first,), remaining - first, parts_left - 1)

    yield from rec((), k, r)


def below_base_threshold(n_pts: int, budget_factor: Fraction, k: int) -> bool:
    """Exact test for n_pts < budget_factor * log2(k); for k not a power of
    two the comparison is lifted to integer powers: 2^(n*q) < k^p."""
    if k <= 1:
        return False
    if budget_factor <= 0:
        return False
    p, q = budget_factor.numerator, budget_factor.denominator
    return 2 ** (n_pts * q) < k ** p


def sweep_leaf(counter: CoverableCounter, k: int, cap: int, stats: SearchStats) -> Optional[list]:
    """A cover of the counter's ground by at most k objects, or None when
    there is none. One subset sweep decides, its subsets are added to
    `stats.ie_subsets`, and a yes self-reduces on the same counter and sum."""
    res = _signed_sum(counter, counter.mask, k, cap)
    stats.ie_subsets += res.subsets
    return _self_reduce(counter, k, res.ie_sum, cap) if res.decision else None


@dataclass(frozen=True)
class BranchConfig:
    """Search parameters of one kernelized instance: depth r, and the richness
    thresholds gamma_0 > ... > gamma_r bounding each level's window."""
    k: int
    r: int
    base_case_factor: Fraction
    ie_cap: int
    gammas: tuple[Fraction, ...]


def make_branch_config(k: int, family: FamilySpec,
                       base_case_factor: Optional[Fraction] = None,
                       ie_cap: int = DEFAULT_SUBSET_CAP) -> BranchConfig:
    """Depth and thresholds gamma_i = s*k/2^i for a kernelized budget k. The
    depth formula is capped so every branching level's window can still catch
    candidates through at least d points (gamma_i >= d-1 for i < r). Below
    k=2 the search never runs and the depth is 1."""
    d, s = family.d, family.s
    r = recursion_depth(k, d, s) if k >= 2 else 1
    deepest = 0
    while Fraction(s * k, 1 << (deepest + 1)) >= d - 1:
        deepest += 1
    r = max(1, min(r, deepest + 1))
    factor = base_case_factor if base_case_factor is not None else Fraction(d - 1, 2)
    gammas = tuple(Fraction(s * k, 1 << i) for i in range(r + 1))
    return BranchConfig(k, r, factor, ie_cap, gammas)


class _CurveSearch:
    """Mask-based search over one kernelized instance. Its candidate curves
    and their point masks come from the kernel, which fitted them once; per
    node only popcounts remain. Sweep leaves that reject are remembered by
    (mask, budget).

    A child that is rejected on size is counted at its parent, without a
    call: the parent knows its point count, so it tests it against the
    child's integer size cap. When a prefix of picks cannot reach the size
    cap even with the richest remaining candidates, every completion of it is
    counted at once. The counters equal those of the plain search, which
    enters each child, because the children skipped this way come, in its
    order, before any later accepting child."""

    def __init__(self, kern: KernelResult, family: FamilySpec, config: BranchConfig):
        self.points = kern.points
        self.family = family
        self.cfg = config
        self.stats = SearchStats()
        # (index into `fits`, mask), sorted once by curve, so that a stable
        # sort by richness orders each window; a curve is built only for a
        # witness
        self.fits = kern.fits
        keys = self.fits.keys() if self.fits is not None else ()
        self.cands = sorted(kern.candidates, key=lambda cm: keys[cm[0]])
        self._no_leaves: set[tuple[int, int]] = set()

    def _subset_points(self, mask: int) -> list[Point]:
        return [p for i, p in enumerate(self.points) if (mask >> i) & 1]

    def _ie(self, mask: int, budget: int) -> Optional[list]:
        """The sweep leaf over the points in `mask`: a cover of them by at
        most `budget` curves, or None when there is none, decided and
        extracted on one counter. No-leaves are remembered; a yes-leaf ends
        the search."""
        key = (mask, budget)
        if key in self._no_leaves:
            return None
        counter = CoverableCounter(self._subset_points(mask), self.family)
        ext = sweep_leaf(counter, budget, self.cfg.ie_cap, self.stats)
        if ext is None:
            self._no_leaves.add(key)
        return ext

    def _size_cap(self, partition: tuple[int, ...], depth: int) -> int:
        """floor(remaining budget * gamma_(depth-1)): a node at `depth` with
        more points than this is rejected."""
        gamma = self.cfg.gammas[depth - 1]
        return sum(partition[depth - 1:]) * gamma.numerator // gamma.denominator

    def window(self, mask: int, depth: int) -> list[tuple]:
        """(index, mask, richness) of the kernel's candidates whose richness
        over the points in `mask` lies in [gamma_depth, gamma_(depth-1)],
        richest first, ties in curve order. Richness >= d keeps only curves
        through d surviving points, matching a fresh enumeration over the
        current point set. The node counts the children of a window that fall
        short of its size cap, rather than entering them."""
        lo, hi = self.cfg.gammas[depth], self.cfg.gammas[depth - 1]
        lo = max(self.family.d, -(-lo.numerator // lo.denominator))
        hi = hi.numerator // hi.denominator
        window = [(c, m, (m & mask).bit_count()) for c, m in self.cands]
        window = [t for t in window if lo <= t[2] <= hi]
        window.sort(key=lambda t: -t[2])
        return window

    def _reject(self, count: int, depth: int) -> None:
        """Count `count` nodes at `depth`, each rejected on size."""
        stats = self.stats
        stats.nodes_expanded += count
        stats.leaves_rejected += count
        stats.max_depth = max(stats.max_depth, depth)

    def run(self, partition: tuple[int, ...]) -> tuple[bool, Optional[list]]:
        """Search one budget partition from the root."""
        mask = (1 << len(self.points)) - 1
        if mask.bit_count() > self._size_cap(partition, 1):
            self._reject(1, 1)
            return False, None
        return self._expand(partition, mask, 1, ())

    def _expand(self, partition: tuple[int, ...], mask: int, depth: int,
                partial: tuple) -> tuple[bool, Optional[list]]:
        """A node at `depth` over the points in `mask`, which passed its size
        test: a sweep leaf, or a branch over the window's combinations."""
        cfg, stats = self.cfg, self.stats
        stats.nodes_expanded += 1
        stats.max_depth = max(stats.max_depth, depth)
        remaining_budget = sum(partition[depth - 1:])
        n_pts = mask.bit_count()

        if depth == cfg.r or below_base_threshold(n_pts, cfg.base_case_factor * remaining_budget, cfg.k):
            stats.leaves_ie += 1
            ext = self._ie(mask, remaining_budget)
            if ext is None:
                return False, None
            return True, [self.fits.obj(c) for c in partial] + ext

        window = self.window(mask, depth)
        width = len(window)
        rich = [r for _, _, r in window]
        sums = list(itertools.accumulate(rich, initial=0))
        cap = self._size_cap(partition, depth + 1)
        need = n_pts - cap  # a child keeps at most `cap` points
        picked: list[int] = []

        def picks(start: int, left: int, covered: int, rsum: int) -> Optional[list]:
            """The combinations of `left` more window indexes from `start` on,
            in lexicographic order; the witness of the first accepting child."""
            if not left:
                child = mask & ~covered
                if child.bit_count() > cap:
                    self._reject(1, depth + 1)
                    return None
                ok, wit = self._expand(partition, child, depth + 1,
                                       partial + tuple(window[j][0] for j in picked))
                return wit if ok else None
            for i in range(start, width - left + 1):
                if rsum + sums[i + left] - sums[i] < need:
                    # the richest completions fall short, so all of them do
                    self._reject(math.comb(width - i, left), depth + 1)
                    return None
                picked.append(i)
                wit = picks(i + 1, left - 1, covered | window[i][1], rsum + rich[i])
                picked.pop()
                if wit is not None:
                    return wit
            return None

        wit = picks(0, partition[depth - 1], 0, 0)
        return (True, wit) if wit is not None else (False, None)


def branch_cover(kern: KernelResult, family: FamilySpec, config: BranchConfig, search_cls,
                 partitions: Iterable[tuple[int, ...]]) -> CoverResult:
    """Search over the budget partitions, shared by the curve and plane
    solvers and run on their kernel's result. A small reduced instance goes
    straight to the subset sweep. Otherwise one `search_cls(kern, family,
    config)` object searches the budget partitions in order, and the first
    one that accepts gives the witness, after the kernel's forced objects.
    The search object's cache of rejecting sweep leaves is shared by all
    partitions."""
    forced, pts, k2 = kern.forced, kern.points, kern.k
    stats = SearchStats()
    if kern.rejected:
        return CoverResult(False, None, stats)
    if not pts:
        return CoverResult(True, list(forced), stats)

    if k2 < 2 or below_base_threshold(len(pts), config.base_case_factor * k2, k2):
        stats.leaves_ie += 1
        ext = sweep_leaf(CoverableCounter(pts, family), k2, config.ie_cap, stats)
        if ext is None:
            return CoverResult(False, None, stats)
        return CoverResult(True, list(forced) + ext, stats)

    search = search_cls(kern, family, config)
    for partition in partitions:
        ok, wit = search.run(partition)
        if ok:
            return CoverResult(True, list(forced) + wit, search.stats)
    return CoverResult(False, None, search.stats)


def curve_cover(points: Sequence[Point], family: FamilySpec, k: int,
                base_case_factor: Optional[Fraction] = None,
                ie_cap: int = DEFAULT_SUBSET_CAP) -> CoverResult:
    """Kernelize, then try every budget partition; accept on the first one
    whose recursive search accepts. Forced curves from the kernel lead the
    witness."""
    t0 = time.perf_counter()
    kern = curve_kernel(points, family, k)
    config = make_branch_config(kern.k, family, base_case_factor, ie_cap)
    res = branch_cover(kern, family, config, _CurveSearch,
                       budget_partitions(config.k, config.r))
    res.stats.wall_ms = int((time.perf_counter() - t0) * 1000)
    return res
