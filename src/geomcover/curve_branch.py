"""Parameterized branching solver for curve cover.

The budget k is split over r recursion levels (all compositions are tried).
Level i only branches on candidates whose richness lies in the halving window
[gamma_i, gamma_(i-1)] with gamma_i = s*k/2^i; once few enough points remain,
or at the deepest level, the subset-sweep decider finishes the job exactly.
`branch_cover` tries the budget partitions one after another with a single
search object, the one search path that the paper's polynomial-space bound
assumes; it is shared with the R^3 plane solver, and so is the node skeleton
`_Search` (node counting, sweep leaves and their cache).

The curve search reads its candidates off the kernel's result: the kernel has
fitted every curve once, and cuts the masks to the points it keeps. Almost
every child of a node is too large for its remaining budget, so the node
counts those children itself, in bulk where a whole run of combinations must
fall short, and calls only the children that pass.

Every threshold is derived once per solve, in exact rational and
integer-power arithmetic, into the integer tables of `BranchConfig`, so
accept/reject boundaries cannot drift with platform rounding and a node
compares integers only.
"""

from __future__ import annotations

import itertools
import math
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


def recursion_depth(k: int, d: int, s: int) -> int:
    """Number of recursion levels: r = max(1, ceil(log2(4sk / ((d-1) log2 k)))),
    with the inner log taken as the conservative integer ceiling."""
    if k < 2:
        raise ValueError("branching needs k >= 2; fall through to the subset sweep")
    denom = (d - 1) * ceil_log2_int(k)
    # 2^r >= 4sk/denom iff 2^r >= ceil(4sk/denom)
    return max(1, ceil_log2_int(-(-4 * s * k // denom)))


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


def sweep_leaf(counter: CoverableCounter, k: int, cap: int, stats: SearchStats) -> Optional[list]:
    """A cover of the counter's ground by at most k objects, or None when
    there is none. One subset sweep decides, its subsets are added to
    `stats.ie_subsets`, and a yes self-reduces on the same counter and sum."""
    res = _signed_sum(counter, counter.mask, k, cap)
    stats.ie_subsets += res.subsets
    return _self_reduce(counter, k, res.ie_sum, cap) if res.decision else None


@dataclass(frozen=True)
class BranchConfig:
    """Search parameters of one kernelized instance, fixed per solve: depth r,
    the richness thresholds gamma_0 > ... > gamma_r bounding each level's
    window, and the integer tables the searches test in their place.

    caps[i][b] = floor(b * gamma_i) for b <= 2k: a node at depth i+1 whose
    b objects (budget plus pending lines) face more points is rejected.
    lows[i] = ceil(gamma_i): depth i's window is [lows[i], caps[i-1][1]].
    base[b], for a budget b <= k: a node with fewer points than this is a
    sweep leaf, as n < factor * b * log2(k) holds exactly for those n."""
    k: int
    r: int
    ie_cap: int
    gammas: tuple[Fraction, ...]
    caps: tuple[tuple[int, ...], ...]
    lows: tuple[int, ...]
    base: tuple[int, ...]


def _config(k: int, r: int, factor: tuple[int, int], ie_cap: int,
            gammas: tuple[Fraction, ...]) -> BranchConfig:
    """The config of depth r and thresholds `gammas`, with the base-case
    factor p/q = `factor`: a node with budget b and n points is a sweep leaf
    when n < (p*b/q) * log2(k), that is when 2^(n*q) < k^(p*b)."""
    p, q = factor
    caps = tuple(tuple(b * g.numerator // g.denominator for b in range(2 * k + 1))
                 for g in gammas)
    lows = tuple(-(-g.numerator // g.denominator) for g in gammas)
    # the least n with 2^(n*q) >= k^(p*b) is ceil(ceil(log2(k^(p*b))) / q)
    base = tuple(-(-(k ** (p * b) - 1).bit_length() // q) for b in range(k + 1))
    return BranchConfig(k, r, ie_cap, gammas, caps, lows, base)


def make_branch_config(k: int, family: FamilySpec,
                       ie_cap: int = DEFAULT_SUBSET_CAP) -> BranchConfig:
    """Depth and thresholds gamma_i = s*k/2^i for a kernelized budget k, with
    the base-case factor (d-1)/2. The depth formula is capped so every
    branching level's window can still catch candidates through at least d
    points (gamma_i >= d-1 for i < r). Below k=2 the search never runs and
    the depth is 1."""
    d, s = family.d, family.s
    r = recursion_depth(k, d, s) if k >= 2 else 1
    deepest = 0
    while s * k >= (d - 1) << (deepest + 1):
        deepest += 1
    r = max(1, min(r, deepest + 1))
    gammas = tuple(Fraction(s * k, 1 << i) for i in range(r + 1))
    return _config(k, r, (d - 1, 2), ie_cap, gammas)


class _Search:
    """The node skeleton that the curve and plane searches share over one
    kernelized instance: counting entered and size-rejected nodes, telling
    sweep leaves apart by the config's base-case point counts, and the sweep
    leaf itself, whose no-answers are remembered by (mask, pending lines,
    budget). A subclass supplies its branching, `_counter(mask, lines)`, the
    leaf's counter over the points in `mask` and the pending `lines`, and
    `_object(h)`, the object that a partial cover names by `h`."""

    def __init__(self, kern: KernelResult, family: FamilySpec, config: BranchConfig):
        self.points = kern.points
        self.family = family
        self.cfg = config
        self.stats = SearchStats()
        self._no_leaves: set[tuple[int, tuple, int]] = set()

    def _ie(self, mask: int, lines: tuple, budget: int) -> Optional[list]:
        """The sweep leaf over the points in `mask` and the pending `lines`: a
        cover of them by at most `budget` objects, or None when there is
        none, decided and extracted on one counter. No-leaves are remembered;
        a yes-leaf ends the search."""
        key = (mask, lines, budget)
        if key in self._no_leaves:
            return None
        ext = sweep_leaf(self._counter(mask, lines), budget, self.cfg.ie_cap, self.stats)
        if ext is None:
            self._no_leaves.add(key)
        return ext

    def _reject(self, count: int, depth: int) -> None:
        """Count `count` nodes at `depth`, each rejected on size."""
        stats = self.stats
        stats.nodes_expanded += count
        stats.leaves_rejected += count
        stats.max_depth = max(stats.max_depth, depth)

    def _leaf(self, mask: int, depth: int, budget: int, stamped: tuple,
              partial: tuple) -> Optional[tuple[bool, Optional[list]]]:
        """Enter a node at `depth` over the points in `mask` and the pending
        lines `stamped` ((line index, stamp depth) pairs), which passed its
        size test, with `budget` objects for its points. At the deepest level,
        or below the base-case point count of `budget`, it is a sweep leaf
        and its answer is returned, the partial cover leading the witness;
        otherwise None, and the caller branches."""
        stats = self.stats
        stats.nodes_expanded += 1
        stats.max_depth = max(stats.max_depth, depth)
        if depth < self.cfg.r and mask.bit_count() >= self.cfg.base[budget]:
            return None
        stats.leaves_ie += 1
        ext = self._ie(mask, tuple(j for j, _ in stamped), budget + len(stamped))
        if ext is None:
            return False, None
        return True, [self._object(h) for h in partial] + ext

    def _size_cap(self, budget: int, depth: int) -> int:
        """floor(budget * gamma_(depth-1)): a node at `depth` with more points
        than this is rejected."""
        return self.cfg.caps[depth - 1][budget]


class _CurveSearch(_Search):
    """Mask-based search over one kernelized instance. Its candidate curves
    and their point masks come from the kernel, which fitted them once; per
    node only popcounts remain.

    A child that is rejected on size is counted at its parent, without a
    call: the parent knows its point count, so it tests it against the
    child's integer size cap. When a prefix of picks cannot reach the size
    cap even with the richest remaining candidates, every completion of it is
    counted at once. The counters equal those of the plain search, which
    enters each child, because the children skipped this way come, in its
    order, before any later accepting child."""

    def __init__(self, kern: KernelResult, family: FamilySpec, config: BranchConfig):
        super().__init__(kern, family, config)
        # (index into `fits`, mask), sorted once by curve, so that a stable
        # sort by richness orders each window; a curve is built only for a
        # witness
        self.fits = kern.fits
        keys = self.fits.keys() if self.fits is not None else ()
        self.cands = sorted(kern.candidates, key=lambda cm: keys[cm[0]])

    def _counter(self, mask: int, lines: tuple) -> CoverableCounter:
        return CoverableCounter([p for i, p in enumerate(self.points) if (mask >> i) & 1],
                                self.family)

    def _object(self, h):
        return self.fits.obj(h)

    def window(self, mask: int, depth: int) -> list[tuple]:
        """(index, mask, richness) of the kernel's candidates whose richness
        over the points in `mask` lies in [gamma_depth, gamma_(depth-1)],
        richest first, ties in curve order. Richness >= d keeps only curves
        through d surviving points, matching a fresh enumeration over the
        current point set. The node counts the children of a window that fall
        short of its size cap, rather than entering them."""
        lo, hi = max(self.family.d, self.cfg.lows[depth]), self.cfg.caps[depth - 1][1]
        window = [(c, m, (m & mask).bit_count()) for c, m in self.cands]
        window = [t for t in window if lo <= t[2] <= hi]
        window.sort(key=lambda t: -t[2])
        return window

    def run(self, partition: tuple[int, ...]) -> tuple[bool, Optional[list]]:
        """Search one budget partition from the root."""
        mask = (1 << len(self.points)) - 1
        if mask.bit_count() > self._size_cap(sum(partition), 1):
            self._reject(1, 1)
            return False, None
        return self._expand(partition, mask, 1, ())

    def _expand(self, partition: tuple[int, ...], mask: int, depth: int,
                partial: tuple) -> tuple[bool, Optional[list]]:
        """A node at `depth` over the points in `mask`, which passed its size
        test: a sweep leaf, or a branch over the window's combinations."""
        leaf = self._leaf(mask, depth, sum(partition[depth - 1:]), (), partial)
        if leaf is not None:
            return leaf

        window = self.window(mask, depth)
        width = len(window)
        rich = [r for _, _, r in window]
        sums = list(itertools.accumulate(rich, initial=0))
        cap = self._size_cap(sum(partition[depth:]), depth + 1)
        need = mask.bit_count() - cap  # a child keeps at most `cap` points
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

    if k2 < 2 or len(pts) < config.base[k2]:
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
                ie_cap: int = DEFAULT_SUBSET_CAP) -> CoverResult:
    """Kernelize, then try every budget partition; accept on the first one
    whose recursive search accepts. Forced curves from the kernel lead the
    witness."""
    kern = curve_kernel(points, family, k)
    config = make_branch_config(kern.k, family, ie_cap)
    return branch_cover(kern, family, config, _CurveSearch,
                        budget_partitions(config.k, config.r))
