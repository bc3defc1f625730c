"""Parameterized branching solver for curve cover.

The budget k is split over r recursion levels (all compositions are tried).
Level i only branches on candidates whose richness lies in the halving window
[gamma_i, gamma_(i-1)] with gamma_i = s*k/2^i; once few enough points remain,
or at the deepest level, the subset-sweep decider finishes the job exactly.
`branch_cover` tries the budget partitions one after another with a single
search object, the one search path that the paper's polynomial-space bound
assumes; it is shared with the R^3 plane solver, and so is the node skeleton
`_Search` (node counting, the child walk, sweep leaves and their cache).

Both searches read the incidence layer that their kernel hands on with its
result, over the points in its ground mask: the curve kernel's own curve
masks, fitted once, or the plane kernel's `PlaneLayer`. Every sweep leaf's
counter is cut from that layer, so no leaf fits a curve or plane. Almost
every child of a node is too large for its remaining budget, so both searches
count those children at the parent, in bulk where a whole run of picks must
fall short (`_Search._walk`), and call only the children that pass.

Every threshold is derived once per solve, in exact rational and
integer-power arithmetic, into the integer tables of `BranchConfig`, so
accept/reject boundaries cannot drift with platform rounding and a node
compares integers only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .geometry import FamilySpec, Point
from .inclusion_exclusion import DEFAULT_SUBSET_CAP, CoverableCounter, _self_reduce, _signed_sum
from .kernel import KernelResult, curve_kernel


@dataclass
class SearchStats:
    """The counters of one search: nodes entered or counted as rejected,
    sweep leaves, the deepest level, and `ie_subsets`, which adds 2^|ground|
    for each leaf decided, whether by a sweep or by a test that decides it
    without one (`_PlaneSearch._pencil_no`); a remembered no-leaf adds
    nothing."""
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
    kernelized instance: the root, counting entered and size-rejected nodes,
    the walk over a node's children, telling sweep leaves apart by the
    config's base-case point counts, and the sweep leaf itself, whose
    no-answers are remembered by (mask, pending lines, budget). Masks are
    over the points of the kernel's layer, and the root's is the kernel's
    ground. A subclass supplies its node `_expand`, which gives the walk its
    slots, and `_object(h)`, the object a partial cover names by `h`."""

    def __init__(self, kern: KernelResult, family: FamilySpec, config: BranchConfig):
        self.layer, self.ground = kern.layer, kern.ground
        self.family = family
        self.cfg = config
        self.stats = SearchStats()
        self._no_leaves: set[tuple[int, tuple, int]] = set()

    def _ie(self, mask: int, lines: tuple, budget: int) -> Optional[list]:
        """The sweep leaf over the points in `mask` and the pending `lines`: a
        cover of them by at most `budget` objects, or None when there is
        none, decided and extracted on one counter cut from the layer.
        No-leaves are remembered; a yes-leaf ends the search. A decided leaf
        adds 2^|ground| to `stats.ie_subsets`, however it was decided (the
        plane search answers some without a sweep)."""
        key = (mask, lines, budget)
        if key in self._no_leaves:
            return None
        ext = sweep_leaf(CoverableCounter(self.layer, mask, lines), budget, self.cfg.ie_cap,
                         self.stats)
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

    def run(self, partition: tuple[int, ...]) -> tuple[bool, Optional[list]]:
        """Search one budget partition from the root, which passes its size
        test or is rejected like any other node."""
        mask = self.ground
        if mask.bit_count() > self.cfg.caps[0][sum(partition)]:
            self._reject(1, 1)
            return False, None
        return self._expand(partition, mask, 1, ())

    def _walk(self, slots: Sequence[tuple[list, int]], mask: int, cap: int, depth: int,
              enter) -> tuple[bool, Optional[list]]:
        """The children of a node over the points in `mask`. Each slot is a
        list of (name, mask, size) entries, size being the points of `mask`
        an entry covers, and a pick count; a child picks that many entries of
        each slot, in lexicographic order slot after slot, and keeps the
        points none of them covers. A child with more than `cap` points is
        counted as rejected at `depth`; the others are entered by
        `enter(names, child mask)`, which returns (ok, witness), until one
        accepts. A run of completions is counted at once when the picks so
        far plus the sizes' suffix maxima, summed pick by pick, fall short of
        the cap. The counters equal those of a search that enters every
        child, as the children counted here come before any accepting one."""
        need = mask.bit_count() - cap  # a child keeps at most `cap` points
        tables, best, rest = [], 0, 1
        for entries, picks in reversed(slots):
            if not picks:
                continue
            if len(entries) < picks:
                return False, None
            # suf[i] - suf[i + left] bounds what `left` picks from entry i on cover
            suf, top, total = [0], 0, 0
            for _, _, size in reversed(entries):
                if size > top:
                    top = size
                total += top
                suf.append(total)
            suf.reverse()
            # the later slots' picks cover at most `best` points, in `rest` ways
            tables.insert(0, (entries, picks, suf, need - best, rest))
            best += suf[0] - suf[picks]
            rest *= math.comb(len(entries), picks)

        def pick(s: int, start: int, left: int, covered: int, rsum: int, names: tuple):
            if not left:
                s += 1
                if s == len(tables):
                    child = mask & ~covered
                    if child.bit_count() > cap:
                        self._reject(1, depth)
                        return False, None
                    return enter(names, child)
                start, left = 0, tables[s][1]
            entries, _, suf, short, rest = tables[s]
            width = len(entries)
            for i in range(start, width - left + 1):
                if rsum + suf[i] - suf[i + left] < short:
                    # the richest completions fall short, so all of them do
                    self._reject(math.comb(width - i, left) * rest, depth)
                    return False, None
                name, m, size = entries[i]
                res = pick(s, i + 1, left - 1, covered | m, rsum + size, names + (name,))
                if res[0]:
                    return res
            return False, None

        # slot -1 has no picks left, so the walk starts at slot 0
        return pick(-1, 0, 0, 0, 0, ())


class _CurveSearch(_Search):
    """Mask-based search over one kernelized instance. Its candidate curves
    and their point masks are the kernel's layer, fitted once; per node only
    popcounts remain. A node's children pick from its window, in one slot of
    the skeleton's child walk (`_Search._walk`)."""

    def __init__(self, kern: KernelResult, family: FamilySpec, config: BranchConfig):
        super().__init__(kern, family, config)
        # (layer index, mask) of each curve through d ground points, sorted
        # once by curve, so that a stable sort by richness orders each
        # window; a curve is built only for a witness
        keys, ground, d = self.layer.keys(), self.ground, family.d
        self.cands = sorted(((c, m) for c, m in enumerate(self.layer.masks)
                             if (m & ground).bit_count() >= d), key=lambda cm: keys[cm[0]])

    def _object(self, h):
        return self.layer.obj(h)

    def window(self, mask: int, depth: int) -> list[tuple]:
        """(layer index, mask, richness) of the candidates whose richness
        over the points in `mask` lies in [gamma_depth, gamma_(depth-1)],
        richest first, ties in curve order. Richness >= d keeps only curves
        through d surviving points, matching a fresh enumeration over the
        current point set."""
        lo, hi = max(self.family.d, self.cfg.lows[depth]), self.cfg.caps[depth - 1][1]
        window = [(c, m, (m & mask).bit_count()) for c, m in self.cands]
        window = [t for t in window if lo <= t[2] <= hi]
        window.sort(key=lambda t: -t[2])
        return window

    def _expand(self, partition: tuple[int, ...], mask: int, depth: int,
                partial: tuple) -> tuple[bool, Optional[list]]:
        """A node at `depth` over the points in `mask`, which passed its size
        test: a sweep leaf, or a branch over the window's combinations."""
        leaf = self._leaf(mask, depth, sum(partition[depth - 1:]), (), partial)
        if leaf is not None:
            return leaf

        cap = self.cfg.caps[depth][sum(partition[depth:])]
        return self._walk([(self.window(mask, depth), partition[depth - 1])], mask, cap, depth + 1,
                          lambda names, child: self._expand(partition, child, depth + 1,
                                                            partial + names))


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
        ext = sweep_leaf(CoverableCounter(kern.layer, kern.ground), k2, config.ie_cap, stats)
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
