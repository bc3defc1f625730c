"""Branching solver for plane cover in R^3.

Runs on the curve search's node skeleton (`curve_branch._Search`: node
counting, integer size caps, the child walk that counts size-rejected
children at the parent, sweep leaves and their cache) with one extra
mechanism: a plane in the current richness window whose points are almost
all on one line (too degenerate) is not branched on directly. Instead its
heavy line is guessed and stamped into a side structure with the current
depth, and its points leave the instance. Once the line is "ripe", it is
extended into a plane through it and a remaining point; the walk picks one
such plane per ripe line, as it picks a node's planes and lines from its
windows. Ripeness compares the thresholds of the stamp depth and the
current depth; the test is evaluated through exact fifth powers, as are the
degeneracy thresholds, so no irrational quantity is ever approximated. The
paper bounds the points that such a plane leaves behind (its ghost points)
by an allowance; no code here checks that bound.

Every step reads the incidence layer that the kernel hands on with its
result (`PlaneLayer`: lines and candidate planes as point masks, built once
per solve over the reduced points). A window plane is
a layer index, and so is an extension: the plane through a ripe line and a
point is a `line_point_plane` entry, and which lines a plane holds is a mask
test. Only when no such plane is admissible does the extension take a
canonical plane through the line, kept as its integer row and mask. The
deepest level hands the remaining points plus all pending lines to a leaf.
A saturated leaf, with as many pending lines as planes, is first tested on
the pencil of its first line (`_PlaneSearch._pencil_no`), reading the layer
alone; a leaf that test answers no runs no sweep. Every other leaf goes to
the mixed points-and-lines subset sweep, which is exact; its counter is cut
from the same layer, and an accepting leaf extracts its witness on the same
counter and sum. A `Plane3` is built only for a witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .curve_branch import (
    BranchConfig,
    CoverResult,
    _config,
    _Search,
    branch_cover,
    budget_partitions,
    recursion_depth,
)
from .geometry import PLANE3, FamilySpec, Fits, Plane3, PlaneLayer, Point, _bits
from .inclusion_exclusion import DEFAULT_SUBSET_CAP, _check_cap
from .kernel import KernelResult, plane_kernel_r3


def make_plane_config(k: int, ie_cap: int = DEFAULT_SUBSET_CAP) -> BranchConfig:
    """Depth from the generic formula with s frozen at the kernel's plane
    intersection bound k+1, capped so gamma_r >= 1; thresholds
    gamma_0 = k^2+k and gamma_i = k^2/2^i, and the base-case factor 1.
    Below k=2 the search never runs and the depth is 1."""
    r = recursion_depth(k, 3, k + 1) if k >= 2 else 1
    while r > 1 and k * k < 1 << r:
        r -= 1
    gammas = (Fraction(k * k + k),) + tuple(Fraction(k * k, 1 << i) for i in range(1, r + 1))
    return _config(k, r, (1, 1), ie_cap, gammas)


# ---------------------------------------------------------------------------
# exact threshold tests


def _too_degenerate_counts(t: int, m: int, gamma: Fraction) -> bool:
    """A window plane with t points, m of them on one line, is too degenerate
    when more than a delta fraction of its points sit on that line; with
    delta = 1 - gamma^(-1/5) this is exactly (t-m)^5 * gamma < t^5, here
    cleared of gamma's denominator."""
    return (t - m) ** 5 * gamma.numerator < t ** 5 * gamma.denominator


def _line_rich_enough(m: int, gamma: Fraction) -> bool:
    """m >= gamma - gamma^(4/5), via fifth powers on the rational difference:
    with gamma = p/q, (gamma - m)^5 <= gamma^4 iff (p - m*q)^5 <= p^4 * q."""
    p, q = gamma.numerator, gamma.denominator
    if m * q >= p:
        return True
    return (p - m * q) ** 5 <= p ** 4 * q


def _is_ripe(stamp_depth: int, depth: int, gammas: Sequence[Fraction]) -> bool:
    """A line stamped at depth j must be extended at depth i as soon as the
    ghost allowance one level down would no longer cover it:
    ripe <=> not (gamma_i^5 >= 32 * gamma_j^4), cross-multiplied."""
    gi, gj = gammas[depth], gammas[stamp_depth]
    return not (gi.numerator ** 5 * gj.denominator ** 4
                >= 32 * gj.numerator ** 4 * gi.denominator ** 5)


def extend_lines(layer: PlaneLayer, lines: Sequence[int], mask: int,
                 avoid: Sequence[int] = ()) -> list[list[tuple]]:
    """The ways of extending each of the layer `lines` into a plane through
    it and a point of `mask` off it, as one child-walk slot per line, in the
    order of `lines`: a list of (plane, point mask, points of `mask` on it).
    A line's options are the layer planes `line_point_plane` names for those
    points, in point order and each once, without the planes that contain
    another input line or an `avoid` line. When none is left, the canonical
    plane through the line that contains none of them stands in, as its
    integer row and point mask (`PlaneLayer.hull_plane`); every other option
    is a layer plane index. Each option holds its own line and no other input
    line, so the planes of one option per line are distinct."""
    if not lines:
        raise ValueError("no lines to extend")
    n, masks, planes = len(layer.points), layer.lines, layer.planes
    option_lists = []
    for i, line in enumerate(lines):
        others = [masks[o] for j, o in enumerate(lines) if j != i] + [masks[o] for o in avoid]
        through = dict.fromkeys(layer.line_point_plane[line * n + x]
                                for x in _bits(mask & ~masks[line]))
        opts = [(h, planes[h][0]) for h in through if all(m & ~planes[h][0] for m in others)]
        if not opts:
            hull = layer.hull_plane("line", line, avoid=others)
            opts = [(hull, hull[1])]
        option_lists.append([(h, on, (on & mask).bit_count()) for h, on in opts])
    return option_lists


def plane_object(layer: PlaneLayer, h) -> Plane3:
    """The plane a search names by `h`: a layer plane index, or the
    (row, mask) of a canonical plane through an extended line."""
    if isinstance(h, int):
        return layer.plane(h)
    return Fits("plane3", layer.scale, [h[0]], [h[1]]).obj(0)


# ---------------------------------------------------------------------------
# the recursive search


class _PlaneSearch(_Search):
    """Mask-based search over one kernelized instance. A stamped line is a
    pair (index into self.lines, depth at which it was guessed).

    Lines and candidate planes are the point masks of the kernel's
    `PlaneLayer`, which the sweep leaves' counters read as well. The layer
    lists them in canonical object order, so a window sorted stably by
    richness breaks its ties by object. A partial cover names each plane as
    `extend_lines` does, mostly by its layer index, and its object is built
    only for a witness (`plane_object`)."""

    def __init__(self, kern: KernelResult, family: FamilySpec, config: BranchConfig):
        super().__init__(kern, family, config)
        self.planes = self.layer.planes     # (mask, line indexes)
        self.lines = self.layer.lines       # masks
        # the line through layer points i < j, at i + j*n
        self.n = n = len(self.layer.points)
        self._pair_line = [0] * (n * n)
        for l, m in enumerate(self.lines):
            on = _bits(m)
            for a, j in enumerate(on):
                for i in on[:a]:
                    self._pair_line[i + j * n] = l

    def _object(self, h) -> Plane3:
        return plane_object(self.layer, h)

    def _ie(self, mask: int, lines: tuple, budget: int) -> Optional[list]:
        """The sweep leaf, after a no-filter: a saturated leaf, whose budget
        equals its number of pending lines, that the pencil of its first line
        answers no (`_pencil_no`) runs no sweep. It counts the 2^|ground|
        subsets a sweep would, under the same cap, and is remembered as a
        no-leaf. Every other leaf is the skeleton's sweep leaf."""
        if budget == len(lines) and (mask, lines, budget) not in self._no_leaves:
            size = mask.bit_count() + budget
            _check_cap(size, self.cfg.ie_cap)
            if self._pencil_no(mask, lines, budget):
                self.stats.ie_subsets += 1 << size
                self._no_leaves.add((mask, lines, budget))
                return None
        return super()._ie(mask, lines, budget)

    def _pencil_no(self, mask: int, lines: tuple, budget: int) -> bool:
        """True when no `budget` planes cover the points in `mask` and hold
        the pending layer `lines`, for at most `budget` lines; False when
        there is such a cover or the test cannot tell.

        One plane must hold the points and the lines' points together: it is
        the plane through the first line, or else through the line of the
        lowest two points, and the lowest point off that line, unless there
        is none or there are at most three points. With more planes, some
        plane of a cover holds the first line l, so the test branches on it
        with one plane less. Through l it is the plane of l and a point of
        `mask` off l (`line_point_plane`), or a layer plane that holds
        another pending line too, or else a plane that covers only l's own
        points, which the first two dominate when there are any. A branch
        drops the lines its plane holds. Two or more planes and no line are
        left undecided."""
        masks, planes, n = self.lines, self.planes, self.n
        through = self.layer.line_point_plane
        if budget < 2:
            if not budget:
                return bool(mask or lines)
            union = mask
            for o in lines:
                union |= masks[o]
            if lines:
                line = lines[0]
            elif union.bit_count() <= 3:
                return False
            else:
                rest = union & (union - 1)
                line = self._pair_line[(union & -union).bit_length() - 1 + n * (
                    (rest & -rest).bit_length() - 1)]
            off = union & ~masks[line]
            if not off:
                return False
            plane = through[line * n + (off & -off).bit_length() - 1]
            return bool(union & ~planes[plane][0])
        if not lines:
            return False
        line, others = lines[0], lines[1:]
        on, options = masks[line], []
        off = mask & ~on
        while off:  # a plane's points off the line all name that plane
            p = through[line * n + (off & -off).bit_length() - 1]
            options.append(p)
            off &= ~planes[p][0]
        for p in self.layer.line_planes[line] if others else ():
            pm = planes[p][0]
            if p not in options and any(not masks[o] & ~pm for o in others):
                options.append(p)
        if not options:
            return self._pencil_no(mask & ~on, others, budget - 1)
        for p in options:
            pm = planes[p][0]
            if not self._pencil_no(mask & ~pm, tuple([o for o in others if masks[o] & ~pm]),
                                   budget - 1):
                return False
        return True

    def _expand(self, partition: tuple[int, ...], mask: int, depth: int, partial: tuple,
                stamped: tuple = ()) -> tuple[bool, Optional[list]]:
        """A node at `depth` over the points in `mask` and the pending lines
        `stamped`, which passed its size test, or holds a ripe line and has
        none: a sweep leaf, the extension of its ripe lines, or a branch over
        the windows' picks."""
        cfg = self.cfg
        remaining_budget = sum(partition[2 * (depth - 1):])
        gammas = cfg.gammas
        assert len(stamped) <= cfg.k, "pending lines exceed the budget"

        leaf = self._leaf(mask, depth, remaining_budget, stamped, partial)
        if leaf is not None:
            return leaf

        ripe = [e for e in stamped if _is_ripe(e[1], depth, gammas)]
        if ripe:
            # a child keeps the lines that are not ripe, and none of them
            # ripens at this depth, so each child tests its size
            keep = tuple(e for e in stamped if e not in ripe)
            slots = [(options, 1) for options in extend_lines(
                self.layer, [j for j, _ in ripe], mask, avoid=[j for j, _ in keep])]
            return self._walk(slots, mask, cfg.caps[depth - 1][remaining_budget + len(keep)],
                              depth, lambda names, child: self._expand(
                                  partition, child, depth, partial + names, keep))

        h_i, l_i = partition[2 * (depth - 1):2 * depth]
        # richness is an integer, so the window is [ceil(lo), floor(hi)]
        lo = gammas[depth]
        least, most = cfg.lows[depth], cfg.caps[depth - 1][1]
        # both windows list in layer order, so ties stay in object order
        not_too_degenerate = []
        for p, (pmask, contained) in enumerate(self.planes if h_i else ()):
            on = pmask & mask
            t = on.bit_count()
            if t < 3 or not (least <= t <= most):
                continue
            m = max((self.lines[j] & on).bit_count() for j in contained)
            if not _too_degenerate_counts(t, m, lo):
                not_too_degenerate.append((p, pmask, t))
        not_too_degenerate.sort(key=lambda e: -e[2])

        window_lines = []
        for j, lmask in enumerate(self.lines if l_i else ()):
            m = (lmask & mask).bit_count()
            if 2 <= m <= most and _line_rich_enough(m, lo):
                window_lines.append((j, lmask, m))
        window_lines.sort(key=lambda e: -e[2])

        # a child that holds a line ripe at depth + 1 skips its size test,
        # which presumes that every pending line is past its ripeness check
        depths = [j for _, j in stamped] + ([depth] if l_i else [])
        if any(_is_ripe(j, depth + 1, gammas) for j in depths):
            cap = mask.bit_count()
        else:
            cap = cfg.caps[depth][sum(partition[2 * depth:]) + len(stamped) + l_i]

        return self._walk([(not_too_degenerate, h_i), (window_lines, l_i)], mask, cap, depth + 1,
                          lambda names, child: self._expand(
                              partition, child, depth + 1, partial + names[:h_i],
                              stamped + tuple((j, depth) for j in names[h_i:])))


def plane_cover(points: Sequence[Point], k: int, ie_cap: int = DEFAULT_SUBSET_CAP) -> CoverResult:
    """Kernelize, then run the recursive search over every budget partition
    <h_1, l_1, ..., h_r, l_r> summing to the reduced budget."""
    kern = plane_kernel_r3(points, k)
    config = make_plane_config(kern.k, ie_cap)
    return branch_cover(kern, PLANE3, config, _PlaneSearch,
                        budget_partitions(config.k, 2 * config.r))
