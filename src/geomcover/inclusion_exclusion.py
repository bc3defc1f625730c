"""Polynomial-space inclusion-exclusion deciders for curve and plane covers.

The decision `does P have a k-cover?` reduces to the sign-alternating sum
over all subsets X of the ground set of c(P \\ X)^k, where c(Y) counts the
subsets of Y coverable by a single object (the empty set included). The sum
is at least 1 exactly on yes-instances. No table over subsets is ever
stored: one Gray-code walk visits the subsets, flipping one element per
step, and keeps a signed histogram of the c values, so each budget's sum
takes one power per distinct c.

Curve counters keep one point mask per curve through three or more ground
points and step c by the coverable subsets that hold the flipped element.
Plane counters evaluate c per subset through representatives: each
coverable set is charged to a unique greedy hull-growing prefix of at most
three elements, which owns a tail mask of optional later elements.

c(X) depends on X alone, so one counter built over the whole ground
answers the sum over the submasks of any subset of it. Witness extraction
runs on the counter that made the decision and on that decision's sum: it
self-reduces by removing one object at a time, each step one sweep over the
submasks of what is left. The objects to try come from one `CandidateTable`
per counter, built from the counter's own curve masks or plane hulls, which
lists for any remaining mask exactly what `candidate_cover_sets` lists for
the remaining elements.

Counts are exact arbitrary-precision integers throughout.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import NamedTuple, Sequence, Union

from .geometry import (
    FamilySpec,
    Flat,
    GeometryError,
    Point,
    _complete_plane,
    _maximal_sets,
    _sort_key,
    affine_hull,
    covering_curve,
    covers,
    curve_covers,
    curve_masks,
    curve_through,
    flat_contains,
)

DEFAULT_SUBSET_CAP = 26


class CapExceededError(RuntimeError):
    """Ground set too large for an exponential subset sweep."""


class SolverInternalError(RuntimeError):
    """An internal consistency check failed; indicates a solver bug."""


GroundElement = Union[Point, Flat]


# ---------------------------------------------------------------------------
# representatives


def representative(elements: Sequence[GroundElement], family: FamilySpec):
    """Representative of a coverable set, listed in the caller's order (that
    order is the ordering pi). Curves: the first min(|Q|, s+1) points.
    Plane variant: the greedy prefix whose affine hull keeps growing until it
    spans the whole set. The representative of the empty set is empty."""
    els = tuple(elements)
    if not els:
        return ()
    if family.kind != "plane3":
        if any(not isinstance(e, Point) for e in els):
            raise GeometryError("curve representatives take points only")
        if covering_curve(family, els) is None:
            raise GeometryError("set is not coverable by one %s" % family.kind)
        return els[: family.s + 1]

    hull = affine_hull(els)
    if hull.dim > 2:
        raise GeometryError("set is not coverable by one plane")
    rep = [els[0]]
    cur = affine_hull(els[:1])
    for e in els[1:]:
        if cur.dim == hull.dim:
            break
        if not flat_contains(cur, e):
            rep.append(e)
            cur = affine_hull(rep)
    return tuple(rep)


def q_count(elements: Sequence[GroundElement], family: FamilySpec,
            rep: Sequence[GroundElement]) -> int:
    """Number of coverable subsets of `elements` (in the given order pi)
    whose representative is `rep`. Invalid representatives count 0."""
    els = tuple(elements)
    rep = tuple(rep)
    if not rep:
        return 1  # the empty set
    pos = {e: i for i, e in enumerate(els)}
    if any(e not in pos for e in rep):
        return 0
    idx = [pos[e] for e in rep]
    if any(a >= b for a, b in zip(idx, idx[1:])):
        return 0

    if family.kind != "plane3":
        s = family.s
        if len(rep) > s + 1:
            return 0
        if len(rep) <= s:
            return 1 if covering_curve(family, rep) is not None else 0
        fits = curve_through(family, rep)
        if not fits:
            return 0
        c = fits[0]
        tail = sum(1 for e in els[idx[-1] + 1:] if curve_covers(c, e))
        return 1 << tail

    hulls = []
    for j in range(1, len(rep) + 1):
        hulls.append(affine_hull(rep[:j]))
    if hulls[-1].dim > 2:
        return 0
    for j in range(1, len(rep)):
        if flat_contains(hulls[j - 1], rep[j]):
            return 0  # hull must grow strictly
    tail = 0
    rep_positions = set(idx)
    for i, e in enumerate(els):
        if i in rep_positions:
            continue
        j = sum(1 for r_i in idx if r_i < i)
        if j == 0:
            continue  # before the first representative element: never optional
        if flat_contains(hulls[j - 1], e):
            tail += 1
    return 1 << tail


def c_count(elements: Sequence[GroundElement], family: FamilySpec) -> int:
    """Number of single-object-coverable subsets of `elements`, the empty set
    included. Independent of the element order."""
    counter = CoverableCounter.for_ground(elements, family)
    return counter.c_of_mask((1 << len(tuple(elements))) - 1)


# ---------------------------------------------------------------------------
# fast per-subset counting


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _w(m: int) -> int:
    """The subsets of three or more among m points."""
    return (1 << m) - 1 - m - m * (m - 1) // 2


class CoverableCounter:
    """Precomputes, for one fixed ground set, what c(X) reads for any subset
    mask X: the curve masks of a curve family, or every representative of
    the plane family with its optional-tail mask. `step(e, Y)` gives
    c(Y + e) - c(Y) for curves and is None for planes."""

    def __init__(self, points: Sequence[Point], family: FamilySpec,
                 flats: Sequence[Flat] = ()):
        self.points = tuple(points)
        self.flats = tuple(flats)
        self.family = family
        if flats and family.kind != "plane3":
            raise GeometryError("flats in the ground set need the plane3 family")
        self.ground: tuple[GroundElement, ...] = self.points + self.flats
        self.n = len(self.ground)
        if family.kind == "plane3":
            self._build_anyflat()
        else:
            self._build_curves()

    @classmethod
    def for_ground(cls, elements: Sequence[GroundElement], family: FamilySpec):
        pts = tuple(e for e in elements if isinstance(e, Point))
        fls = tuple(e for e in elements if isinstance(e, Flat))
        if pts + fls != tuple(elements):
            raise GeometryError("ground order must list points before flats")
        return cls(pts, family, fls)

    # -- curves: one point mask per curve through >= 3 ground points

    def _build_curves(self):
        """A subset of three or more points is coverable exactly when it lies
        inside one of `_curves`, the masks of the curves through >= 3 ground
        points (s+1 points fix a curve, so that curve is unique). `_pair[e]`
        holds the partners e can be covered with. `fitted` keeps every
        curve through d ground points for the candidate table."""
        pts, fam, n = self.points, self.family, self.n
        self.fitted = curve_masks(pts, fam)
        curves = [mask for _, mask in self.fitted if mask.bit_count() >= 3]
        # q[e][1 << p]: the other points on the >= 3-point curves through e
        # and p; heavy[e]: the curves through e with >= 4 points
        pair = [0] * n
        q: list[dict[int, int]] = [{} for _ in range(n)]
        heavy: list[list[int]] = [[] for _ in range(n)]
        for mask in curves:
            members = _bits(mask)
            for a in members:
                pair[a] |= mask & ~(1 << a)
                if len(members) >= 4:
                    heavy[a].append(mask)
                for b in members:
                    if a != b:
                        q[a][1 << b] = q[a].get(1 << b, 0) | (mask & ~(1 << a | 1 << b))
        for i, j in itertools.combinations(range(n), 2):
            # any two points lie on a line; a pair off every found curve needs a fit
            if not pair[i] >> j & 1 and (
                    fam.d == 2 or covering_curve(fam, (pts[i], pts[j])) is not None):
                pair[i] |= 1 << j
                pair[j] |= 1 << i
        self._pair = pair
        self._curves = curves
        self._q = [list(row.items()) for row in q]
        self._heavy = heavy

    def step(self, e: int, y: int) -> int:
        """c(Y + e) - c(Y) for e not in Y: the coverable subsets that hold e.
        They are {e}, the coverable pairs, the triples {e, p, q} (counted
        once from p and once from q: three points fix the curve) and, on
        each curve with >= 4 points, the larger subsets."""
        twice = 0
        for p_bit, others in self._q[e]:
            if y & p_bit:
                twice += (others & y).bit_count()
        total = 1 + (self._pair[e] & y).bit_count() + (twice >> 1)
        for mask in self._heavy[e]:
            total += _w((mask & y).bit_count())
        return total

    # -- planes: representatives grow the affine hull strictly, size <= 3

    def _build_anyflat(self):
        """Every representative (i, j, l) with its tail. `hulls` keeps each
        representative's hull with the mask of its elements for the
        candidate table: the hulls of all 1-3 ground elements that lie in a
        plane, since greedy hull growth turns any such tuple into one."""
        self.step = None  # no incremental step: the sweep calls c_of_mask
        ground, n = self.ground, self.n
        hull1 = [affine_hull([e]) for e in ground]
        hulls = [(h, 1 << i) for i, h in enumerate(hull1)]
        inside1 = [[flat_contains(hull1[i], ground[j]) for j in range(n)] for i in range(n)]

        singles = []
        for i in range(n):
            m = 0
            for j in range(i + 1, n):
                if inside1[i][j]:
                    m |= 1 << j
            singles.append(m)
        self._singles = singles

        pair_tail: dict[int, int] = {}
        pair_hull: dict[int, Flat] = {}
        for i in range(n):
            for j in range(i + 1, n):
                if inside1[i][j]:
                    continue  # hull must grow
                h = affine_hull([ground[i], ground[j]])
                if h.dim > 2:
                    continue
                pair_hull[i * n + j] = h
                hulls.append((h, 1 << i | 1 << j))
                m = 0
                for t in range(i + 1, n):
                    if t == j:
                        continue
                    ok = inside1[i][t] if t < j else flat_contains(h, ground[t])
                    if ok:
                        m |= 1 << t
                pair_tail[i * n + j] = m
        self._pair_tail = pair_tail

        triple_tail: dict[int, int] = {}
        for key, h2 in pair_hull.items():
            i, j = divmod(key, n)
            for l in range(j + 1, n):
                if flat_contains(h2, ground[l]):
                    continue
                h3 = affine_hull([ground[x] for x in (i, j, l)])
                if h3.dim > 2:
                    continue
                hulls.append((h3, 1 << i | 1 << j | 1 << l))
                m = 0
                for t in range(i + 1, n):
                    if t in (j, l):
                        continue
                    if t < j:
                        ok = inside1[i][t]
                    elif t < l:
                        ok = flat_contains(h2, ground[t])
                    else:
                        ok = flat_contains(h3, ground[t])
                    if ok:
                        m |= 1 << t
                triple_tail[key * n + l] = m
        self._triple_tail = triple_tail
        self.hulls = hulls

    # -- evaluation

    def c_of_mask(self, mask: int) -> int:
        bits = _bits(mask)
        if self.family.kind != "plane3":
            pairs = sum((self._pair[i] & mask).bit_count() for i in bits) >> 1
            return (1 + len(bits) + pairs
                    + sum(_w((c & mask).bit_count()) for c in self._curves))

        total = 1  # the empty set
        n = self.n
        singles, pair_tail, triple_tail = self._singles, self._pair_tail, self._triple_tail
        for a in range(len(bits)):
            i = bits[a]
            total += 1 << (singles[i] & mask).bit_count()
            for b in range(a + 1, len(bits)):
                j = bits[b]
                key = i * n + j
                t = pair_tail.get(key)
                if t is not None:
                    total += 1 << (t & mask).bit_count()
                base = key * n
                for c in range(b + 1, len(bits)):
                    t3 = triple_tail.get(base + bits[c])
                    if t3 is not None:
                        total += 1 << (t3 & mask).bit_count()
        return total


# ---------------------------------------------------------------------------
# deciders


class IEResult(NamedTuple):
    decision: bool
    ie_sum: int
    subsets: int


def _check_cap(n: int, cap: int):
    if n > cap:
        raise CapExceededError("ground set of %d exceeds the subset-sweep cap %d" % (n, cap))


def _signed_histogram(counter, ground: int, cap: int) -> dict[int, int]:
    """{c(X): signed multiplicity} over the submasks X of the `ground` mask,
    each X counted with sign (-1)^|ground \\ X|. One Gray-code walk from the
    empty set flips one ground bit per step; c moves by `counter.step` when
    the counter has one, else `counter.c_of_mask` evaluates it afresh."""
    # the walk's i-th step flips the element at i's lowest set bit
    flips = {1 << j: 1 << e for j, e in enumerate(_bits(ground))}
    n = len(flips)
    _check_cap(n, cap)
    step, c_of_mask = counter.step, counter.c_of_mask
    x = 0
    c = c_of_mask(0)
    sign = -1 if n & 1 else 1
    hist: dict[int, int] = defaultdict(int)
    hist[c] = sign
    for i in range(1, 1 << n):
        bit = flips[i & -i]
        x ^= bit
        if step is None:
            c = c_of_mask(x)
        elif x & bit:
            c += step(bit.bit_length() - 1, x ^ bit)
        else:
            c -= step(bit.bit_length() - 1, x)
        sign = -sign
        hist[c] += sign
    return hist


def _power_sum(hist: dict[int, int], k: int) -> int:
    return sum(m * c ** k for c, m in hist.items())


def _signed_sum(counter, ground: int, k: int, cap: int) -> IEResult:
    """The sum over the submasks X of `ground` of c(X)^k, negated when
    |ground \\ X| is odd; yes iff it reaches 1."""
    total = _power_sum(_signed_histogram(counter, ground, cap), k)
    return IEResult(total >= 1, total, 1 << ground.bit_count())


def _least_budget(hist: dict[int, int], n: int) -> tuple[int, int]:
    """The least k <= n whose sum in `hist` reaches 1, and that sum."""
    for k in range(n + 1):
        total = _power_sum(hist, k)
        if total >= 1:
            return k, total
    raise SolverInternalError("no budget up to n admits a cover")


def ie_decide(points: Sequence[Point], family: FamilySpec, k: int,
              flats: Sequence[Flat] = (), cap: int = DEFAULT_SUBSET_CAP) -> IEResult:
    """Signed subset sweep; yes iff the alternating sum reaches 1."""
    if k < 0:
        raise ValueError("negative budget")
    counter = CoverableCounter(points, family, flats)
    return _signed_sum(counter, (1 << counter.n) - 1, k, cap)


def ie_sums(points: Sequence[Point], family: FamilySpec, ks: Sequence[int],
            flats: Sequence[Flat] = (), cap: int = DEFAULT_SUBSET_CAP) -> dict[int, int]:
    """Alternating sums for several budgets from one sweep: each distinct c
    is powered once per budget."""
    counter = CoverableCounter(points, family, flats)
    ks = sorted(set(ks))
    if any(k < 0 for k in ks):
        raise ValueError("negative budget")
    hist = _signed_histogram(counter, (1 << counter.n) - 1, cap)
    return {k: _power_sum(hist, k) for k in ks}


def ie_min_cover(points: Sequence[Point], family: FamilySpec,
                 flats: Sequence[Flat] = (), cap: int = DEFAULT_SUBSET_CAP) -> int:
    """Minimum k whose alternating sum reaches 1, from one subset sweep."""
    counter = CoverableCounter(points, family, flats)
    return _least_budget(_signed_histogram(counter, (1 << counter.n) - 1, cap), counter.n)[0]


# ---------------------------------------------------------------------------
# witness extraction


class CandidateTable:
    """Every object that `candidate_cover_sets` can list for a subset of one
    counter's ground, with its mask over the whole ground and its spans:
    (mask, need) pairs, where the object is spanned by a remaining mask R
    when some span has |mask & R| >= need.

    Curves: each fitted curve of the counter, spanned by any d of its points,
    and the curve `covering_curve` gives each tuple of fewer than d points,
    spanned by that tuple. Planes: the plane `_complete_plane` gives each of
    the counter's hulls, spanned by that hull's tuple."""

    def __init__(self, counter: CoverableCounter):
        fam, ground = counter.family, counter.ground
        masks: dict[object, int] = {}
        spans: dict[object, list[tuple[int, int]]] = defaultdict(list)
        if fam.kind == "plane3":
            planes = {hull: _complete_plane(hull) for hull in {h for h, _ in counter.hulls}}
            for hull, span in counter.hulls:
                plane = planes[hull]
                spans[plane].append((span, span.bit_count()))
                if hull.dim == 2:
                    # each element inside a plane that is a hull lies in a
                    # tuple spanning it, so the tuples make up its mask
                    masks[plane] = masks.get(plane, 0) | span
        else:
            for curve, mask in counter.fitted:
                masks[curve] = mask
                spans[curve].append((mask, fam.d))
            for size in range(1, fam.d):
                for combo in itertools.combinations(range(counter.n), size):
                    curve = covering_curve(fam, [ground[i] for i in combo])
                    if curve is None:
                        continue
                    span = sum(1 << i for i in combo)
                    spans[curve].append((span, size))
                    if size == fam.d - 1:
                        masks.setdefault(curve, span)  # not fitted: on fewer than d points
        for obj in spans:
            if obj not in masks:
                masks[obj] = sum(1 << i for i, e in enumerate(ground) if _inside(obj, e))
        # sorted once by object, so that a stable sort by size orders each list
        self._rows = sorted(((obj, masks[obj], spans[obj]) for obj in spans),
                            key=lambda row: _sort_key(row[0]))

    def cover_sets(self, rem: int) -> list[tuple[object, int]]:
        """`candidate_cover_sets` of the ground elements in `rem`, with masks
        over the whole ground: the objects spanned by elements of `rem`
        alone (one spanned only through removed elements can tie on its
        restricted mask and be canonically smaller), largest first, ties in
        object order, dominated masks pruned."""
        live = [(obj, mask & rem) for obj, mask, spans in self._rows
                if any((span & rem).bit_count() >= need for span, need in spans)]
        live.sort(key=lambda om: -om[1].bit_count())
        return _maximal_sets(live)


def _inside(obj, element: GroundElement) -> bool:
    if isinstance(element, Flat):
        return flat_contains(obj, element)
    return covers(obj, element)


def _self_reduce(counter: CoverableCounter, k: int, total: int, cap: int) -> list:
    """A cover of the counter's ground by at most k objects, given the
    ground's alternating sum `total` at budget k. Each step takes the first
    listed object through the pi-first remaining element whose removal
    leaves a yes-instance at one budget less, decided over the same counter."""
    if total < 1:
        raise SolverInternalError("extract_cover called on a no-instance")
    table = CandidateTable(counter)
    rem = (1 << counter.n) - 1
    chosen = []
    budget = k
    while rem:
        if not budget:
            raise SolverInternalError("the budget ran out before the ground was covered")
        first = rem & -rem  # pi-first remaining element
        for obj, mask in table.cover_sets(rem):
            if mask & first and _signed_sum(counter, rem & ~mask, budget - 1, cap).decision:
                chosen.append(obj)
                rem &= ~mask
                budget -= 1
                break
        else:
            raise SolverInternalError("no candidate extends the partial cover")
    return chosen


def extract_cover(points: Sequence[Point], family: FamilySpec, k: int,
                  flats: Sequence[Flat] = (), cap: int = DEFAULT_SUBSET_CAP) -> list:
    """Concrete cover of at most k objects, built by self-reduction with the
    subset-sweep decider as the oracle. Requires a yes-instance: one sweep
    decides the ground, then every step reads the same counter."""
    if k < 0:
        raise ValueError("negative budget")
    counter = CoverableCounter(points, family, flats)
    return _self_reduce(counter, k, _signed_sum(counter, (1 << counter.n) - 1, k, cap).ie_sum, cap)
