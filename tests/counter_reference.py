"""The Fraction plane counter, the reference the tests hold the layer-based
plane counter of `geomcover.inclusion_exclusion` against: every
representative fitted with `affine_hull` and every tail tested with
`flat_contains`, over any ground of R^3 points followed by lines, and c(X)
evaluated afresh for each subset. Also the signed sums and the decider that
read it, and the checks that compare a counter and its candidate table with
the references.

`representative` and `q_count` are the paper's representative counting over
points in a caller's order pi, for curves and for planes over points and
flats: summed over all representatives, q_count gives c."""

from __future__ import annotations

import math
from typing import Sequence, Union

from geomcover.geometry import (
    PLANE3,
    FamilySpec,
    Flat,
    GeometryError,
    Point,
    _maximal_sets,
    curve_covers,
)
from geomcover.inclusion_exclusion import DEFAULT_SUBSET_CAP, ie_decide
from incidence_reference import (
    affine_hull,
    candidate_cover_sets,
    covering_curve,
    curve_through,
    flat_contains,
)


def _closed(t: int, m: int) -> int:
    """The subsets of at most t among m points."""
    return sum(math.comb(m, u) for u in range(t + 1))


def c_of_mask(counter, x: int) -> int:
    """c(X) of a production counter for the subset mask X, from the identity
    over the counter's read terms `terms` and its closed order `closed` = s:
    Cs of X's points plus X's lines, plus a * (2^|G & X| - Ct(|G & X's
    points|) - |G & X's lines|) per read term (G, a, t)."""
    points = counter._points_mask
    total = _closed(counter.closed, (x & points).bit_count()) + (x & ~points).bit_count()
    for g, a, t in counter.terms:
        gx = g & x
        total += a * ((1 << gx.bit_count()) - _closed(t, (gx & points).bit_count())
                      - (gx & ~points).bit_count())
    return total


def step(counter, e: int, y: int) -> int:
    """c(Y + e) - c(Y) of a production counter, for e not in the subset mask
    Y: the difference of `c_of_mask`, the identity that the walk of
    `_signed_histogram` sums in blocks."""
    return c_of_mask(counter, y | 1 << e) - c_of_mask(counter, y)


def folded(hist) -> dict[int, int]:
    """{c: signed multiplicity} from a histogram of `_signed_histogram`,
    whose keys are packed field values, 2c plus 1 for a minus sign."""
    out: dict[int, int] = {}
    for v, mult in hist.items():
        out[v >> 1] = out.get(v >> 1, 0) + (-mult if v & 1 else mult)
    return out


def reference_terms(counter) -> list[tuple[int, int, int]]:
    """The read terms of a plane counter by a full scan of its layer, sorted:
    the ground mask of every layer plane (factor 1) and of every layer line l
    in P(l) != 1 layer planes (factor 1 - P(l)) that holds two or more ground
    elements, four or more of them points or one of them a ground line, each
    past the closed form C3."""
    layer, points = counter.layer, counter._points_mask
    planes = [m & points for m, _ in layer.planes]
    lmasks = [m & points for m in layer.lines]
    for bit, l in counter._stamped:
        lmasks[l] |= 1 << bit
        for p in layer.line_planes[l]:
            planes[p] |= 1 << bit
    terms = [(g, 1) for g in planes if g & (g - 1)]
    terms += [(g, 1 - len(ps)) for g, ps in zip(lmasks, layer.line_planes)
              if g & (g - 1) and len(ps) != 1]
    return sorted((g, a, 3) for g, a in terms if g & ~points or g.bit_count() >= 4)


def representative(elements: Sequence[Union[Point, Flat]], family: FamilySpec):
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


def q_count(elements: Sequence[Union[Point, Flat]], family: FamilySpec,
            rep: Sequence[Union[Point, Flat]]) -> int:
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


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class FractionPlaneCounter:
    """c(X) of the plane family over the ground `points + flats`, for any
    subset mask X, through representatives: each coverable set is charged to
    its unique greedy hull-growing prefix (i, j, l), which owns the later
    elements inside its hull as an optional tail."""

    def __init__(self, points: Sequence[Point], flats: Sequence[Flat] = ()):
        self.points = tuple(points)
        self.flats = tuple(flats)
        self.family = PLANE3
        self.ground = self.points + self.flats
        self.n = len(self.ground)
        self._build_anyflat()

    def _build_anyflat(self):
        """Every representative (i, j, l) with its tail. `hulls` keeps each
        representative's hull with the mask of its elements: the hulls of all
        1-3 ground elements that lie in a plane, since greedy hull growth
        turns any such tuple into one."""
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

    def c_of_mask(self, mask: int) -> int:
        bits = _bits(mask)
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


def reference_sums(counter: FractionPlaneCounter, ground: int, ks) -> dict[int, int]:
    """The alternating sum over the submasks X of `ground` of c(X)^k, for
    each budget k, by plain submask enumeration."""
    sums = dict.fromkeys(ks, 0)
    n = ground.bit_count()
    sub = ground
    while True:
        c = counter.c_of_mask(sub)
        sign = -1 if (n - sub.bit_count()) & 1 else 1
        for k in sums:
            sums[k] += sign * c ** k
        if not sub:
            return sums
        sub = (sub - 1) & ground


def reference_histogram(counter: FractionPlaneCounter, ground: int) -> dict[int, int]:
    """{c(X): signed multiplicity} over the submasks X of `ground`, each X
    counted with sign (-1)^|ground \\ X|, by plain submask enumeration."""
    hist: dict[int, int] = {}
    n = ground.bit_count()
    sub = ground
    while True:
        c = counter.c_of_mask(sub)
        hist[c] = hist.get(c, 0) + (-1 if (n - sub.bit_count()) & 1 else 1)
        if not sub:
            return {c: m for c, m in hist.items() if m}
        sub = (sub - 1) & ground


def reference_decide(points, family, k, flats=(), cap=DEFAULT_SUBSET_CAP) -> bool:
    """The subset-sweep decision over points and flats: the Fraction counter
    for planes, `ie_decide` for curves."""
    if family.kind != "plane3":
        return ie_decide(points, family, k, cap=cap).decision
    counter = FractionPlaneCounter(points, flats)
    return reference_sums(counter, (1 << counter.n) - 1, [k])[k] >= 1


def gray_walk(counter) -> dict[int, int]:
    """{X: c(X)} over the submasks X of the counter's ground, visited by the
    Gray walk and moved by `step` at each flip."""
    order = _bits(counter.mask)
    x, c = 0, 1
    seen = {0: 1}
    for i in range(1, 1 << len(order)):
        e = order[(i & -i).bit_length() - 1]
        delta = step(counter, e, x & ~(1 << e))
        x ^= 1 << e
        c = c + delta if x >> e & 1 else c - delta
        seen[x] = c
    return seen


def assert_counter_matches_reference(counter, ref: FractionPlaneCounter):
    """c from the step walk and from `c_of_mask` equals the reference's on
    every subset, where the reference's element i is the counter's i-th
    ground bit."""
    order = _bits(counter.mask)
    assert len(order) == ref.n == counter.n
    walk = gray_walk(counter)
    assert len(walk) == 1 << ref.n
    for local in range(1 << ref.n):
        x = sum(1 << g for b, g in enumerate(order) if local >> b & 1)
        assert walk[x] == c_of_mask(counter, x) == ref.c_of_mask(local), (x, local)


def assert_table_lists_candidate_cover_sets(table, counter, points, lines, family, locals_):
    """For each nonempty subset (a mask over the elements of `points +
    lines`), the table's list through the subset's first element, with its
    dominated masks pruned, is `candidate_cover_sets` of those elements cut
    to the objects through that element: object for object, mask for mask
    and in order."""
    ground = list(points) + list(lines)
    order = _bits(counter.mask)  # the ground bit of each element
    for local in locals_:
        kept = [i for i in range(len(ground)) if local >> i & 1]
        if not kept:
            continue
        rem = sum(1 << order[i] for i in kept)
        pts = [ground[i] for i in kept if i < len(points)]
        fls = [ground[i] for i in kept if i >= len(points)]
        listed = [(table.obj(h), mask) for h, mask in _maximal_sets(table.through(rem & -rem, rem))]
        assert all(mask & ~rem == 0 for _, mask in listed)
        renumbered = [(obj, sum(1 << j for j, i in enumerate(kept) if mask >> order[i] & 1))
                      for obj, mask in listed]
        # the first element of `rem` is element 0 of the renumbered subset
        want = [(obj, mask) for obj, mask in candidate_cover_sets(pts, family, fls) if mask & 1]
        assert renumbered == want, (family, points, lines, rem)
