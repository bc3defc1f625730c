"""Polynomial-space inclusion-exclusion deciders for curve and plane covers.

The decision `does P have a k-cover?` reduces to the sign-alternating sum
over all subsets X of the ground set of c(P \\ X)^k, where c(Y) counts the
subsets of Y coverable by a single object (the empty set included). The sum
is at least 1 exactly on yes-instances. No table over the subsets of the
ground is stored, beyond one of 2^b entries for a block of b elements, b at
most the fixed `LOW_BLOCK`: a Gray-code walk visits the subsets of the
ground elements past the block, one flip per step, finishes the 2^b subsets
that each of them completes with the block at once, in one packed integer
with a field per subset, and keeps a signed histogram of the c values, so
each budget's sum takes one power per distinct c and sign.

Every counter is cut from an incidence layer (`geometry.incidence_layer`):
the `curve_fits` of a point set, or its `PlaneLayer`. Its ground is any
subset of the layer's points, plus pending layer lines for planes, so a
search reads one layer per solve, the one its kernel hands on, and no
sweep leaf fits a curve or plane of its own.

One walk serves every family, from one identity. A counter keeps read
terms (G, a, t), ground masks with factors, and a closed order s: c(X) is
Cs of X's points (the sets of at most s of them) plus X's lines, plus a
times G's coverable sets past the closed form Ct per term. For line2 the
terms are the lines of three or more ground points; for circle2 and
vparabola2 the curves of four or more, and the lines and x-classes whose
small sets no curve covers; for planes the planes and lines of four or more
points or through a pending line (see `CoverableCounter`). A term reads
its mask's meet with X by popcounts, so for each high subset the walk adds
one precomputed packed entry per high part that the terms share, and a
ground of at most `LOW_BLOCK` elements is one packed sum. The counter cuts
only those masks: the layer lists its rich planes and lines, and the lines
of three or more points of a circle or parabola fit, once.

c(X) depends on X alone, so one counter built over the whole ground
answers the sum over the submasks of any subset of it. Witness extraction
runs on the counter that made the decision and on that decision's sum: it
self-reduces by removing one object at a time, each step one sweep over the
submasks of what is left. The objects to try come from one `CandidateTable`
per counter, built from its layer's integer rows and its ground masks. For
a remaining mask it lists the objects through the first remaining element,
in the order of `candidate_cover_sets` of the remaining elements; a step
prunes their dominated masks as it goes, skipping those inside a mask that
failed, and builds only the object it picks.

Counts are exact arbitrary-precision integers throughout.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import cache
from typing import NamedTuple, Optional, Sequence, Union

from .geometry import (
    FAMILIES,
    FamilySpec,
    Fits,
    PlaneLayer,
    Point,
    _bits,
    _completions,
    incidence_layer,
)

DEFAULT_SUBSET_CAP = 26


class CapExceededError(RuntimeError):
    """Ground set too large for an exponential subset sweep."""


class SolverInternalError(RuntimeError):
    """An internal consistency check failed; indicates a solver bug."""


# ---------------------------------------------------------------------------
# fast per-subset counting


class CoverableCounter:
    """Precomputes, for one fixed ground set, what c(X) reads for any subset
    mask X of it. The ground is read off an incidence layer
    (`geometry.incidence_layer`), in the layer's point numbering (point i is
    bit i): the points in `ground`, all of them by default, and for a
    `PlaneLayer` the distinct layer `lines` after them (the q-th is bit
    n + q, for n layer points). `mask` is the ground's mask and `n` its size.

    Every family counts by one identity: with Ct(i) the subsets of at most t
    among i points, c(X) = Cs(|X's points|) + |X's lines| plus, for each read
    term (G, a, t) in `terms`, a * (2^|G & X| - Ct(|G & X's points|) - |G &
    X's lines|), for the closed order s = `closed`. The closed form counts
    every set of at most s points as coverable, and each term corrects it on
    one mask G: `_build_curves` and `_build_planes` list each family's."""

    def __init__(self, layer: Union[Fits, PlaneLayer], ground: Optional[int] = None,
                 lines: Sequence[int] = ()):
        self.layer = layer
        self.family = FAMILIES[layer.kind]
        self.closed = self.family.d
        if ground is None:
            ground = (1 << len(layer.scaled)) - 1
        if self.family.kind == "plane3":
            self._build_planes(ground, lines)
        else:
            self._build_curves(ground)

    # -- curves: the ground masks of the layer's rich curves and lines

    def _build_curves(self, ground: int):
        """The read terms of the layer's curves over the points in `ground`.
        Any s = d - 1 points lie on a family curve, and s + 1 points fix one,
        so a set of more than d points is coverable exactly when it lies on
        one curve through d + 1 or more ground points, each a term (M, 1, d).
        line2 closes at d = 2 and needs nothing more. circle2 and vparabola2
        close at d = 3, and subtract the sets of at most three points that no
        curve passes through:
          - a collinear triple: C(j, 3) of the j points of X on each layer
            line of three or more ground points (for vparabola2 the
            non-vertical ones, `Fits.lines`), as (L, 1, 3) plus (L, -1, 2);
          - vparabola2 only, a pair or triple holding two points of one
            x-class V (two or more ground points with one x): C(v, 2) +
            C(v, 3) + r * C(v, 2) for v of X's points in V and r outside it.
            That is (V, -1, 1), (V, R, 2) and (V, 1 - R, 3), R = |ground \\ V|,
            plus (V + e, 1, 3) and (V + e, -1, 2) for each ground point e
            outside V."""
        fits, d = self.layer, self.family.d
        self.mask = self._points_mask = ground
        self.n = ground.bit_count()
        terms = [(m & ground, 1, d) for m in fits.masks if (m & ground).bit_count() > d]
        for line in fits.lines:
            g = line & ground
            if g.bit_count() >= 3:
                terms += [(g, 1, 3), (g, -1, 2)]
        if self.family.kind == "vparabola2":
            classes: dict[int, int] = {}
            for i in _bits(ground):
                x = fits.scaled[i][0]
                classes[x] = classes.get(x, 0) | 1 << i
            for v in classes.values():
                if v & (v - 1):
                    r = self.n - v.bit_count()
                    terms += [(v, -1, 1), (v, r, 2), (v, 1 - r, 3)]
                    for e in _bits(ground & ~v):
                        terms += [(v | 1 << e, 1, 3), (v | 1 << e, -1, 2)]
        self.terms = terms

    # -- planes: the ground masks of the layer's rich planes and lines

    def _build_planes(self, mask: int, lines: Sequence[int]):
        """The read terms of the layer over the points in `mask` and the
        layer `lines`. Each layer plane p has a ground mask G_p, the ground
        points on p and the ground lines inside it, and each layer line l a
        ground mask G_l, the ground points on l and l's own bit when l is a
        ground line. A coverable set of two or more elements either spans one
        layer plane and lies in its G_p alone, or lies in one G_l and so in
        the G_p of each of the P(l) layer planes through l. Counted once per
        G_p and 1 - P(l) times per G_l that holds it, each coverable set
        counts once.

        Any three points are coplanar, so the identity closes at s = 3, and
        a read term (G, a, 3) is a mask G of two or more elements that holds
        four or more ground points or a ground line, with factor a = 1 for a
        plane and 1 - P(l) for a line in P(l) != 1 layer planes; every other
        mask adds 0 to every c(X). So only the layer's rich planes and lines
        (`PlaneLayer.rich_planes`, `.rich_lines`), the planes of each ground
        line's pencil and the ground lines themselves are cut."""
        layer = self.layer
        n = len(layer.points)
        self._points_mask = mask
        self._stamped = list(enumerate(lines, n))   # (bit, line index)
        self.mask = ground = mask | ((1 << len(lines)) - 1) << n
        self.n = ground.bit_count()
        planes, line_planes = layer.planes, layer.line_planes
        inside: dict[int, int] = {}  # the ground lines inside each plane of their pencils
        terms = []
        for bit, l in self._stamped:
            for p in line_planes[l]:
                inside[p] = inside.get(p, 0) | 1 << bit
            g = layer.lines[l] & mask
            if g and len(line_planes[l]) != 1:
                terms.append((g | 1 << bit, 1 - len(line_planes[l]), 3))
        for p, bits in inside.items():
            g = planes[p][0] & mask | bits
            if g & (g - 1):
                terms.append((g, 1, 3))
        for p in layer.rich_planes:
            if p not in inside:
                g = planes[p][0] & mask
                if g.bit_count() >= 4:
                    terms.append((g, 1, 3))
        for l in layer.rich_lines:
            g = layer.lines[l] & mask
            if g.bit_count() >= 4 and len(line_planes[l]) != 1 and l not in lines:
                terms.append((g, 1 - len(line_planes[l]), 3))
        self.terms = terms

    def _inside(self, points: int) -> int:
        """The ground bits of a flat whose layer points are `points`: those
        points that are in the ground, and each ground line whose layer points
        are all among them (two points fix a line)."""
        bits = points & self._points_mask
        for bit, l in self._stamped:
            if not self.layer.lines[l] & ~points:
                bits |= 1 << bit
        return bits


# ---------------------------------------------------------------------------
# deciders


class IEResult(NamedTuple):
    decision: bool
    ie_sum: int
    subsets: int


def _check_cap(n: int, cap: int):
    if n > cap:
        raise CapExceededError("ground set of %d exceeds the subset-sweep cap %d" % (n, cap))


# The walk's low block: the lowest LOW_BLOCK ground elements, or all of them
# on a smaller ground. Its tables, built once per block size and field width,
# are four rows of 2^b packed ints of 2^b fields each: at b = 7, 128 KB with
# 16-bit fields and 512 KB with 64-bit ones. Measured on the sweep workload's
# passes (with an earlier curve walk), a block of 7 ran about 7 % faster than
# 6; 8 ran about 5 % faster still, but slower on grounds of 8-10 elements,
# with tables four times the size.
LOW_BLOCK = 7
_FORMATS = {16: "H", 32: "I", 64: "Q"}  # a field's memoryview format, by its width


def _upto(i: int) -> tuple[int, int, int, int]:
    """C0(i), ..., C3(i): the subsets of at most 0, 1, 2 and 3 among i."""
    c2 = i * (i - 1) // 2
    return 1, 1 + i, 1 + i + c2, 1 + i + c2 + c2 * (i - 2) // 3


@cache
def _low_tables(b: int, width: int) -> tuple:
    """For a block of b elements, with fields of `width` bits, and each block
    subset M: POW[M], 2 * 2^|M & L| in the field of each block subset L, that
    is 2 per subset of M that L holds; U[t][M] for t <= 3, 2 * C(|M & L|,
    t), 2 per such subset of t elements; and CLOSED[t][M], 2 * Ct(|M & L|),
    2 per such subset of at most t. Each adds a block element i to M by
    adding M's value in the fields of the L that hold i (or its value one
    size down). Then the fields of odd |L|, and those of even |L|, 1 in
    each. Built on a walk's first use of b and `width`."""
    full = (1 << width) - 1
    holds = [sum(full << width * s for s in range(1 << b) if s >> i & 1) for i in range(b)]
    ones = sum(2 << width * s for s in range(1 << b))
    POW, U1, U2, U3 = [ones], [0], [0], [0]
    for s in range(1, 1 << b):
        r, h = s & (s - 1), holds[(s & -s).bit_length() - 1]
        POW.append(POW[r] + (POW[r] & h))
        U1.append(U1[r] + (ones & h))
        U2.append(U2[r] + (U1[r] & h))
        U3.append(U3[r] + (U2[r] & h))
    U = (ones,) * (1 << b), tuple(U1), tuple(U2), tuple(U3)
    CLOSED = [U[0]]
    for t in range(1, 4):
        CLOSED.append(tuple(map(int.__add__, CLOSED[-1], U[t])))
    odd = sum(1 << width * s for s in range(1 << b) if s.bit_count() & 1)
    return tuple(POW), U, CLOSED, (odd, ones // 2 - odd)


def _signed_histogram(counter: CoverableCounter, ground: int, cap: int) -> Counter:
    """The signed c values over the submasks X of the `ground` mask, each X
    counted with sign (-1)^|ground \\ X|, as a Counter of packed field
    values: 2c(X), plus 1 when X's sign is minus.

    The walk runs in blocks. The lowest b = min(LOW_BLOCK, m) of the m
    ground elements form the low block, and a Gray-code walk flips the
    others, the high elements. For each high subset H it fills the fields
    c(H + L), L over the block's subsets, of one packed int from the
    counter's identity (see `CoverableCounter`). A read term (G, a, t) adds
    a * (2^|G & (H + L)| - Ct(|G & (H + L)'s points|) - |G & (H + L)'s
    lines|): with i of H's points and l of H's lines in G, that is a *
    (2^(i + l) * POW[G's block part] - Ct(i + j) - l - |G & L's lines|) for
    j = |G & L's points|, and Ct(i + j) is the sum over u <= t of C_{t-u}(i)
    * C(j, u), read off the block tables. A term whose cut holds at most t
    points and no line adds 0 and is skipped. The ground's own closed form
    and count of its lines enter as a term (ground, -1, s) with no power.
    Each term's values are listed once per (i, l) and summed with those of
    every term that shares its high part, so H reads one entry per high
    part, and a ground of at most LOW_BLOCK elements is one packed sum.

    A field holds 2c + 1 when H + L's sign is minus, at most 2^(m + 1) + 1: 16
    bits serve m <= 14, 32 bits m <= 30, and 64 bits any larger ground. A
    partial sum may borrow across fields; only the final int is read."""
    _check_cap(ground.bit_count(), cap)
    elements = _bits(ground)
    m = len(elements)
    b = min(LOW_BLOCK, m)
    width = 16 if m <= 14 else 32 if m <= 30 else 64
    POW, U, CLOSED, signs = _low_tables(b, width)
    points = counter._points_mask & ground
    block = ground & (2 << elements[b - 1]) - 1 if b else 0
    high = ground ^ block
    # the block's points come before its lines, so they are its lowest bits
    lpoints = (1 << (points & block).bit_count()) - 1
    # the runs of consecutive block elements, (shift, run mask, offset), to
    # read the block part of a ground mask as a block subset
    runs = []
    t = block
    while t:
        s = (t & -t).bit_length() - 1
        run = ((t >> s) + 1 & ~(t >> s)) - 1
        runs.append((s, run, (block & (1 << s) - 1).bit_count()))
        t ^= run << s
    ones = POW[0]
    # (high points, high lines) -> the summed values of the terms with that
    # high part, listed by (i, l) as i + (i's range) * l
    parts: dict[tuple[int, int], list[int]] = {}
    # the ground's closed form and lines, as a term with no power and a = -1
    base = 0
    order, lines = counter.closed, U[1][(1 << b) - 1 ^ lpoints]
    if high:
        hp, hl = high & points, high & ~points
        low = [U[u][lpoints] for u in range(order, -1, -1)]
        parts[hp, hl] = [sum(map(int.__mul__, _upto(i), low)) + lines + l * ones
                         for l in range(hl.bit_count() + 1) for i in range(hp.bit_count() + 1)]
    else:
        base = CLOSED[order][lpoints] + lines
    for g, a, t in counter.terms:
        g &= ground
        if not g & ~points and g.bit_count() <= t:
            continue  # adds 0
        lo = 0
        for s, run, at in runs:
            lo |= (g >> s & run) << at
        lp = lo & lpoints
        lines = U[1][lo ^ lp]  # 2 * |G & L's lines|
        if not g & high:
            v = POW[lo] - CLOSED[t][lp] - lines
            base += v if a == 1 else a * v
            continue
        low = [U[u][lp] for u in range(t, -1, -1)]  # 2 * C(j, u), u from t down
        power = POW[lo]
        hp, hl = g & high & points, g & high & ~points
        ni, nl = hp.bit_count() + 1, hl.bit_count() + 1
        vals = parts.setdefault((hp, hl), [0] * (ni * nl))
        for i in range(ni):
            # 2 * Ct(i + j)
            closed = sum(map(int.__mul__, _upto(i), low))
            for l in range(nl):
                vals[i + ni * l] += a * ((power << i + l) - closed - lines - l * ones)
    by_points, by_both = [], []  # the high parts that hold no line, and the others
    for (hp, hl), vals in parts.items():
        if hl:
            by_both.append((hp, hl, hp.bit_count() + 1, vals))
        else:
            by_points.append((hp, vals))
    size, fmt = width // 8 << b, _FORMATS[width]
    flips = [1 << e for e in _bits(high)]
    minus, other = signs[m & 1], signs[~m & 1]  # the minus bits of the fields at |H| even, odd
    x = 0
    counts: Counter = Counter()
    for i in range(1 << len(flips)):
        if i:
            x ^= flips[(i & -i).bit_length() - 1]
        packed = (base + minus + sum([vals[(hp & x).bit_count()] for hp, vals in by_points])
                  + sum([vals[(hp & x).bit_count() + ni * (hl & x).bit_count()]
                         for hp, hl, ni, vals in by_both]))
        counts.update(memoryview(packed.to_bytes(size, sys.byteorder)).cast(fmt))
        minus, other = other, minus
    return counts


def _power_sum(hist: Counter, k: int) -> int:
    """The signed sum of c^k over the packed field values of `hist`."""
    return sum([(v >> 1) ** k * (-mult if v & 1 else mult) for v, mult in hist.items()])


def _signed_sum(counter: CoverableCounter, ground: int, k: int, cap: int) -> IEResult:
    """The sum over the submasks X of `ground` of c(X)^k, negated when
    |ground \\ X| is odd; yes iff it reaches 1."""
    total = _power_sum(_signed_histogram(counter, ground, cap), k)
    return IEResult(total >= 1, total, 1 << ground.bit_count())


def _least_budget(hist: Counter, n: int) -> tuple[int, int]:
    """The least k <= n whose sum in `hist` reaches 1, and that sum."""
    for k in range(n + 1):
        total = _power_sum(hist, k)
        if total >= 1:
            return k, total
    raise SolverInternalError("no budget up to n admits a cover")


def ie_decide(points: Sequence[Point], family: FamilySpec, k: int, *,
              cap: int = DEFAULT_SUBSET_CAP) -> IEResult:
    """Signed subset sweep; yes iff the alternating sum reaches 1."""
    if k < 0:
        raise ValueError("negative budget")
    counter = CoverableCounter(incidence_layer(points, family))
    return _signed_sum(counter, counter.mask, k, cap)


def ie_sums(points: Sequence[Point], family: FamilySpec, ks: Sequence[int], *,
            cap: int = DEFAULT_SUBSET_CAP) -> dict[int, int]:
    """Alternating sums for several budgets from one sweep: each distinct c
    is powered once per budget."""
    counter = CoverableCounter(incidence_layer(points, family))
    ks = sorted(set(ks))
    if any(k < 0 for k in ks):
        raise ValueError("negative budget")
    hist = _signed_histogram(counter, counter.mask, cap)
    return {k: _power_sum(hist, k) for k in ks}


# ---------------------------------------------------------------------------
# witness extraction


class CandidateTable:
    """Every object that `candidate_cover_sets` can list for a subset of one
    counter's ground, with its mask over the whole ground and its spans:
    (mask, need) pairs, where the object is spanned by a remaining mask R
    when some span has |mask & R| >= need.

    Curves: each layer curve through d or more ground points, spanned by any d
    of them, and the canonical completion of each tuple of fewer than d ground
    points, spanned by that tuple. Planes, read off the ground masks G_p and
    G_l of every layer plane and line (see `_build_planes`): the horizontal
    plane through each ground point, spanned by the point; the canonical
    plane through each layer line l with two or more
    ground points or on the ground, spanned by two elements of G_l or by the
    line itself; and each layer plane p that the ground spans (G_p in no G_l
    of a line l inside p), spanned by two elements of G_p. Two that lie on one
    line l do not span p, but they span l, and l's canonical plane holds every
    remaining element of G_p and comes first among the planes through l in
    object order, so the list prunes p then. Each is an integer row; the rows
    are ordered by their exact keys (`Fits.keys`), the rows of one object side
    by side, and `obj(h)` builds the object of row h, which extraction does
    only for the objects it picks."""

    def __init__(self, counter: CoverableCounter):
        fits, spans = (self._plane_entries(counter) if counter.family.kind == "plane3"
                       else self._curve_entries(counter))
        # every entry, in object order, so that a stable sort by size orders
        # each list; the entries of one object share its mask and sit side by
        # side
        self._fits = fits
        self._rows = [(h, fits.masks[h], spans[h]) for h in fits.order()]

    def obj(self, h: int):
        return self._fits.obj(h)

    @staticmethod
    def _plane_entries(counter: CoverableCounter) -> tuple[Fits, list]:
        """The plane of each point, line and plane hull of the ground, as an
        integer row of the layer, with its mask and its spans, from the
        ground masks of every layer plane and line."""
        layer, points = counter.layer, counter._points_mask
        lmasks = [m & points for m in layer.lines]
        planes = [m & points for m, _ in layer.planes]
        on_ground = {l: 1 << bit for bit, l in counter._stamped}
        for l, bit in on_ground.items():
            lmasks[l] |= bit
            for p in layer.line_planes[l]:
                planes[p] |= bit
        hulls = [(("point", i), [(1 << i, 1)]) for i in _bits(points)]
        for l, g in enumerate(lmasks):
            spans = [(g, 2)] if g & (g - 1) else []
            if l in on_ground:
                spans.append((on_ground[l], 1))
            if spans:
                hulls.append((("line", l), spans))
        for p, g in enumerate(planes):
            if g & (g - 1) and all(g & ~lmasks[l] for l in layer.planes[p][1]):
                hulls.append((("plane", p), [(g, 2)]))
        rows, masks, spans = [], [], []
        for hull, span in hulls:
            row, points = layer.hull_plane(*hull)
            rows.append(row)
            masks.append(counter._inside(points))
            spans.append(span)
        return Fits("plane3", layer.scale, rows, masks), spans

    @staticmethod
    def _curve_entries(counter: CoverableCounter) -> tuple[Fits, list]:
        """Each layer curve through d or more ground points, spanned by d of
        them, then the completion of each tuple of fewer than d ground
        points, spanned by the tuple, each as an integer row with its mask
        over the ground."""
        layer, ground, d = counter.layer, counter.mask, counter.family.d
        kind, scale = layer.kind, layer.scale
        rows, masks, spans = [], [], []
        for row, mask in zip(layer.rows, layer.masks):
            mask &= ground
            if mask.bit_count() >= d:
                rows.append(row)
                masks.append(mask)
                spans.append([(mask, d)])
        for combo, size, row, mask in _completions(kind, d, scale, layer.scaled, ground):
            rows.append(row)
            masks.append(mask)
            spans.append([(combo, size)])
        return Fits(kind, scale, rows, masks), spans

    def through(self, first: int, rem: int) -> list[tuple[int, int]]:
        """The entries whose mask holds `first` and that elements of `rem`
        alone span, each as its row index (`obj` builds it) and its mask cut
        to `rem`, largest first, ties in object order. One spanned only
        through removed elements can tie on its cut mask and be canonically
        smaller, so it is left out. Pruning the dominated masks gives the
        entries of `candidate_cover_sets` of `rem` that hold `first`: a mask
        that contains one holding `first` holds it too."""
        live = [(h, mask & rem) for h, mask, spans in self._rows
                if mask & first and any((span & rem).bit_count() >= need for span, need in spans)]
        live.sort(key=lambda om: -om[1].bit_count())
        return live


def _self_reduce(counter: CoverableCounter, k: int, total: int, cap: int) -> list:
    """A cover of the counter's ground by at most k objects, given the
    ground's alternating sum `total` at budget k. Each step tries the
    objects through the pi-first remaining element, largest cut mask first,
    and takes the first whose removal leaves a yes-instance at one budget
    less, decided over the same counter. It skips an object whose cut mask
    lies inside one that failed, so it tries exactly the set-maximal masks
    of `candidate_cover_sets`' list through that element, in list order."""
    if total < 1:
        raise SolverInternalError("self-reduction called on a no-instance")
    table = CandidateTable(counter)
    rem = counter.mask
    chosen = []
    budget = k
    while rem:
        if not budget:
            raise SolverInternalError("the budget ran out before the ground was covered")
        failed = []  # the cut masks tried at this step, each leaving a no-instance
        for h, mask in table.through(rem & -rem, rem):
            if any(mask | f == f for f in failed):
                continue  # removing less of `rem` leaves a no-instance too
            if _signed_sum(counter, rem & ~mask, budget - 1, cap).decision:
                chosen.append(table.obj(h))
                rem &= ~mask
                budget -= 1
                break
            failed.append(mask)
        else:
            raise SolverInternalError("no candidate extends the partial cover")
    return chosen


def extract_cover(points: Sequence[Point], family: FamilySpec, k: int, *,
                  cap: int = DEFAULT_SUBSET_CAP) -> list:
    """Concrete cover of at most k objects, built by self-reduction with the
    subset-sweep decider as the oracle. Requires a yes-instance: one sweep
    decides the ground, then every step reads the same counter."""
    if k < 0:
        raise ValueError("negative budget")
    counter = CoverableCounter(incidence_layer(points, family))
    return _self_reduce(counter, k, _signed_sum(counter, counter.mask, k, cap).ie_sum, cap)
