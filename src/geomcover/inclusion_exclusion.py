"""Polynomial-space inclusion-exclusion deciders for curve and plane covers.

The decision `does P have a k-cover?` reduces to the sign-alternating sum
over all subsets X of the ground set of c(P \\ X)^k, where c(Y) counts the
subsets of Y coverable by a single object (the empty set included). The sum
is at least 1 exactly on yes-instances. No table over the subsets of the
ground is stored, beyond one of 2^b entries for a block of b elements, b at
most the fixed `LOW_BLOCK`: one Gray-code walk visits the subsets, flipping
one element per step, moves c by the difference the flip makes, and keeps a
signed histogram of the c values, so each budget's sum takes one power per
distinct c.

Every counter is cut from an incidence layer (`geometry.incidence_layer`):
the `curve_fits` of a point set, or its `PlaneLayer`. Its ground is any
subset of the layer's points, plus pending layer lines for planes, so a
search reads one layer per solve, the one its kernel hands on, and no
sweep leaf fits a curve or plane of its own.

Each family has its own walk. The curve walk runs in blocks: the lowest
b = min(LOW_BLOCK, n) ground elements form the low block, and the walk
flips only the others, the high elements. Beside the high subset H it keeps
H's pair mask: bit p*w + q for each ordered pair p, q of its elements, at
the counter's width w = n, moved by two XORs and one AND per flip. Curve
counters keep, per point e, a triple mask of the ordered pairs of other
points that lie with e on one layer curve through three or more ground
points, so one AND with the pair mask and a popcount count the coverable
triples that a flip of e adds or removes; the pairs and, per curve through
e with four or more points, the larger subsets are popcounts of the subset
itself. For each H, the walk then finishes all 2^b subsets H + L at once:
one step per low element, and one term per curve through two or more low
points, summed over the block's subsets (a zeta transform) in one packed
integer with a field per L.

The plane walk keeps the subset alone. Each plane and line of a plane
counter's `PlaneLayer` gets a ground mask, and a coverable set of two or
more elements spans one layer plane or lies on one layer line, and so in
each plane through that line. A flip steps c by popcounts over the masks
that hold the element, each weighted by 1 for a plane and 1 - P(l) for a
line in P(l) layer planes, with the sets of a point and at most two other
points in closed form; the walk sums these terms in its loop, from one
entry per element of the counter's tables.

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
from itertools import repeat
from operator import mul
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


def _row_col(w: int) -> tuple[int, int]:
    """Element 0's row (bits 0 .. w - 1) and column (bit p*w for each p < w)
    in a pair mask of width w; element e's are these shifted left by e*w and
    by e. Both are 0 at width 0."""
    return (1 << w) - 1, sum(1 << p * w for p in range(w))


class CoverableCounter:
    """Precomputes, for one fixed ground set, what c(X) reads for any subset
    mask X of it. The ground is read off an incidence layer
    (`geometry.incidence_layer`), in the layer's point numbering (point i is
    bit i): the points in `ground`, all of them by default, and for a
    `PlaneLayer` the distinct layer `lines` after them (the q-th is bit
    n + q, for n layer points). A curve counter keeps the layer's curve masks
    cut to the ground, a plane counter the ground masks of the layer planes
    and lines. What the Gray walk of `_signed_histogram` reads to step c at
    a flip differs by family: a curve counter's `step(e, Y, pairs)` gives
    c(Y + e) - c(Y) for e not in Y, where `pairs` is Y's pair mask at width
    `pair_width` = n, and the curve walk also reads its triple masks `_tri`
    and its curves of four or more points `_heavy` to finish the subsets of
    its low block; a plane counter's `flips` hold, per element, the tables
    whose popcount terms the plane walk sums. `mask` is the ground's mask
    and `n` its size."""

    def __init__(self, layer: Union[Fits, PlaneLayer], ground: Optional[int] = None,
                 lines: Sequence[int] = ()):
        self.layer = layer
        self.family = FAMILIES[layer.kind]
        if ground is None:
            ground = (1 << len(layer.scaled)) - 1
        if self.family.kind == "plane3":
            self._build_planes(ground, lines)
        else:
            self._build_curves(ground)

    # -- curves: one point mask per curve through >= 3 ground points

    def _build_curves(self, ground: int):
        """A subset of three or more points is coverable exactly when it lies
        inside the mask of one curve through >= 3 ground points (s+1 points
        fix a curve, so that curve is unique). `_pair[e]` holds the partners
        e can be covered with: two distinct points lie on a line and on a
        circle, and on a vertical parabola exactly when their x coordinates
        differ."""
        fits = self.layer
        pts = fits.scaled
        self.n = ground.bit_count()
        self.mask = ground
        self.pair_width = n = len(pts)
        # tri[e]: bit p*n + q for each ordered pair of distinct other points
        # p, q on a >= 3-point curve through e; heavy[e]: the curves through
        # e with >= 4 points
        tri = [0] * n
        heavy: list[list[int]] = [[] for _ in range(n)]
        for mask in fits.masks:
            mask &= ground
            size = mask.bit_count()
            if size < 3:
                continue
            for a in _bits(mask):
                if size >= 4:
                    heavy[a].append(mask)
                others = mask & ~(1 << a)
                for p in _bits(others):
                    tri[a] |= (others ^ 1 << p) << p * n
        if self.family.kind == "vparabola2":
            members = _bits(ground)
            self._pair = [sum(1 << j for j in members if pts[j][0] != pts[i][0])
                          for i in range(n)]
        else:
            self._pair = [ground & ~(1 << i) for i in range(n)]
        self._tri = tri
        self._heavy = heavy
        # _W[m]: the subsets of three or more among m points
        self._W = [(1 << m) - 1 - m - m * (m - 1) // 2 for m in range(n + 1)]

    def step(self, e: int, y: int, pairs: int) -> int:
        """c(Y + e) - c(Y) for e not in Y: the coverable subsets that hold
        e. `pairs` is Y's pair mask, bit p*n + q for each p and q in Y, as
        the sweep keeps it (that of Y + e reads the same: e's triple mask
        holds no pair with e). The subsets are {e}, the coverable pairs, the
        triples {e, p, q} (one AND with e's triple mask finds each as the
        ordered pairs (p, q) and (q, p): three points fix the curve) and, on
        each curve with >= 4 points, the larger subsets (`_W`, by how many of
        its points are in Y)."""
        total = 1 + (self._pair[e] & y).bit_count() + ((self._tri[e] & pairs).bit_count() >> 1)
        W = self._W
        for mask in self._heavy[e]:
            total += W[(mask & y).bit_count()]
        return total

    # -- planes: one ground mask per layer plane and line

    def _build_planes(self, mask: int, lines: Sequence[int]):
        """The ground masks of the layer over the points in `mask` and the
        layer `lines`: G_p, per layer plane p, holds the ground points on p
        and the ground lines inside it; G_l, per layer line l, the ground
        points on l and l's own bit when l is a ground line. A coverable set
        of two or more elements either spans one layer plane and lies in its
        G_p alone, or lies in one G_l and so in the G_p of each of the P(l)
        layer planes through l. Counted once per G_p and 1 - P(l) times per
        G_l that holds it, each coverable set counts once. So a flip of e adds
        {e}, and 2^|G & Y| - 1 per mask G that holds e, times 1 for a plane
        and 1 - P(l) for a line.

        Any two or three points are coplanar, so the sets of a point e and at
        most two points of Y count in closed form, and a point's step reads
        only the masks holding it that hold four or more points or a ground
        line. A line's step reads every mask that holds it. Masks with fewer
        than two elements, and lines in one layer plane (factor 0), add
        nothing.

        `flips[e]`, per ground bit e, is what the plane walk of
        `_signed_histogram` reads to step c at a flip of e: (e's bit, v, the
        (G, factor) pairs e reads), where v[m] counts the sets of e and at
        most two of m points of Y (V) for a point, and 1 for a line."""
        layer = self.layer
        n = len(layer.points)
        self._points_mask = mask
        self._stamped = list(enumerate(lines, n))   # (bit, line index)
        self.mask = ground = mask | ((1 << len(lines)) - 1) << n
        self.n = ground.bit_count()
        self.plane_masks = planes = [m & mask for m, _ in layer.planes]
        self.line_masks = lmasks = [m & mask for m in layer.lines]
        for bit, l in self._stamped:
            lmasks[l] |= 1 << bit
            for p in layer.line_planes[l]:
                planes[p] |= 1 << bit
        terms = [(g, 1) for g in planes if g & (g - 1)]
        terms += [(g, 1 - len(ps)) for g, ps in zip(lmasks, layer.line_planes)
                  if g & (g - 1) and len(ps) != 1]
        low = (1 << n) - 1  # the point bits
        reads: list[list[tuple[int, int]]] = [[] for _ in range(ground.bit_length())]
        for g, a in terms:
            if g > low or g.bit_count() >= 4:
                for e in _bits(g):
                    reads[e].append((g, a))
        # V[m]: the subsets of at most two among m points; a line's step
        # counts only itself outside the masks
        V = [1 + m + m * (m - 1) // 2 for m in range(n + 1)]
        ONE = [1] * (n + 1)
        self.flips = [(1 << e, V if e < n else ONE, reads[e]) for e in range(len(reads))]

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


def _signed_histogram(counter: CoverableCounter, ground: int, cap: int) -> dict[int, int]:
    """{c(X): signed multiplicity} over the submasks X of the `ground` mask,
    each X counted with sign (-1)^|ground \\ X|: the walk of the counter's
    family, `_curve_histogram` (a walk over the high elements that finishes
    each high subset's 2^b completions by the low block at once) or
    `_plane_histogram` (one flip per subset). Either counts every submask
    once."""
    _check_cap(ground.bit_count(), cap)
    if counter.family.kind == "plane3":
        return _plane_histogram(counter, ground)
    return _curve_histogram(counter, ground)


# The curve walk's low block: its lowest LOW_BLOCK ground elements, or all of
# them on a smaller ground. The walk keeps c(H + L) for the 2^b subsets L of a
# block of b elements in one packed int of 2^b fields of _FIELD bits, the
# field of L at bits L*_FIELD .. (L + 1)*_FIELD - 1. A field holds 2c(H + L),
# plus 1 when H + L's sign is minus, and c(X) <= 2^n fits on any ground that
# a walk can finish. Measured on the sweep workload's passes, a block of 7
# ran about 7 % faster than 6; 8 ran about 5 % faster still, but slower on
# grounds of 8-10 elements, with tables four times the size (0.75 MB).
LOW_BLOCK = 7
_FIELD = 64


def _block_tables(b: int) -> tuple[list[int], int]:
    """For a block of b elements: `up[S]` for each block subset S, 2 in the
    field of each L that holds S and 0 elsewhere, so that adding g * up[S]
    for each S is the subset sum (zeta transform) of g over the block; and
    1 in the field of each L of odd size."""
    holds = [sum(2 << _FIELD * s for s in range(1 << b) if s >> i & 1) for i in range(b)]
    up = [sum(2 << _FIELD * s for s in range(1 << b))]
    for s in range(1, 1 << b):
        up.append(up[s & (s - 1)] & holds[(s & -s).bit_length() - 1])
    return up, sum(1 << _FIELD * s for s in range(1 << b) if s.bit_count() & 1)


# built once, for every block size a walk can take
_BLOCKS = [_block_tables(b) for b in range(LOW_BLOCK + 1)]


def _curve_histogram(counter: CoverableCounter, ground: int) -> dict[int, int]:
    """The curve walk of `_signed_histogram`, in blocks. A Gray-code walk
    from the empty set flips one high element (a ground element outside the
    low block) per step and moves c(H), for the high subset H, by the
    counter's `step`. Beside H it keeps two masks at the counter's
    `pair_width` w: `rows`, the rows of H's elements (bits p*w .. p*w + w - 1
    for p in H), and `cols`, their columns (bit p*w + q for q in H, for every
    p); a flip XORs the element's row and column into them, and `rows & cols`
    is H's pair mask, which each step reads.

    For each H, c(H + L) = c(H) + the sum over the nonempty L'' in L of
    g(L''), the number of subsets T of H with T + L'' coverable:
      - {a}: `step(a, H, H's pair mask)`;
      - {a, e}: 1 if the pair is coverable, plus 2^|M & H| - 1 per curve M
        of three or more ground points through both;
      - three or more on one curve M: 2^|M & H|, and 0 on no curve.
    The packed int takes each g(S) times `up[S]`. Summed over M's low pairs
    and larger low subsets, a curve M adds 2^|M & H| * up_2(M) - up_pairs(M),
    where up_2(M) is the sum of `up[S]` over the subsets S of two or more of
    M's low points and up_pairs(M) that over its pairs. So `base` holds what
    does not depend on H: the coverable pairs, each curve inside the block,
    and -up_pairs(M) for each other curve. A curve of two low points and one
    high point h adds up[pair] while h is in H, which `base` takes at h's
    flips, and each other curve with two or more low points is a `heavy`
    term (M's high points, up_2(M)).

    The fields of each H are counted, by value, into one Counter: its keys
    2c + 1 hold the minus signs and 2c the plus signs, merged at the end."""
    elements = _bits(ground)
    n = len(elements)
    b = min(LOW_BLOCK, n)
    low, high = elements[:b], elements[b:]
    up, odd = _BLOCKS[b]
    block = sum(1 << e for e in low)
    place = {e: 1 << i for i, e in enumerate(low)}  # e's bit in the block
    w = counter.pair_width
    tri, heavy_at = counter._tri, counter._heavy
    base = 0
    gain = dict.fromkeys(high, 0)  # what h's flip adds to `base`
    heavy = []
    for i, a in enumerate(low):
        for j in range(i + 1, b):
            e, pair = low[j], 1 << i | 1 << j
            if counter._pair[a] >> e & 1:
                base += up[pair]
            # the third points of the curves of three ground points through
            # a and e: their triple-mask row, without the larger curves
            thirds = tri[a] >> e * w & ground
            for m in heavy_at[a]:
                if m >> e & 1:
                    thirds &= ~m
            for q in _bits(thirds):
                if q not in place:
                    gain[q] += up[pair]
                elif place[q] >> j > 1:  # once per triple inside the block
                    base += up[pair | place[q]]
        # the curves of four or more counter points on which a is the first
        # of two or more low points, cut to the walk's ground
        for m in heavy_at[a]:
            lows = m & block
            if lows & -lows != 1 << a or not lows & (lows - 1):
                continue
            m &= ground
            s = sum(place[e] for e in _bits(lows))
            up_2 = up_pairs = 0
            t = s
            while t:
                if t & (t - 1):
                    up_2 += up[t]
                    if t.bit_count() == 2:
                        up_pairs += up[t]
                t = (t - 1) & s
            highs = m ^ lows
            if not highs:
                base += up_2 - up_pairs
            else:
                heavy.append((highs, up_2))
                base -= up_pairs
    singles = [up[1 << i] for i in range(b)]
    ones = up[0]
    row0, col0 = _row_col(w)
    # the walk's i-th step flips the high element at i's lowest set bit
    flips = {1 << j: (e, 1 << e, row0 << e * w, col0 << e, gain[e]) for j, e in enumerate(high)}
    step = counter.step
    size = _FIELD // 8 << b
    x = rows = cols = pairs = 0
    c = 1  # the empty set is its own only coverable subset
    # the minus bits of the fields, for |H| even, then for |H| odd
    minus, other = odd, up[0] // 2 - odd
    if n & 1:
        minus, other = other, minus
    counts: Counter = Counter()
    for i in range(1 << len(high)):
        if i:
            e, bit, row, col, g = flips[i & -i]
            x ^= bit
            rows ^= row
            cols ^= col
            if x & bit:
                c += step(e, x ^ bit, pairs)
                pairs = rows & cols
                base += g
            else:
                pairs = rows & cols
                c -= step(e, x, pairs)
                base -= g
        packed = base + c * ones + sum(map(mul, map(step, low, repeat(x), repeat(pairs)), singles))
        for highs, up_2 in heavy:
            packed += (1 << (highs & x).bit_count()) * up_2
        counts.update(memoryview((packed + minus).to_bytes(size, sys.byteorder)).cast("Q"))
        minus, other = other, minus
    hist: dict[int, int] = {}
    for v, mult in counts.items():
        hist[v >> 1] = hist.get(v >> 1, 0) + (-mult if v & 1 else mult)
    return hist


def _plane_histogram(counter: CoverableCounter, ground: int) -> dict[int, int]:
    """The plane walk of `_signed_histogram`. It keeps X alone, and sums the
    step of each flipped element e in the loop from e's entry of the
    counter's `flips`: c(Y + e) - c(Y), for Y = X without e, is v[|Y's
    points|] plus, per (G, a) that e reads, a * (2^|G & Y| - v[|G & Y's
    points|])."""
    n = ground.bit_count()
    # the walk's i-th step flips the element at the position of i's lowest
    # set bit
    flips = [counter.flips[e] for e in _bits(ground)]
    low = counter._points_mask  # the ground's point bits
    x = 0
    c = 1
    sign = -1 if n & 1 else 1
    hist = {c: sign}
    for i in range(1, 1 << n):
        bit, v, reads = flips[(i & -i).bit_length() - 1]
        x ^= bit
        y = x & ~bit
        d = v[(y & low).bit_count()]
        for g, a in reads:
            gy = g & y
            d += a * ((1 << gy.bit_count()) - v[(gy & low).bit_count()])
        c = c + d if x & bit else c - d
        sign = -sign
        hist[c] = hist.get(c, 0) + sign
    return hist


def _power_sum(hist: dict[int, int], k: int) -> int:
    return sum(m * c ** k for c, m in hist.items())


def _signed_sum(counter: CoverableCounter, ground: int, k: int, cap: int) -> IEResult:
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
    points, spanned by that tuple. Planes, read off the counter's ground
    masks: the horizontal plane through each ground point, spanned by the
    point; the canonical plane through each layer line l with two or more
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
        integer row of the layer, with its mask and its spans."""
        layer, lmasks = counter.layer, counter.line_masks
        hulls = [(("point", i), [(1 << i, 1)]) for i in _bits(counter._points_mask)]
        on_ground = {l: 1 << bit for bit, l in counter._stamped}
        for l, g in enumerate(lmasks):
            spans = [(g, 2)] if g & (g - 1) else []
            if l in on_ground:
                spans.append((on_ground[l], 1))
            if spans:
                hulls.append((("line", l), spans))
        for p, g in enumerate(counter.plane_masks):
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
