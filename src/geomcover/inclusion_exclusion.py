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
each budget's sum takes one power per distinct c.

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

The plane walk runs in the same blocks, from an identity. Each plane and
line of a plane counter's `PlaneLayer` gets a ground mask, and a coverable
set of two or more elements spans one layer plane or lies on one layer
line, and so in each plane through that line. Any three points are
coplanar, so c(X) is C3 of X's points (the sets of at most three) plus X's
lines, plus one term per plane or line mask that holds four or more ground
points or a ground line: its factor (1 for a plane, 1 - P(l) for a line in
P(l) layer planes) times its coverable sets past that closed form. A term
reads its mask's meet with X by popcounts, so for each high subset the walk
adds one precomputed packed entry per term, and a ground of at most
`LOW_BLOCK` elements is one packed sum. The counter cuts only those masks:
the layer lists its planes and lines of four or more points once.

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
    cut to the ground, a plane counter the read terms of its identity
    (`terms`, see `_build_planes`), the ground masks of the layer planes and
    lines that hold four or more ground points or a ground line, with their
    factors. A curve counter's `step(e, Y, pairs)` gives c(Y + e) - c(Y) for
    e not in Y, where `pairs` is Y's pair mask at width `pair_width` = n,
    which the curve walk reads at each flip, with its triple masks `_tri` and
    its curves of four or more points `_heavy` to finish the subsets of its
    low block. `mask` is the ground's mask and `n` its size."""

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

        Any three points are coplanar, so the sets of at most three points
        count in closed form, C3(m) = C(m, 0) + ... + C(m, 3) of m points, and
        c(X) = C3(|X's points|) + |X's lines| + the sum over the read terms
        (G, a) of a * (2^|G & X| - C3(|G & X's points|) - |G & X's lines|).
        A read term is a mask G of two or more elements that holds four or
        more ground points or a ground line, with factor a = 1 for a plane
        and 1 - P(l) for a line in P(l) != 1 layer planes; every other mask
        adds 0 to every c(X). So only the layer's rich planes and lines
        (`PlaneLayer.rich_planes`, `.rich_lines`), the planes of each ground
        line's pencil and the ground lines themselves are cut: `terms` holds
        the (G, a) pairs."""
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
                terms.append((g | 1 << bit, 1 - len(line_planes[l])))
        for p, bits in inside.items():
            g = planes[p][0] & mask | bits
            if g & (g - 1):
                terms.append((g, 1))
        for p in layer.rich_planes:
            if p not in inside:
                g = planes[p][0] & mask
                if g.bit_count() >= 4:
                    terms.append((g, 1))
        for l in layer.rich_lines:
            g = layer.lines[l] & mask
            if g.bit_count() >= 4 and len(line_planes[l]) != 1 and l not in lines:
                terms.append((g, 1 - len(line_planes[l])))
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


def _signed_histogram(counter: CoverableCounter, ground: int, cap: int) -> dict[int, int]:
    """{c(X): signed multiplicity} over the submasks X of the `ground` mask,
    each X counted with sign (-1)^|ground \\ X|: the walk of the counter's
    family, `_curve_histogram` or `_plane_histogram`. Each walks the high
    elements and finishes each high subset's 2^b completions by the low
    block at once, so either counts every submask once."""
    _check_cap(ground.bit_count(), cap)
    if counter.family.kind == "plane3":
        return _plane_histogram(counter, ground)
    return _curve_histogram(counter, ground)


# The walks' low block: the lowest LOW_BLOCK ground elements, or all of them
# on a smaller ground. The curve walk keeps c(H + L) for the 2^b subsets L of a
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


_FORMATS = {16: "H", 32: "I", 64: "Q"}  # a field's memoryview format, by its width


@cache
def _plane_tables(b: int, width: int) -> tuple[tuple[int, ...], ...]:
    """For a block of b elements, with fields of `width` bits, and each block
    subset M: POW[M], 2 * 2^|M & L| in the field of each block subset L, that
    is 2 per subset of M that L holds; U1[M] and U2[M], 2 * C(|M & L|, t) for
    t = 1, 2, 2 per such subset of t elements; and TOT[M], 2 * C3(|M & L|),
    2 per such subset of at most three. Each adds a block element i to M by
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
    TOT = [ones + sum(us) for us in zip(U1, U2, U3)]
    odd = sum(1 << width * s for s in range(1 << b) if s.bit_count() & 1)
    return tuple(POW), tuple(U1), tuple(U2), tuple(TOT), (odd, ones // 2 - odd)


def _plane_histogram(counter: CoverableCounter, ground: int) -> dict[int, int]:
    """The plane walk of `_signed_histogram`, in blocks. The lowest b =
    min(LOW_BLOCK, m) of the m ground elements form the low block, and a
    Gray-code walk flips the others, the high elements. For each high subset
    H it fills the fields c(H + L), L over the block's subsets, of one packed
    int from the counter's identity (see `_build_planes`). A read term G adds
    a * (2^|G & (H + L)| - C3(|G & (H + L)'s points|) - |G & (H + L)'s
    lines|): with i of H's points and l of H's lines in G, that is a *
    (2^(i + l) * POW[G's block part] - C3(i + j) - l - |G & L's lines|) for j
    = |G & L's points|, and C3(i + j) = C3(i) + C2(i) * j + (i + 1) * C(j, 2)
    + C(j, 3) over the block tables. The ground's own C3 of its
    points and count of its lines enter as a term with no power and a = -1.
    Each term's values are listed once per (i, l), so H reads one entry per
    term, and a ground of at most LOW_BLOCK elements is one packed sum.

    A field holds 2c + 1 when H + L's sign is minus, at most 2^(m + 1) + 1: 16
    bits serve m <= 14, 32 bits m <= 30, and 64 bits any ground a walk can
    finish. A partial sum may borrow across fields; only the final int is
    read, into one Counter per walk, as in `_curve_histogram`."""
    elements = _bits(ground)
    m = len(elements)
    b = min(LOW_BLOCK, m)
    width = 16 if m <= 14 else 32 if m <= 30 else 64
    POW, U1, U2, TOT, signs = _plane_tables(b, width)
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
    ll = (1 << b) - 1 ^ lpoints  # the block's lines
    minus = signs[m & 1]  # the minus bits of the fields at |H| even
    base = 0
    # (POW of the block part, its block points, its block lines, a, its high
    # points, its high lines) of each term with a high part, the ground first
    spread = []
    if high:
        spread.append((0, lpoints, ll, -1, high & points, high & ~points))
    else:
        base = TOT[lpoints] + U1[ll]
    for g, a in counter.terms:
        g &= ground
        lo = 0
        for s, run, at in runs:
            lo |= (g >> s & run) << at
        lp = lo & lpoints
        if g & high:
            spread.append((POW[lo], lp, lo ^ lp, a, g & high & points, g & high & ~points))
        else:
            v = POW[lo] - TOT[lp] - U1[lo ^ lp]
            base += v if a == 1 else a * v
    ones = POW[0]
    by_points, by_both = [], []  # the terms whose high part holds no line, and the others
    for power, lp, ll, a, hp, hl in spread:
        ni = hp.bit_count() + 1
        vals = []
        for l in range(hl.bit_count() + 1):
            for i in range(ni):
                # 2 * (C3(i + j) + l + |ll & L|), j = |lp & L|
                v = TOT[lp] + U1[ll] + l * ones
                if i:
                    pairs = i * (i - 1) // 2
                    v += (i + pairs * (i + 1) // 3) * ones + (i + pairs) * U1[lp] + i * U2[lp]
                vals.append(a * ((power << i + l) - v))
        if hl:
            by_both.append((hp, hl, ni, vals))
        else:
            by_points.append((hp, vals))
    size, fmt = width // 8 << b, _FORMATS[width]
    flips = [1 << e for e in _bits(high)]
    other = signs[~m & 1]
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
    hist: dict[int, int] = {}
    for v, mult in counts.items():
        hist[v >> 1] = hist.get(v >> 1, 0) + (-mult if v & 1 else mult)
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
