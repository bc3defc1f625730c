"""Polynomial-space inclusion-exclusion deciders for curve and plane covers.

The decision `does P have a k-cover?` reduces to the sign-alternating sum
over all subsets X of the ground set of c(P \\ X)^k, where c(Y) counts the
subsets of Y coverable by a single object (the empty set included). The sum
is at least 1 exactly on yes-instances. No table over subsets is ever
stored: one Gray-code walk visits the subsets, flipping one element per
step, moves c by the difference the flip makes, and keeps a signed
histogram of the c values, so each budget's sum takes one power per
distinct c.

Every counter is cut from an incidence layer (`geometry.incidence_layer`):
the `curve_fits` of a point set, or its `PlaneLayer`. Its ground is any
subset of the layer's points, plus pending layer lines for planes, so a
search reads one layer per solve, the one its kernel hands on, and no
sweep leaf fits a curve or plane of its own.

Each family has its own walk. Beside the subset, the curve walk keeps its
pair mask: bit p*w + q for each ordered pair p, q of its elements, at the
counter's width w = n, moved by two XORs and one AND per flip. Curve
counters keep, per point e, a triple mask of the ordered pairs of other
points that lie with e on one layer curve through three or more ground
points, so one AND with the walk's pair mask and a popcount count the
coverable triples that a flip of e adds or removes; the pairs and, per
curve through e with four or more points, the larger subsets are popcounts
of the subset itself.

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
per counter, built from its layer's integer rows and its ground masks,
which lists for any remaining mask exactly what `candidate_cover_sets`
lists for the remaining elements, and builds only the objects picked.

Counts are exact arbitrary-precision integers throughout.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple, Optional, Sequence, Union

from .geometry import (
    FAMILIES,
    FamilySpec,
    Fits,
    PlaneLayer,
    Point,
    _bits,
    _completions,
    _maximal_sets,
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


def _pairs(y: int, w: int) -> int:
    """The pair mask of the subset mask y at width w: bit p*w + q for each p
    and q in y, built directly. It is the rows of y's elements AND their
    columns, which the sweep keeps up to date by XOR at each flip."""
    row, col = _row_col(w)
    rows = cols = 0
    for e in _bits(y):
        rows |= row << e * w
        cols |= col << e
    return rows & cols


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
    `pair_width` = n (`_pairs`); a plane counter's `flips` hold, per element,
    the tables whose popcount terms the plane walk sums. `mask` is the
    ground's mask and `n` its size."""

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
        e. `pairs` is Y's pair mask, `_pairs(Y, n)`, as the sweep keeps it
        (that of Y + e reads the same: e's triple mask holds no pair with
        e). The subsets are {e}, the coverable pairs, the triples {e, p, q}
        (one AND with e's triple mask finds each as the ordered pairs (p, q)
        and (q, p): three points fix the curve) and, on each curve with >= 4
        points, the larger subsets (`_W`, by how many of its points are in
        Y)."""
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
    each X counted with sign (-1)^|ground \\ X|. One Gray-code walk from the
    empty set flips one ground bit per step and moves c by the difference the
    flip makes: the walk of the counter's family.

    The curve walk reads `counter.step`, and beside X it keeps two masks at
    the counter's `pair_width` w: `rows`, the rows of X's elements (bits
    p*w .. p*w + w - 1 for p in X), and `cols`, their columns (bit p*w + q
    for q in X, for every p). A flip XORs the element's row and column into
    them, and `rows & cols` is X's pair mask (`_pairs(X, w)`), which the step
    reads. The flipped element's own pairs are in it when the flip adds the
    element; no step reads them."""
    n = ground.bit_count()
    _check_cap(n, cap)
    if counter.family.kind == "plane3":
        return _plane_histogram(counter, ground)
    # the walk's i-th step flips the element at i's lowest set bit
    w = counter.pair_width
    row0, col0 = _row_col(w)
    flips = {1 << j: (e, 1 << e, row0 << e * w, col0 << e) for j, e in enumerate(_bits(ground))}
    step = counter.step
    x = rows = cols = 0
    c = 1  # the empty set is its own only coverable subset
    sign = -1 if n & 1 else 1
    hist: dict[int, int] = defaultdict(int)
    hist[c] = sign
    for i in range(1, 1 << n):
        e, bit, row, col = flips[i & -i]
        x ^= bit
        rows ^= row
        cols ^= col
        if x & bit:
            c += step(e, x ^ bit, rows & cols)
        else:
            c -= step(e, x, rows & cols)
        sign = -sign
        hist[c] += sign
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
    are merged and ordered by their exact keys (`Fits.keys`), and `obj(h)`
    builds the object of row h, which extraction does only for the objects it
    picks."""

    def __init__(self, counter: CoverableCounter):
        fits, spans = (self._plane_entries(counter) if counter.family.kind == "plane3"
                       else self._curve_entries(counter))
        # one row per object, in object order, so that a stable sort by size
        # orders each list; entries of one object share its row and spans
        first: dict[tuple, int] = {}  # order key -> the object's first entry
        for h, key in enumerate(fits.keys()):
            f = first.setdefault(key, h)
            if f != h:
                spans[f] += spans[h]
        self._fits = fits
        self._rows = [(h, fits.masks[h], spans[h]) for _, h in sorted(first.items())]

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

    def cover_sets(self, rem: int) -> list[tuple[int, int]]:
        """`candidate_cover_sets` of the ground elements in `rem`, each
        object as its row index (`obj` builds it), with masks over the whole
        ground: the objects spanned by elements of `rem` alone (one spanned
        only through removed elements can tie on its restricted mask and be
        canonically smaller), largest first, ties in object order, dominated
        masks pruned."""
        live = [(h, mask & rem) for h, mask, spans in self._rows
                if any((span & rem).bit_count() >= need for span, need in spans)]
        live.sort(key=lambda om: -om[1].bit_count())
        return _maximal_sets(live)


def _self_reduce(counter: CoverableCounter, k: int, total: int, cap: int) -> list:
    """A cover of the counter's ground by at most k objects, given the
    ground's alternating sum `total` at budget k. Each step takes the first
    listed object through the pi-first remaining element whose removal
    leaves a yes-instance at one budget less, decided over the same counter."""
    if total < 1:
        raise SolverInternalError("self-reduction called on a no-instance")
    table = CandidateTable(counter)
    rem = counter.mask
    chosen = []
    budget = k
    while rem:
        if not budget:
            raise SolverInternalError("the budget ran out before the ground was covered")
        first = rem & -rem  # pi-first remaining element
        for h, mask in table.cover_sets(rem):
            if mask & first and _signed_sum(counter, rem & ~mask, budget - 1, cap).decision:
                chosen.append(table.obj(h))
                rem &= ~mask
                budget -= 1
                break
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
