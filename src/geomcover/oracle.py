"""Independent ground truth: exhaustive set-cover search.

`oracle_min_cover` is a plain branch-and-bound over maximal candidate cover
sets. It reads the candidates off the same tested integer incidence layer
as the production solvers (`cover_set_rows`: the fitted curve, line and
plane rows), but neither their counters nor their candidate tables, and its
decision logic is deliberately separate, so the two routes can cross-check
each other. Objects are built only for the reported witness.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .geometry import (
    FamilySpec,
    GeometryError,
    Point,
    cover_set_rows,
)
from .inclusion_exclusion import CapExceededError

DEFAULT_ORACLE_CAP = 16


class OracleResult(NamedTuple):
    opt: int
    witness: list


def oracle_min_cover(points: Sequence[Point], family: FamilySpec,
                     cap: int = DEFAULT_ORACLE_CAP,
                     max_nodes: Optional[int] = None) -> OracleResult:
    """Exact minimum cover size with a witness. Branches on the lowest-index
    uncovered point over all candidate sets containing it, best-first by
    covered count. With max_nodes, raises CapExceededError once the search
    makes more nodes than that; below it the search, opt and witness are those
    of an unbounded run."""
    pts = tuple(points)
    n = len(pts)
    if n > cap:
        raise CapExceededError("instance of %d elements exceeds the oracle cap %d" % (n, cap))
    if n == 0:
        return OracleResult(0, [])

    fits, cands = cover_set_rows(pts, family)
    full = (1 << n) - 1
    # candidates (row index, mask) covering each point, best-first
    by_element = [[] for _ in range(n)]
    for row, mask in cands:
        m = mask
        while m:
            low = m & -m
            by_element[low.bit_length() - 1].append((row, mask))
            m ^= low
    max_size = max((mask.bit_count() for _, mask in cands), default=1)

    best = n + 1  # no cover found yet
    best_rows: list = []
    nodes_left = max_nodes if max_nodes is not None else -1  # -1: no budget

    def search(uncovered: int, chosen: list):
        nonlocal best, best_rows, nodes_left
        nodes_left -= 1
        if nodes_left == -1:
            raise CapExceededError("oracle search passed its budget of %d nodes" % max_nodes)
        if not uncovered:
            if len(chosen) < best:
                best = len(chosen)
                best_rows = list(chosen)
            return
        lower = len(chosen) + -(-uncovered.bit_count() // max_size)
        if lower >= best:
            return
        e = (uncovered & -uncovered).bit_length() - 1
        for row, mask in by_element[e]:
            chosen.append(row)
            search(uncovered & ~mask, chosen)
            chosen.pop()

    search(full, [])
    if best > n:
        raise GeometryError("no cover found; candidate sets are incomplete")
    return OracleResult(best, [fits.obj(row) for row in best_rows])

