"""Witness extraction by plain self-reduction, the reference the tests hold
`extract_cover` against: at each step, list `candidate_cover_sets` of the
remaining elements afresh and decide each candidate's removal with a fresh
subset sweep over the elements it leaves (the Fraction counter for planes)."""

from __future__ import annotations

from counter_reference import reference_decide
from incidence_reference import candidate_cover_sets
from geomcover.inclusion_exclusion import DEFAULT_SUBSET_CAP, SolverInternalError


def reference_extract_cover(points, family, k, flats=(), cap=DEFAULT_SUBSET_CAP) -> list:
    pts = list(points)
    fls = list(flats)
    if not reference_decide(pts, family, k, fls, cap):
        raise SolverInternalError("extract_cover called on a no-instance")
    chosen = []
    budget = k
    while pts or fls:
        first_bit = 1  # pi-first remaining element
        for obj, mask in candidate_cover_sets(pts, family, fls):
            if not (mask & first_bit):
                continue
            keep_pts = [p for i, p in enumerate(pts) if not (mask >> i) & 1]
            keep_fls = [f for i, f in enumerate(fls) if not (mask >> (len(pts) + i)) & 1]
            if reference_decide(keep_pts, family, budget - 1, keep_fls, cap):
                chosen.append(obj)
                pts, fls = keep_pts, keep_fls
                budget -= 1
                break
        else:
            raise SolverInternalError("no candidate extends the partial cover")
    return chosen
