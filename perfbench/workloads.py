"""The four benchmark workloads and the seeded instance plan of each.

A plan lists the instance files a run writes and the `geomcover solve` calls
made on them. Everything in it follows from the workload name and the seed,
except the budgets, which come from each instance's reference answer
(`oracle_min_cover`, computed once per seed outside every timed region):
an instance is solved at its optimum (a yes-decision) and one below it (a
no-decision), so every seed gives the same mix of yes and no solves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

BRANCH = ("--algorithm", "branch", "--witness")
SWEEP = ("--algorithm", "ie", "--min", "--witness")
AUTO = ("--witness",)


@dataclass(frozen=True)
class Shape:
    """`copies` seeded instances of one generator setting.

    budgets: "boundary" solves at opt and opt-1, "yes" at opt only, "no" at
    opt-1 only, an int at that budget. require_opt keeps drawing sub-seeds until that
    many instances with this exact optimum are found."""
    label: str
    model: str
    params: dict
    copies: int = 1
    budgets: object = "boundary"
    require_opt: Optional[int] = None


@dataclass(frozen=True)
class Anchor:
    """A named instance with a fixed seed, solved at `budgets`, whose search
    counters are pinned: `pins` maps budget -> {record stats key: value}."""
    label: str
    model: str
    params: dict
    seed: int
    budgets: tuple
    pins: dict


@dataclass(frozen=True)
class Workload:
    flags: tuple
    shapes: tuple
    anchors: tuple = ()
    # nearest-rank percentile reported as solve_ms_tail; chosen so that a run
    # at this commit has at least ten samples beyond it (see README.md)
    tail_percentile: int = 90


def _curves(family, k, m, noise=0, **kw):
    label = "%s-k%d-m%d%s" % (family, k, m, "+%d" % noise if noise else "")
    return Shape(label, "on-curves", {"family": family, "k": k, "m": m, "noise": noise}, **kw)


def _random(family, n, coord_range, **kw):
    dim = 3 if family == "plane3" else 2
    label = "%s-n%d-r%d" % (family, n, coord_range)
    return Shape(label, "uniform-random",
                 {"family": family, "n": n, "dimension": dim, "coord_range": coord_range}, **kw)


def _degenerate(k, m, **kw):
    return Shape("degenerate-k%d-m%d" % (k, m), "degenerate-plane", {"k": k, "m": m}, **kw)


LINE_ANCHOR = Anchor("anchor-line2-k4-m3-seed21", "on-curves",
                     {"family": "line2", "k": 4, "m": 3, "noise": 0}, 21, (4, 3),
                     {4: {"nodes": 54240, "leaves_rejected": 54223}})
PLANE_ANCHOR = Anchor("anchor-degenerate-k3-m8-seed1", "degenerate-plane",
                      {"k": 3, "m": 8}, 1, (2,),
                      {2: {"nodes": 508, "leaves_ie": 495, "ie_subsets": 78240}})

WORKLOADS = {
    "curves": Workload(BRANCH, (
        _curves("line2", 4, 3, budgets="no"),
        _curves("line2", 5, 3, budgets=5),
        _curves("line2", 3, 5, copies=3, budgets="yes"),
        _curves("circle2", 3, 4),
        _curves("circle2", 3, 3, noise=1, copies=3, require_opt=4),
        _curves("circle2", 3, 5, copies=3),
        _curves("vparabola2", 3, 4),
        _curves("vparabola2", 3, 3, noise=1, copies=3, budgets="yes", require_opt=4),
        _curves("vparabola2", 3, 5, copies=6, budgets="no"),
    ), anchors=(LINE_ANCHOR,), tail_percentile=84),
    "planes": Workload(BRANCH, (
        _degenerate(2, 5, require_opt=2),
        _degenerate(3, 5, copies=3, budgets="yes", require_opt=3),
        _random("plane3", 7, 3, copies=4, require_opt=3),
        _random("plane3", 8, 3, budgets=2, require_opt=3),
    ), anchors=(PLANE_ANCHOR,), tail_percentile=66),
    "sweep": Workload(SWEEP, (
        _random("line2", 16, 6, require_opt=5),
        _random("circle2", 14, 6, copies=2, require_opt=4),
        _random("vparabola2", 14, 6, copies=4, require_opt=4),
        _random("plane3", 12, 3, copies=2, require_opt=3),
    ), tail_percentile=72),
    "auto": Workload(AUTO, (
        _random("line2", 6, 6, copies=3, budgets="yes"),
        _random("line2", 10, 6, copies=3),
        _random("circle2", 8, 6, copies=2),
        _random("vparabola2", 7, 6, copies=2, budgets="yes"),
        _random("plane3", 9, 3, copies=12),
        _random("vparabola2", 11, 6, copies=6),
        _random("circle2", 12, 6, copies=2, budgets="no"),
        _random("line2", 14, 6, copies=3),
        _random("line2", 16, 6, budgets="yes"),
        _random("circle2", 13, 6, copies=2, budgets="yes"),
        _random("vparabola2", 13, 6, copies=2),
        _random("plane3", 13, 3, budgets="no"),
    ), tail_percentile=90),
}


@dataclass
class PlannedInstance:
    label: str
    model: str
    params: dict
    seed: int
    opt: int
    budgets: list
    pins: dict = field(default_factory=dict)
    instance: object = field(default=None, repr=False, compare=False)

    def file_name(self, index: int) -> str:
        return "%02d-%s.json" % (index, self.label)


def _budgets(spec, opt: int) -> list:
    if spec == "boundary":
        return [opt, opt - 1]
    if spec == "yes":
        return [opt]
    if spec == "no":
        return [opt - 1]
    return [int(spec)]


def build_plan(name: str, seed: int, generate, reference_opt) -> list[PlannedInstance]:
    """Instances of workload `name` for `seed`. `generate(model, params,
    seed)` builds an instance and `reference_opt(instance)` returns its exact
    optimum; both are passed in so this module imports nothing from the
    program under test."""
    workload = WORKLOADS[name]
    rng = random.Random("%s:%d" % (name, seed))
    plan = []
    for anchor in workload.anchors:
        inst = generate(anchor.model, anchor.params, anchor.seed)
        plan.append(PlannedInstance(anchor.label, anchor.model, anchor.params, anchor.seed,
                                    reference_opt(inst), list(anchor.budgets),
                                    dict(anchor.pins), inst))
    for shape in workload.shapes:
        found = 0
        for _ in range(200):
            if found == shape.copies:
                break
            sub_seed = rng.randrange(1 << 30)
            inst = generate(shape.model, shape.params, sub_seed)
            opt = reference_opt(inst)
            if shape.require_opt is not None and opt != shape.require_opt:
                continue
            found += 1
            plan.append(PlannedInstance("%s-%d" % (shape.label, found), shape.model, shape.params,
                                        sub_seed, opt, _budgets(shape.budgets, opt),
                                        instance=inst))
        if found < shape.copies:
            raise RuntimeError("shape %s: no instance with opt %s in 200 draws"
                               % (shape.label, shape.require_opt))
    return plan
