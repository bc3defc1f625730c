"""Batch command-line front door: gen / solve / kernelize / bench.

Exit codes: 0 decision computed (yes or no), 2 invalid input, 3 cap
exceeded, 4 verification mismatch (solver bug).

Result records are emitted as canonical JSON. Wall-clock timing is kept out
of the record unless --timing is passed, so the records of one instance
file and one set of flags are byte-identical. Every solve runs sequentially;
--threads is only recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from .curve_branch import SearchStats, curve_cover
from .geometry import Curve, GeometryError, Plane3, check_cover, incidence_layer
from .inclusion_exclusion import (
    DEFAULT_SUBSET_CAP,
    CapExceededError,
    CoverableCounter,
    SolverInternalError,
    _least_budget,
    _power_sum,
    _self_reduce,
    _signed_histogram,
)
from .instances import (
    GENERATOR_MODELS,
    Instance,
    InvalidInstanceError,
    generate,
    load_instance,
    save_instance,
)
from .kernel import curve_kernel, plane_kernel_r3
from .oracle import DEFAULT_ORACLE_CAP, oracle_min_cover
from .plane_branch import plane_cover

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4

ALGORITHMS = ("ie", "branch", "oracle", "auto")

# the routes of `auto`, as `_pick_auto` takes them
ORACLE_CAP_HELP = ("the most points the oracle takes (exit 3 past it); auto: n <= min(12, "
                   "oracle cap) goes to the oracle, unbounded, and 12 < n <= oracle cap and "
                   "n <= ie cap to the oracle within 2^n search nodes, then ie")
IE_CAP_HELP = ("the most elements a subset sweep takes, in ie and in branch's leaves (exit 3 "
               "past it); auto: a minimum with ie cap < n <= oracle cap goes to the oracle, "
               "unbounded; otherwise ie up to its cap, then branch (a minimum stays on ie)")


class VerificationMismatch(RuntimeError):
    pass


def _witness_json(witness) -> list:
    out = []
    for obj in witness:
        if isinstance(obj, Curve):
            out.append({"kind": obj.kind, "coeffs": [str(c) for c in obj.coeffs]})
        elif isinstance(obj, Plane3):
            out.append({"kind": "plane3", "coeffs": [str(c) for c in obj.coeffs]})
        else:
            raise SolverInternalError("unexpected witness object %r" % (obj,))
    return out


@dataclass
class ResultRecord:
    algorithm: str
    decision: bool = False
    opt: Optional[int] = None
    witness: Optional[list] = None
    stats: SearchStats = field(default_factory=SearchStats)
    config: dict = field(default_factory=dict)
    verified: Optional[bool] = None

    def to_json(self, timing: bool = False) -> str:
        stats = {
            "nodes": self.stats.nodes_expanded,
            "leaves_ie": self.stats.leaves_ie,
            "leaves_rejected": self.stats.leaves_rejected,
            "max_depth": self.stats.max_depth,
            "ie_subsets": self.stats.ie_subsets,
        }
        if timing:
            stats["wall_ms"] = self.stats.wall_ms
        doc = {
            "algorithm": self.algorithm,
            "decision": self.decision,
            "opt": self.opt,
            "witness": _witness_json(self.witness) if self.witness is not None else None,
            "stats": stats,
            "config": self.config,
            "verified": self.verified,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _pick_auto(inst: Instance, oracle_cap: int, ie_cap: int, min_cover: bool = False) -> tuple:
    """The routes `auto` tries in turn, each as (algorithm, oracle node
    budget or None); a route that passes its budget hands over to the next.

    - n <= min(12, oracle cap): the oracle, unbounded.
    - 12 < n <= oracle cap and n <= ie cap: the oracle within 2^n search
      nodes, the sweep's own subset count, then `ie`.
    - a minimum with ie cap < n <= oracle cap: the oracle, unbounded, as
      the sweep would exit 3 past its cap.
    - otherwise `ie` up to its cap, then `branch`. A minimum needs `ie`
      beyond the oracle, whose cap check exits 3 past its cap: `branch`
      decides one budget only.

    Measured (`solve --witness`, best of 2, plain perf_counter, in process,
    uniform-random seeds 1-3 at opt and opt-1; oracle / ie ms):
    - coord range 6 (`auto`'s benchmark shapes): the oracle wins or ties
      every solve of all four families: 1-5 / 2-12 for the curve families
      and 4-9 / 8-20 for plane3 at n = 13, 1-20 / 11-48 and 11-15 / 67-131
      at n = 16.
    - coord range 20 (general position): the oracle loses on 5 of 24
      instances, line2 n = 16 seeds 1 and 3 (71-81 / 9-15), circle2 n = 13
      seed 3 (19-20 / 3-8), vparabola2 n = 13 seed 2 (81-86 / 3-11) and
      vparabola2 n = 16 seed 2 (471-504 / 12-25). Their searches pass 2^n
      nodes, so they fall back, and `auto` takes 15-54 ms on them: on
      vparabola2 n = 16 seed 2 it takes 54 / 36 ms at k = 5 / 4, the sweep
      alone 25 / 12 ms and the unbounded oracle 504 / 471 ms.
    """
    n = inst.n
    if n <= min(12, oracle_cap):
        return (("oracle", None),)
    if n <= oracle_cap and n <= ie_cap:
        return (("oracle", 1 << n), ("ie", None))
    if n <= oracle_cap and min_cover:
        return (("oracle", None),)
    if n <= ie_cap or min_cover:
        return (("ie", None),)
    return (("branch", None),)


def _solve(inst: Instance, algorithm: str, k: int, args,
           max_nodes: Optional[int] = None) -> ResultRecord:
    """The record of one algorithm's solve of `inst` at budget k, untimed and
    unchecked; the oracle stops past `max_nodes` search nodes."""
    record = ResultRecord(algorithm=algorithm, config={
        "k": k,
        "family": inst.family.kind,
        "n": inst.n,
        "threads": args.threads,
        "ie_cap": args.ie_cap,
    })

    if algorithm == "ie":
        # one counter and one sweep decide; extraction reuses both
        counter = CoverableCounter(incidence_layer(inst.points, inst.family))
        hist = _signed_histogram(counter, counter.mask, args.ie_cap)
        record.stats.ie_subsets += 1 << inst.n
        if args.min_cover:
            record.opt, total = _least_budget(hist, inst.n)
            record.decision = record.opt <= k
        else:
            total = _power_sum(hist, k)
            record.decision = total >= 1
        if args.witness and record.decision:
            budget = record.opt if args.min_cover else k
            record.witness = _self_reduce(counter, budget, total, args.ie_cap)
    elif algorithm == "oracle":
        res = oracle_min_cover(inst.points, inst.family, cap=args.oracle_cap, max_nodes=max_nodes)
        record.opt = res.opt
        record.decision = res.opt <= k
        if args.witness and record.decision:
            record.witness = res.witness
    elif algorithm == "branch":
        if args.min_cover:
            raise InvalidInstanceError("--min needs the ie or oracle algorithm")
        if inst.family.kind == "plane3":
            res = plane_cover(inst.points, k, ie_cap=args.ie_cap)
        else:
            res = curve_cover(inst.points, inst.family, k, ie_cap=args.ie_cap)
        record.decision = res.decision
        record.stats = res.stats
        if args.witness and res.decision:
            record.witness = res.witness
    else:
        raise InvalidInstanceError("unknown algorithm %r" % algorithm)
    return record


def _run_algorithm(inst: Instance, algorithm: str, k: int, args) -> ResultRecord:
    """Solve `inst` at budget k with `algorithm` (for `auto`, the first of
    its routes that finishes, named in `record.algorithm`), timed into
    `record.stats.wall_ms`, and check any witness the solver returns."""
    t0 = time.perf_counter()
    if algorithm == "auto":
        routes = _pick_auto(inst, args.oracle_cap, args.ie_cap, args.min_cover)
    else:
        routes = ((algorithm, None),)
    for route, max_nodes in routes:
        try:
            record = _solve(inst, route, k, args, max_nodes)
            break
        except CapExceededError:
            if max_nodes is None:
                raise
    record.stats.wall_ms = int((time.perf_counter() - t0) * 1000)

    if record.witness is not None:
        budget = record.opt if record.opt is not None else k
        if not check_cover(inst.points, record.witness, budget):
            raise VerificationMismatch("solver produced an invalid witness")
    return record


def _check_caps(args):
    for flag, cap in (("--ie-cap", args.ie_cap), ("--oracle-cap", args.oracle_cap)):
        if cap < 0:
            raise ValueError("negative %s %d" % (flag, cap))
    # bench has no --threads: its solves run on one thread
    if getattr(args, "threads", 1) < 1:
        raise ValueError("--threads %d is below 1" % args.threads)


def _cmd_solve(args) -> int:
    _check_caps(args)
    inst = load_instance(args.input, dedup=args.dedup)
    k = args.k if args.k is not None else inst.k
    if k < 0:
        raise ValueError("negative budget --k %d" % k)
    record = _run_algorithm(inst, args.algorithm, k, args)

    if args.verify:
        # the oracle's answers are checked by the sweep, all others by the oracle
        check = "ie" if record.algorithm == "oracle" else "oracle"
        if inst.n <= (args.ie_cap if check == "ie" else args.oracle_cap):
            truth = _solve(inst, check, k, argparse.Namespace(**dict(vars(args), witness=False)))
            record.verified = (record.decision == truth.decision
                               and (not args.min_cover or record.opt == truth.opt))
            if not record.verified:
                print("verification mismatch: %s said %s (opt %s), %s says %s (opt %s)"
                      % (record.algorithm, record.decision, record.opt,
                         check, truth.decision, truth.opt), file=sys.stderr)
                print(record.to_json(timing=args.timing))
                return EXIT_MISMATCH
        # else verified stays null: the instance is beyond the checking route's cap

    print(record.to_json(timing=args.timing))
    return EXIT_OK


def _cmd_gen(args) -> int:
    params = {}
    for key in ("n", "k", "m", "noise", "dimension", "coord_range", "family"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            params[key] = val
    inst = generate(args.model, params, args.seed)
    save_instance(inst, args.out)
    print("wrote %s: %d points, family %s, k=%d" % (args.out, inst.n, inst.family.kind, inst.k))
    return EXIT_OK


def _cmd_kernelize(args) -> int:
    inst = load_instance(args.input, dedup=args.dedup)
    k = args.k if args.k is not None else inst.k
    if inst.family.kind == "plane3":
        res = plane_kernel_r3(inst.points, k)
    else:
        res = curve_kernel(inst.points, inst.family, k)
    meta = dict(inst.metadata)
    meta["kernel"] = {
        "verdict": res.verdict,
        "input_k": k,
        "forced": _witness_json(res.forced),
    }
    out = Instance(res.points, inst.family, res.k, meta)
    save_instance(out, args.out)
    print("kernel verdict=%s: %d -> %d points, k %d -> %d, %d forced"
          % (res.verdict, inst.n, out.n, k, res.k, len(res.forced)))
    return EXIT_OK


BENCH_COLUMNS = ("n", "k", "algorithm", "decision", "nodes", "leaves", "wall_ms")


def _suite_entries(suite) -> list:
    """The entries of a bench suite, each checked for the keys a run reads
    before any entry runs."""
    if not isinstance(suite, dict):
        raise InvalidInstanceError("suite file must hold a JSON object")
    entries = suite.get("entries", [])
    if not isinstance(entries, list):
        raise InvalidInstanceError("suite entries must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InvalidInstanceError("suite entry %d is not an object" % i)
        for key in ("model", "algorithms"):
            if key not in entry:
                raise InvalidInstanceError("suite entry %d has no %r" % (i, key))
        if not isinstance(entry["algorithms"], list):
            raise InvalidInstanceError("suite entry %d: algorithms must be a list" % i)
        for name in entry["algorithms"]:
            if name not in ALGORITHMS:
                raise InvalidInstanceError("suite entry %d: unknown algorithm %r" % (i, name))
        if not isinstance(entry.get("params", {}), dict):
            raise InvalidInstanceError("suite entry %d: params must be an object" % i)
        for key in ("k", "repetitions", "seed"):
            value = entry.get(key, 0)
            # JSON true and false load as bools, which are ints to isinstance
            if type(value) is not int:
                raise InvalidInstanceError("suite entry %d: %s must be an integer" % (i, key))
            if value < 0 and key != "seed":
                raise InvalidInstanceError("suite entry %d: negative %s %d" % (i, key, value))
    return entries


def _cmd_bench(args) -> int:
    _check_caps(args)
    with open(args.suite, "r", encoding="utf-8") as fh:
        entries = _suite_entries(json.load(fh))
    rows = []
    for entry in entries:
        inst = generate(entry["model"], entry.get("params", {}), entry.get("seed", 0))
        k = entry.get("k", inst.k)
        reps = entry.get("repetitions", 1)
        for algorithm in entry["algorithms"]:
            for _ in range(reps):
                ns = argparse.Namespace(
                    threads=1, ie_cap=args.ie_cap,
                    oracle_cap=args.oracle_cap, min_cover=False, witness=False)
                record = _run_algorithm(inst, algorithm, k, ns)
                # auto's rows name the route that answered, as in auto:oracle
                name = algorithm if record.algorithm == algorithm else "%s:%s" % (
                    algorithm, record.algorithm)
                leaves = record.stats.leaves_ie + record.stats.leaves_rejected
                rows.append((inst.n, k, name, "yes" if record.decision else "no",
                             record.stats.nodes_expanded, leaves, record.stats.wall_ms))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[4], r[5]))
    print(",".join(BENCH_COLUMNS))
    for row in rows:
        print(",".join(str(x) for x in row))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geomcover",
                                     description="exact point-cover solvers for curves and planes")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide or minimize a cover for an instance file")
    solve.add_argument("--input", required=True)
    solve.add_argument("--algorithm", default="auto", choices=ALGORITHMS)
    solve.add_argument("--k", type=int, default=None, help="budget (defaults to the instance's k)")
    solve.add_argument("--min", dest="min_cover", action="store_true",
                       help="compute the minimum cover size")
    solve.add_argument("--witness", action="store_true", help="extract a concrete cover")
    solve.add_argument("--verify", action="store_true",
                       help="cross-check with a second route within its cap: the sweep "
                            "for an oracle answer, the oracle for any other")
    solve.add_argument("--threads", type=int, default=1,
                       help="recorded in config.threads; the search always runs sequentially")
    solve.add_argument("--ie-cap", type=int, default=DEFAULT_SUBSET_CAP, help=IE_CAP_HELP)
    solve.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP, help=ORACLE_CAP_HELP)
    solve.add_argument("--dedup", action="store_true", help="drop duplicate points with a warning")
    solve.add_argument("--timing", action="store_true", help="include wall time in the record")
    solve.set_defaults(func=_cmd_solve)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--model", required=True, choices=list(GENERATOR_MODELS))
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--m", type=int, default=None)
    gen.add_argument("--noise", type=int, default=None)
    gen.add_argument("--dimension", type=int, default=None)
    gen.add_argument("--coord-range", dest="coord_range", type=int, default=None)
    gen.add_argument("--family", default=None)
    gen.set_defaults(func=_cmd_gen)

    kern = sub.add_parser("kernelize", help="reduce an instance and save the result")
    kern.add_argument("--input", required=True)
    kern.add_argument("--k", type=int, default=None)
    kern.add_argument("--out", required=True)
    kern.add_argument("--dedup", action="store_true")
    kern.set_defaults(func=_cmd_kernelize)

    bench = sub.add_parser("bench", help="run a benchmark suite and emit CSV")
    bench.add_argument("--suite", required=True)
    bench.add_argument("--ie-cap", type=int, default=DEFAULT_SUBSET_CAP, help=IE_CAP_HELP)
    bench.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP, help=ORACLE_CAP_HELP)
    bench.set_defaults(func=_cmd_bench)
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None  # built on the first call of main


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInstanceError, GeometryError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INVALID
    except CapExceededError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_CAP
    except (VerificationMismatch, SolverInternalError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
