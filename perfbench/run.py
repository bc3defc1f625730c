"""geomcover benchmark: seeded `geomcover solve` workloads, checked against
independent reference answers.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run it from anywhere inside a checkout that holds src/geomcover. For each
workload it builds the seed's instance plan and the reference answers
(`oracle_min_cover`, outside every timed region), then starts worker.py, a
process that only sets up and solves, so its set-up time and peak RSS are
the workload's own. With --trace 0 the worker makes whole closed-loop passes
(one caller, --threads 1), as many as come nearest to --seconds and at least
two, and the end-to-end metrics are printed. Their times are taken at the
reference speed: each solve's (and set-up's) wall time is scaled by
PROBE_REF_MS over the mean of the speed samples taken just before, during and
just after it, which divides out the swings in the speed of a shared machine.
With --trace 1 it makes two untraced and two traced passes, and the per-layer
metrics of the first traced pass are printed, with the tracing overhead.

Every solve is checked: exit code 0, no exception, the decision equal to
`opt <= k`, a reported `opt` equal to the reference, and each witness
rebuilt from the record and re-checked with `geometry.check_cover`. A run is
also incorrect when records differ between passes (traced or not), when the
deterministic counters of the two traced passes differ, or when a pinned
anchor's search counters differ from the pinned values.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # for confirming a gain on a seed it was not tuned on
RUN_LIMIT_S = 170  # the whole run, worker included, ends within this
# the speed sample's time at the reference speed; a time measured while the
# sample takes twice as long counts half (see worker.speed_sample)
PROBE_REF_MS = 0.3


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no geomcover sources)."""


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "geomcover", "cli.py")):
        raise SetupError("no geomcover sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import geomcover
    if not os.path.abspath(geomcover.__file__).startswith(SRC + os.sep):
        raise SetupError("geomcover imported from %s, not from %s" % (geomcover.__file__, SRC))
    from geomcover import geometry, instances, oracle
    return geometry, instances, oracle


def _witness_objects(geometry, witness: list) -> list:
    out = []
    for obj in witness:
        coeffs = tuple(Fraction(c) for c in obj["coeffs"])
        out.append(geometry.Plane3(coeffs) if obj["kind"] == "plane3"
                   else geometry.Curve(obj["kind"], coeffs))
    return out


def check_solve(geometry, planned, budget: int, args: list, result: dict):
    """None if the solve is correct, else why it failed."""
    if result["error"]:
        return result["error"]
    if result["rc"] != 0:
        return "exit code %s" % result["rc"]
    try:
        rec = json.loads(result["stdout"])
        decision, opt, witness = rec["decision"], rec["opt"], rec["witness"]
    except (ValueError, KeyError, TypeError):
        return "unparsable record %r" % result["stdout"][:200]
    if decision != (planned.opt <= budget):
        return "decision %s at k=%d, reference opt %d" % (decision, budget, planned.opt)
    if "--min" in args and opt is None:
        return "--min record without opt"
    if opt is not None and opt != planned.opt:
        return "opt %s, reference %d" % (opt, planned.opt)
    for key, value in planned.pins.get(budget, {}).items():
        if rec["stats"].get(key) != value:
            return "pinned %s=%s, record has %s" % (key, value, rec["stats"].get(key))
    if not decision:
        return None if witness is None else "witness on a no-decision"
    if witness is None:
        return "no witness on a yes-decision"
    limit = opt if opt is not None else budget
    try:
        objects = _witness_objects(geometry, witness)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
        return "unreadable witness: %s" % e
    if not geometry.check_cover(planned.instance.points, objects, limit):
        return "witness of %d objects rejected at budget %d" % (len(objects), limit)
    return None


def percentile(values: list, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def at_reference_speed(wall, samples_ms: list) -> float:
    """A wall time scaled to the reference speed, by the mean of the speed
    samples taken around and during it."""
    return wall * PROBE_REF_MS / statistics.mean(samples_ms)


def run_worker(job: dict, deadline: float) -> dict:
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (job["workload"], job["seed"]), dir=WORK)
    try:
        job = dict(job, workdir=workdir, src=SRC, result=os.path.join(workdir, "result.json"))
        job_path = os.path.join(workdir, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                       stdout=sys.stderr, check=True, timeout=max(1.0, deadline - time.monotonic()))
        with open(job["result"], encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: int, trace: bool, program, deadline: float):
    """Returns (correct, attempted, failed, metrics, report lines)."""
    geometry, instances, oracle = program
    spec = workloads.WORKLOADS[name]

    def reference_opt(inst):
        cap = max(oracle.DEFAULT_ORACLE_CAP, inst.n)
        return oracle.oracle_min_cover(inst.points, inst.family, cap=cap).opt

    plan = workloads.build_plan(name, seed, instances.generate, reference_opt)
    solves = []
    for idx, planned in enumerate(plan):
        for budget in planned.budgets:
            args = list(spec.flags) + ["--threads", "1", "--k", str(budget)]
            solves.append({"instance": idx, "file": planned.file_name(idx), "budget": budget,
                           "args": args})
    job = {
        "workload": name, "seed": seed, "seconds": seconds, "mode": "trace" if trace else "timed",
        "instances": [{"file": p.file_name(i), "model": p.model, "params": p.params,
                       "seed": p.seed} for i, p in enumerate(plan)],
        "solves": solves,
        "spans_path": os.path.join(WORK, "spans-%s.jsonl" % name),
    }
    result = run_worker(job, deadline)

    problems = []
    passes = [result["solves"]] + [t["solves"] for t in result.get("traced", [])]
    all_results = [r for p in passes for r in p]
    failed = 0
    for r in all_results:
        solve = solves[r["solve"]]
        why = check_solve(geometry, plan[solve["instance"]], solve["budget"], solve["args"], r)
        if why is not None:
            failed += 1
            if len(problems) < 10:
                problems.append("solve %s (pass %d, k=%d): %s"
                                % (plan[solve["instance"]].label, r["pass"], solve["budget"], why))
    first = {r["solve"]: (r["rc"], r["stdout"]) for r in passes[0] if r["pass"] == 0}
    for r in all_results:
        if (r["rc"], r["stdout"]) != first[r["solve"]]:
            problems.append("record of solve %d differs between passes 0 and %d"
                            % (r["solve"], r["pass"]))
            break

    lines = ["workload %s, seed %d: %d instances, %d solves per pass"
             % (name, seed, len(plan), len(solves))]
    if trace:
        traced = result["traced"]
        if traced[0]["counters"] != traced[1]["counters"]:
            problems.append("deterministic counters differ between the traced passes: %s / %s"
                            % (traced[0]["counters"], traced[1]["counters"]))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced[0]["metrics"].items()}
        traced_s = traced[0]["seconds"] + traced[1]["seconds"]
        metrics["trace.overhead"] = {"value": traced_s / result["untraced_s"] - 1,
                                     "unit": "fraction"}
        lines.append("untraced passes %.3f s, traced passes %.3f s; spans in %s"
                     % (result["untraced_s"], traced_s, os.path.relpath(job["spans_path"], ROOT)))
    else:
        for r in all_results:
            r["ref_ms"] = at_reference_speed(r["ms"], r["samples_ms"])
        times = [r["ref_ms"] for r in all_results]
        yes = [r["ref_ms"] for r in all_results
               if plan[solves[r["solve"]]["instance"]].opt <= solves[r["solve"]]["budget"]]
        no = [r["ref_ms"] for r in all_results
              if plan[solves[r["solve"]]["instance"]].opt > solves[r["solve"]]["budget"]]
        setup_s = statistics.median(at_reference_speed(s["ms"], s["samples_ms"]) / 1e3
                                    for s in result["setups"])
        p = spec.tail_percentile
        metrics = {
            "solves_per_s": {"value": len(times) / (sum(times) / 1e3), "unit": "1/s"},
            "solve_ms_p50": {"value": statistics.median(times), "unit": "ms"},
            "solve_ms_tail": {"value": percentile(times, p), "unit": "ms"},
            "yes_ms_p50": {"value": statistics.median(yes), "unit": "ms"},
            "no_ms_p50": {"value": statistics.median(no), "unit": "ms"},
            "ok_ratio": {"value": (len(times) - failed) / len(times), "unit": "fraction"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        beyond = len(times) - math.ceil(p / 100 * len(times))
        samples = [ms for r in all_results for ms in r["samples_ms"]]
        lines.append("wall time (not at reference speed): solve p50 %.3f ms, %.3f solves/s; "
                     "speed samples %.3f-%.3f ms, median %.3f"
                     % (statistics.median(r["ms"] for r in all_results),
                        len(times) / sum(r["ms"] / 1e3 for r in all_results),
                        min(samples), max(samples), statistics.median(samples)))
        lines.append("%d passes in %.3f s; solve_ms_tail is p%d of %d solves (%d beyond it); "
                     "failed_ratio %d/%d" % (result["passes"], result["timed_s"], p, len(times),
                                             beyond, failed, len(times)))
    for key, m in metrics.items():
        lines.append("  %-44s %16.6f %s" % (key, m["value"], m["unit"]))
    lines += ["  PROBLEM " + p for p in problems]
    return not problems and failed == 0, len(all_results), failed, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %d; confirm a gain on the held-out seed %d)"
                        % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        program = _import_program()
    except SetupError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        deadline = (time.monotonic() + RUN_LIMIT_S if args.workload == "all"
                    else start + RUN_LIMIT_S)
        try:
            ok, n, f, m, lines = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                              program, deadline)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            print("error: worker for %s failed: %s" % (name, e), file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        correct, attempted, failed = correct and ok, attempted + n, failed + f
        metrics.update(m if len(names) == 1 else {name + "." + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
