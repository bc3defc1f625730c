"""The measured process of one benchmark run.

It is started by run.py with the path of a job file, and runs nothing but
one workload: set-up (import geomcover, generate the instances, write the
instance files), then the `geomcover solve` calls, each made in-process
through `geomcover.cli.main`. Its peak RSS is therefore that workload's.

mode "timed": whole passes over the solve list, as many as come nearest to
--seconds and at least two. Each solve and each set-up is timed with a
SpeedSampler, which times a speed probe (a fixed piece of pure-Python work
that does not touch geomcover) just before and after the timed call and every
SAMPLE_EVERY_S during it; run.py divides the machine's momentary speed out of
the times with these samples.
mode "trace": untraced, traced, traced and untraced passes, one each,
without speed samples.

Usage: python3 perfbench/worker.py JOB.json   (writes the job's result file)
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import resource
import signal
import sys
import time
from collections import Counter
from fractions import Fraction

import tracer as tracing

SETUP_REPEATS = 11
PROBE_ROUNDS = 200  # 0.2-0.5 ms of probe work on a 2-core x86-64 VM
BRACKET_SAMPLES = 3  # speed samples just before and just after each timed call
SAMPLE_EVERY_S = 0.04  # speed samples during a timed call, from a SIGALRM handler


def speed_probe() -> float:
    """Milliseconds taken by a fixed piece of pure-Python work of the kinds the
    solvers do (int and bit-mask arithmetic, Fractions, dicts and sets). It
    uses nothing from geomcover, so a change to the program cannot move it;
    the garbage collector is off while it runs, so the program's heap does not
    either."""
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc, counts, f = 0, {}, Fraction(1, 3)
    for i in range(1, PROBE_ROUNDS):
        m = (i * 2654435761) & 0xFFFF
        acc += bin(m).count("1")
        counts[m & 255] = counts.get(m & 255, 0) + 1
        if i % 8 == 0:
            f = f * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
            f = Fraction(f.numerator % 1000003, f.denominator % 1000003 or 1)
        acc += len({m & 15, (m >> 4) & 15, (m >> 8) & 15})
    ms = (time.perf_counter() - t0) * 1e3
    if gc_was_on:
        gc.enable()
    return ms


def speed_sample() -> float:
    """The time of the second of two probe runs. Right after the program has
    run, the first run finds its code and data out of the caches and reads
    10-25 % slow, by an amount that depends on the program; the second does
    not."""
    speed_probe()
    return speed_probe()


class SpeedSampler:
    """Times a call together with speed samples taken around and during it.

    The speed of this shared machine swings by up to 2x within seconds, so
    samples taken only around a multi-second solve miss most of it; the
    samples inside the call come from a SIGALRM interval timer, between two
    bytecodes of the program, and their time is taken out of the call's."""

    def __init__(self):
        self._inside: list[float] = []
        self._inside_ms = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._inside.append(speed_sample())
        self._inside_ms += (time.perf_counter() - t0) * 1e3

    def measure(self, fn):
        """Runs fn() after a garbage collection. Returns fn's result, the
        call's wall time in ms without the samples inside it, and every speed
        sample (ms) taken around and during it."""
        before = [speed_sample() for _ in range(BRACKET_SAMPLES)]
        self._inside, self._inside_ms = [], 0.0
        gc.collect()  # each call starts without the previous one's garbage
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            ms = (time.perf_counter() - t0) * 1e3
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        inside, inside_ms = self._inside, self._inside_ms
        after = [speed_sample() for _ in range(BRACKET_SAMPLES)]
        return result, ms - inside_ms, before + inside + after


def set_up(job: dict):
    """Import geomcover afresh, then generate and write every instance file.
    Returns the freshly imported cli module."""
    for name in [m for m in sys.modules if m == "geomcover" or m.startswith("geomcover.")]:
        del sys.modules[name]
    cli = importlib.import_module("geomcover.cli")
    instances = importlib.import_module("geomcover.instances")
    for spec in job["instances"]:
        inst = instances.generate(spec["model"], spec["params"], spec["seed"])
        instances.save_instance(inst, os.path.join(job["workdir"], spec["file"]))
    return cli


def solve_pass(cli, job: dict, pass_no: int, tracer=None, sampler=None) -> list[dict]:
    """One pass over the solve list. With a sampler each record also holds the
    speed samples taken around and during its solve (ms)."""
    out = []
    for i, solve in enumerate(job["solves"]):
        argv = ["solve", "--input", os.path.join(job["workdir"], solve["file"])] + solve["args"]
        if tracer is not None:
            tracer.solve_id = "%d/%d" % (pass_no, i)
        buf = io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(buf):
                    return cli.main(argv), None
            except (Exception, SystemExit) as e:  # a crash is a failed solve, not a failed run
                return None, "%s: %s" % (type(e).__name__, e)

        record = {"solve": i, "pass": pass_no}
        if sampler is None:
            gc.collect()
            t0 = time.perf_counter()
            rc, error = call()
            record["ms"] = (time.perf_counter() - t0) * 1e3
        else:
            (rc, error), record["ms"], record["samples_ms"] = sampler.measure(call)
        record.update(rc=rc, stdout=buf.getvalue(), error=error)
        out.append(record)
    return out


def _routes(results: list[dict]) -> Counter:
    routes = Counter()
    for r in results:
        try:
            routes[json.loads(r["stdout"])["algorithm"]] += 1
        except (ValueError, KeyError, TypeError):
            routes["unparsed"] += 1
    return routes


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    sampler = SpeedSampler()
    setups = []
    for _ in range(SETUP_REPEATS):
        cli, ms, samples_ms = sampler.measure(lambda: set_up(job))
        setups.append({"ms": ms, "samples_ms": samples_ms})
    result = {"setups": setups}

    if job["mode"] == "timed":
        solves = []
        t0 = time.perf_counter()
        pass_no = 0
        while True:
            solves += solve_pass(cli, job, pass_no, sampler=sampler)
            pass_no += 1
            # stop at the whole number of passes nearest to --seconds, but make
            # at least two, so that the tail percentile has its samples
            elapsed = time.perf_counter() - t0
            if pass_no >= 2 and elapsed + elapsed / pass_no / 2 >= job["seconds"]:
                break
        result["timed_s"] = time.perf_counter() - t0
        result["passes"] = pass_no
        result["solves"] = solves
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # untraced, traced, traced, untraced: the overhead estimate is not
        # skewed by a drift in machine speed over the run
        result["solves"], result["untraced_s"], result["traced"] = [], 0.0, []
        if os.path.exists(job["spans_path"]):
            os.remove(job["spans_path"])
        for pass_no in range(4):
            if pass_no in (0, 3):
                t0 = time.perf_counter()
                result["solves"] += solve_pass(cli, job, pass_no)
                result["untraced_s"] += time.perf_counter() - t0
                continue
            tracer = tracing.Tracer()
            tracer.install()
            t0 = time.perf_counter()
            try:
                traced = solve_pass(cli, job, pass_no, tracer)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.uninstall()
            metrics, counters = tracing.layer_metrics(tracer, _routes(traced))
            tracer.write(job["spans_path"], "traced-%d" % pass_no)
            result["traced"].append({"seconds": elapsed, "solves": traced,
                                     "metrics": metrics, "counters": counters})

    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
