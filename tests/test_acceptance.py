"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance here is exact; the suites are seeded and
deterministic.
"""

import itertools
import json
import random
import time

from conftest import c_count, ie_min_cover, random_points_2d, random_points_3d
from counter_reference import q_count
from geomcover.cli import EXIT_OK, main
from geomcover.curve_branch import curve_cover
from geomcover.geometry import (
    CIRCLE2,
    LINE2,
    PLANE3,
    VPARABOLA2,
    check_cover,
    curve_covers,
    curve_fits,
    enumerate_candidates,
    enumerate_lines3,
    pt,
)
from geomcover.inclusion_exclusion import extract_cover, ie_sums
from geomcover.instances import generate, serialize_instance
from geomcover.kernel import curve_kernel, plane_kernel_r3
from geomcover.oracle import oracle_min_cover
from geomcover.plane_branch import plane_cover
from incidence_reference import covering_curve, flat_contains

GRID3 = [pt(i, j) for i in range(3) for j in range(3)]
CURVE_FAMILIES = (LINE2, CIRCLE2, VPARABOLA2)


def report(num: int, desc: str, ok: bool, extra: str = ""):
    line = "ACCEPTANCE %d (%s): %s" % (num, desc, "PASS" if ok else "FAIL")
    if extra:
        line += " [%s]" % extra
    print(line, flush=True)
    assert ok, line


def curve_suite(family, count, master_seed):
    """Seeded mix of structured-random and planted instances, n <= 12."""
    rng = random.Random(master_seed)
    out = []
    for i in range(count):
        k = rng.randint(1, 4)
        if i % 3 == 0:
            objs = rng.randint(1, 3)
            per = rng.randint(2, 4)
            noise = rng.randint(0, max(0, (12 - objs * per) // 2))
            inst = generate("on-curves", {"family": family.kind, "k": objs,
                                          "m": per, "noise": noise},
                            seed=master_seed * 1000 + i)
            pts = list(inst.points)[:12]
        else:
            pts = random_points_2d(rng, rng.randint(4, 12), span=rng.randint(3, 6))
        out.append((pts, k))
    return out


def plane_suite(count_random, count_degenerate, master_seed):
    rng = random.Random(master_seed)
    out = []
    for i in range(count_random):
        pts = random_points_3d(rng, rng.randint(4, 12), span=rng.randint(2, 4))
        out.append((pts, rng.randint(1, 3), "random"))
    i = 0
    while sum(1 for _, _, tag in out if tag == "degenerate") < count_degenerate:
        clusters = 1 + (i % 2)
        per = 5 if clusters == 2 else rng.choice([6, 8])
        inst = generate("degenerate-plane", {"k": clusters, "m": per},
                        seed=master_seed * 500 + i)
        i += 1
        if inst.n > 12:
            continue
        out.append((list(inst.points), clusters, "degenerate"))
        out.append((list(inst.points), max(1, clusters - 1), "degenerate"))
    return out


class TestAcceptance:
    def test_1_curve_oracle_equivalence(self):
        t0 = time.time()
        mismatches = 0
        checked = 0
        for family in CURVE_FAMILIES:
            suite = curve_suite(family, 200, master_seed=ord(family.kind[0]))
            for idx, (pts, k) in enumerate(suite):
                sums = ie_sums(pts, family, range(1, 5))
                truth = oracle_min_cover(pts, family)
                branch = curve_cover(pts, family, k)
                ie_says = sums[k] >= 1
                oracle_says = truth.opt <= k
                if not (ie_says == oracle_says == branch.decision):
                    mismatches += 1
                # criterion 4 rider: signed sums nonnegative and monotone
                assert all(sums[j] >= 0 for j in sums)
                assert all(sums[j] <= sums[j + 1] for j in range(1, 4))
                # criterion 6 rider: produced witnesses must check out
                if branch.decision:
                    assert check_cover(pts, branch.witness, k)
                assert check_cover(pts, truth.witness, truth.opt)
                if branch.decision and idx % 20 == 0:
                    assert check_cover(pts, extract_cover(pts, family, k), k)
                checked += 1
        elapsed = time.time() - t0
        report(1, "curves: oracle == subset-sweep == branching on %d instances" % checked,
               mismatches == 0 and checked >= 600 and elapsed < 600,
               "%.0fs, %d mismatches" % (elapsed, mismatches))

    def test_2_plane_oracle_equivalence(self):
        t0 = time.time()
        suite = plane_suite(75, 25, master_seed=31)
        mismatches = 0
        degenerate_count = 0
        for pts, k, tag in suite:
            truth = oracle_min_cover(pts, PLANE3)
            res = plane_cover(pts, k)
            if res.decision != (truth.opt <= k):
                mismatches += 1
            if res.decision:
                assert check_cover(pts, res.witness, k)
            if tag == "degenerate":
                degenerate_count += 1
        elapsed = time.time() - t0
        report(2, "planes: oracle == plane branching on %d instances (%d degenerate)"
               % (len(suite), degenerate_count),
               mismatches == 0 and len(suite) >= 100 and degenerate_count >= 25
               and elapsed < 900,
               "%.0fs, %d mismatches" % (elapsed, mismatches))

    def test_3_exact_counts(self):
        min_cover = ie_min_cover(GRID3, LINE2)
        rich = sum(mask.bit_count() >= 3 for mask in curve_fits(GRID3, LINE2).masks)
        oracle_opt = oracle_min_cover(GRID3, LINE2).opt
        brute_rich = sum(1 for c in enumerate_candidates(GRID3, LINE2)
                         if sum(curve_covers(c, p) for p in GRID3) >= 3)
        report(3, "3x3 grid: min cover 3 and 8 lines of 3",
               min_cover == 3 == oracle_opt and rich == 8 == brute_rich)

    def test_4_ie_identities(self):
        ok = c_count([pt(0, 0), pt(1, 0), pt(0, 1)], LINE2) == 7
        ok &= c_count([pt(0, 0), pt(1, 0), pt(2, 0)], LINE2) == 8

        # representative partition against exhaustive counting, 3 orderings
        def brute(sub, fam):
            total = 0
            for r in range(len(sub) + 1):
                for q in itertools.combinations(sub, r):
                    if not q or covering_curve(fam, q) is not None:
                        total += 1
            return total

        rng = random.Random(997)
        for fam, n in ((LINE2, 9), (CIRCLE2, 8)):
            ground = random_points_2d(rng, n, span=4)
            for _ in range(3):
                rng.shuffle(ground)
                for size in range(n + 1):
                    for sub_idx in itertools.combinations(range(n), size):
                        sub = [ground[i] for i in sub_idx]
                        total = 1
                        for rep_size in range(1, fam.s + 2):
                            for rep in itertools.combinations(sub, rep_size):
                                total += q_count(sub, fam, rep)
                        if total != brute(sub, fam):
                            ok = False
        # signed-sum sign and monotonicity on fresh suite instances
        for family in CURVE_FAMILIES:
            for pts, _ in curve_suite(family, 15, master_seed=73):
                sums = ie_sums(pts, family, range(0, 6))
                ok &= all(v >= 0 for v in sums.values())
                ok &= all(sums[j] <= sums[j + 1] for j in range(0, 5))
        report(4, "subset-sweep identities: c values, q partition x3 orderings, "
                  "sign and monotonicity", ok)

    def test_5_kernel_guarantees(self):
        rng = random.Random(555)
        ok = True
        checked = 0
        for i in range(120):
            family = CURVE_FAMILIES[i % 3]
            pts = random_points_2d(rng, rng.randint(4, 11), span=rng.randint(3, 5))
            k = rng.randint(1, 4)
            res = curve_kernel(pts, family, k)
            original = oracle_min_cover(pts, family).opt <= k
            if res.verdict == "rejected":
                ok &= not original
            else:
                ok &= len(res.points) <= family.s * res.k * res.k
                ok &= all(sum(curve_covers(c, p) for p in res.points) <= family.s * res.k
                          for c in enumerate_candidates(res.points, family))
                reduced = (oracle_min_cover(res.points, family).opt <= res.k
                           if res.points else True)
                ok &= original == reduced
            checked += 1
        for i in range(80):
            pts = random_points_3d(rng, rng.randint(4, 10), span=rng.randint(2, 4))
            k = rng.randint(1, 3)
            res = plane_kernel_r3(pts, k)
            original = oracle_min_cover(pts, PLANE3).opt <= k
            if res.verdict == "rejected":
                ok &= not original
            else:
                ok &= len(res.points) <= k ** 3 + k ** 2
                for line in enumerate_lines3(res.points):
                    online = sum(1 for p in res.points if flat_contains(line, p))
                    ok &= online <= k + 1
                reduced = (oracle_min_cover(res.points, PLANE3).opt <= res.k
                           if res.points else True)
                ok &= original == reduced
            checked += 1
        report(5, "kernel bounds and decision preservation on %d instances" % checked,
               ok and checked == 200)

    def test_6_witness_validity(self, tmp_path, capsys):
        ok = True
        # CLI --witness runs across algorithms and families
        cases = [
            ("grid", {"n": 3}, 0, "branch", 3),
            ("grid", {"n": 3}, 0, "ie", 3),
            ("on-curves", {"family": "circle2", "k": 2, "m": 5}, 4, "branch", 2),
            ("on-curves", {"family": "vparabola2", "k": 2, "m": 4}, 9, "oracle", 2),
            ("degenerate-plane", {"k": 2, "m": 6}, 2, "branch", 2),
        ]
        for model, params, seed, algorithm, k in cases:
            inst = generate(model, params, seed)
            path = tmp_path / ("w_%s_%s.json" % (model, algorithm))
            path.write_text(serialize_instance(inst))
            code = main(["solve", "--input", str(path), "--algorithm", algorithm,
                         "--k", str(k), "--witness", "--verify"])
            rec = json.loads(capsys.readouterr().out)
            ok &= code == EXIT_OK
            if rec["decision"]:
                ok &= rec["witness"] is not None and len(rec["witness"]) <= k
                ok &= rec["verified"] in (True, None)
        report(6, "every yes-decision with --witness passes the independent checker", ok)

    def test_7_performance_floor_reported(self, tmp_path, capsys):
        rng = random.Random(3)
        pts = []
        while len(pts) < 18:
            p = pt(rng.randint(0, 8), rng.randint(0, 8))
            if p not in pts:
                pts.append(p)
        t0 = time.time()
        sums = ie_sums(pts, LINE2, [6])
        elapsed = time.time() - t0

        # per-object point counts stay below the forcing bar, so the kernel
        # leaves these planted instances to the branching search
        entries = [
            {"model": "on-curves", "params": {"family": "line2", "k": 4, "m": 3},
             "seed": 21, "k": 4, "algorithms": ["branch"]},
            {"model": "on-curves", "params": {"family": "circle2", "k": 3, "m": 3,
                                              "noise": 1},
             "seed": 21, "k": 3, "algorithms": ["branch"]},
        ]
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"entries": entries}))
        assert main(["bench", "--suite", str(suite)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        print("  reported: subset sweep at n=18 (lines, k=6) took %.1fs "
              "(floor: 120s, sum=%d)" % (elapsed, sums[6]), flush=True)
        ok = len(lines) == 3
        by_shape = {}
        for entry in entries:
            inst = generate(entry["model"], entry["params"], entry["seed"])
            by_shape[(inst.n, entry["k"])] = (entry, inst)
        for line in lines[1:]:
            row = dict(zip(lines[0].split(","), line.split(",")))
            entry, inst = by_shape[(int(row["n"]), int(row["k"]))]
            n_cands = len(enumerate_candidates(list(inst.points), inst.family))
            k_run = int(row["k"])
            naive = 1
            for i in range(k_run):
                naive = naive * (n_cands - i) // (i + 1)
            nodes = int(row["nodes"])
            print("  reported: bench on planted %s: %d branch nodes vs naive "
                  "C(%d,%d)=%d" % (entry["params"]["family"], nodes, n_cands,
                                   k_run, naive), flush=True)
            ok &= row["decision"] == "yes" and 0 < nodes < naive
        report(7, "performance floor (reported, not asserted)", ok,
               "sweep %.1fs" % elapsed)

    def test_8_determinism(self, tmp_path, capsys):
        ok = True
        runs = [
            ("grid", {"n": 3}, 0, ["--algorithm", "branch", "--k", "3", "--witness"]),
            ("degenerate-plane", {"k": 2, "m": 6}, 5, ["--algorithm", "branch", "--witness"]),
            ("uniform-random", {"n": 10, "coord_range": 5}, 11, ["--algorithm", "ie", "--min", "--witness"]),
        ]
        for model, params, seed, flags in runs:
            inst = generate(model, params, seed)
            again = generate(model, params, seed)
            ok &= serialize_instance(inst) == serialize_instance(again)
            path = tmp_path / ("det_%s.json" % model)
            path.write_text(serialize_instance(inst))
            argv = ["solve", "--input", str(path)] + flags
            ok &= main(argv) == EXIT_OK
            first = capsys.readouterr().out
            ok &= main(argv) == EXIT_OK
            second = capsys.readouterr().out
            ok &= first == second
        report(8, "identical seeds, single-threaded: byte-identical records", ok)
