import itertools
import json
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

import geomcover
from geomcover import cli, inclusion_exclusion
from geomcover.cli import EXIT_CAP, EXIT_INVALID, EXIT_MISMATCH, EXIT_OK, main
from geomcover.geometry import LINE2, PLANE3, line_fits3, pt
from geomcover.inclusion_exclusion import DEFAULT_SUBSET_CAP
from geomcover.instances import (
    Instance,
    InvalidInstanceError,
    generate,
    parse_instance,
    serialize_instance,
)
from geomcover.oracle import DEFAULT_ORACLE_CAP, OracleResult, oracle_min_cover


class TestInstanceFiles:
    def test_roundtrip_random(self):
        rng = random.Random(211)
        from fractions import Fraction
        for _ in range(1000):
            n = rng.randint(0, 6)
            fam = LINE2 if rng.random() < 0.7 else PLANE3
            dim = fam.ambient_dim
            pts, seen = [], set()
            while len(pts) < n:
                p = pt(*(Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(dim)))
                if p not in seen:
                    seen.add(p)
                    pts.append(p)
            inst = Instance(tuple(pts), fam, rng.randint(0, 5), {"tag": rng.randint(0, 9)})
            again = parse_instance(serialize_instance(inst))
            assert again.points == inst.points
            assert again.family == inst.family and again.k == inst.k
            assert again.metadata == inst.metadata
            assert serialize_instance(again) == serialize_instance(inst)

    def test_duplicate_points_rejected(self):
        text = json.dumps({"dimension": 2, "family": "line2", "k": 1,
                           "points": [["0", "0"], ["0", "0"]]})
        with pytest.raises(InvalidInstanceError):
            parse_instance(text)
        inst = parse_instance(text, dedup=True)
        assert inst.n == 1

    def test_bad_fraction_rejected(self):
        for bad in ("1.5", "1/0", "1/-2", "x", "1/02"):
            text = json.dumps({"dimension": 2, "family": "line2", "k": 1,
                               "points": [[bad, "0"]]})
            with pytest.raises(InvalidInstanceError):
                parse_instance(text)

    def test_non_list_points_rejected(self, tmp_path, capsys):
        for bad in (5, None, {"0": ["0", "0"]}):
            text = json.dumps({"dimension": 2, "family": "line2", "k": 1, "points": bad})
            with pytest.raises(InvalidInstanceError):
                parse_instance(text)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 2, "family": "line2", "k": 1, "points": 5}))
        assert main(["solve", "--input", str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error:")

    def test_family_dimension_mismatch(self):
        text = json.dumps({"dimension": 3, "family": "line2", "k": 1, "points": []})
        with pytest.raises(InvalidInstanceError):
            parse_instance(text)


class TestGenerators:
    def test_grid(self):
        inst = generate("grid", {"n": 3}, seed=0)
        assert inst.n == 9 and inst.family is LINE2

    def test_on_curves_planted_bound(self):
        inst = generate("on-curves", {"family": "line2", "k": 3, "m": 4}, seed=7)
        assert inst.n == 12
        assert inst.metadata["planted_cover_size"] == 3
        assert oracle_min_cover(inst.points, LINE2).opt <= 3

    def test_on_curves_deterministic(self):
        a = generate("on-curves", {"family": "circle2", "k": 2, "m": 5}, seed=3)
        b = generate("on-curves", {"family": "circle2", "k": 2, "m": 5}, seed=3)
        assert a.points == b.points
        c = generate("on-curves", {"family": "circle2", "k": 2, "m": 5}, seed=4)
        assert a.points != c.points

    def test_degenerate_plane_plants_collinear_cluster(self):
        inst = generate("degenerate-plane", {"k": 2, "m": 10}, seed=1)
        count = max(mask.bit_count() for mask in line_fits3(inst.points).masks)
        assert count >= 9  # at least 90% of one cluster on a line
        assert inst.metadata["planted_cover_size"] == 2

    def test_uniform_random_distinct(self):
        inst = generate("uniform-random", {"n": 12, "dimension": 3, "coord_range": 4}, seed=2)
        assert inst.n == 12 and len(set(inst.points)) == 12

    def test_unknown_model(self):
        with pytest.raises(InvalidInstanceError):
            generate("nope", {}, seed=0)

    def test_uniform_random_needs_a_point(self):
        for n in (0, -3):
            with pytest.raises(InvalidInstanceError):
                generate("uniform-random", {"n": n}, seed=0)

    def test_negative_k_rejected_in_every_model(self):
        for model in ("grid", "uniform-random", "on-curves", "degenerate-plane"):
            with pytest.raises(InvalidInstanceError):
                generate(model, {"k": -1}, seed=0)
        assert generate("grid", {"n": 2, "k": 0}, seed=0).k == 0

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidInstanceError):
            generate("on-curves", {"family": "line2", "k": 3, "m": 4, "noise": -2}, seed=0)


class TestCli:
    def write(self, tmp_path, name, model, params, seed):
        inst = generate(model, params, seed)
        path = tmp_path / name
        path.write_text(serialize_instance(inst))
        return path, inst

    def test_solve_branch_verify_witness(self, tmp_path, capsys):
        path, _ = self.write(tmp_path, "g.json", "grid", {"n": 3}, 0)
        assert main(["solve", "--input", str(path), "--algorithm", "branch",
                     "--k", "3", "--verify", "--witness"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["decision"] is True and rec["verified"] is True
        assert len(rec["witness"]) <= 3

    def test_solve_min(self, tmp_path, capsys):
        path, _ = self.write(tmp_path, "g.json", "grid", {"n": 3}, 0)
        assert main(["solve", "--input", str(path), "--algorithm", "ie", "--min"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["opt"] == 3

    def test_cap_exit_code(self, tmp_path, capsys):
        path, _ = self.write(tmp_path, "u.json", "uniform-random",
                             {"n": 30, "coord_range": 60}, 1)
        assert main(["solve", "--input", str(path), "--algorithm", "ie", "--k", "3"]) == EXIT_CAP

    def test_auto_respects_oracle_cap(self, tmp_path, capsys):
        path, inst = self.write(tmp_path, "u.json", "uniform-random",
                                {"n": 11, "coord_range": 20}, 4)
        assert inst.n == 11
        assert main(["solve", "--input", str(path), "--k", "4", "--oracle-cap", "10"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["algorithm"] == "ie"
        assert main(["solve", "--input", str(path), "--k", "4"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["algorithm"] == "oracle"

    def test_auto_min_never_routes_to_branch(self, tmp_path, capsys):
        # beyond the oracle, --min goes to ie, whose cap check exits 3 past
        # its cap; only an explicit branch is an invalid --min
        line, inst = self.write(tmp_path, "l.json", "uniform-random",
                                {"family": "line2", "n": 30, "coord_range": 60}, 1)
        assert inst.n == 30
        assert main(["solve", "--input", str(line), "--min"]) == EXIT_CAP
        small, inst = self.write(tmp_path, "s.json", "uniform-random",
                                 {"family": "line2", "n": 8, "coord_range": 20}, 2)
        assert inst.n == 8
        assert main(["solve", "--input", str(small), "--min",
                     "--ie-cap", "5", "--oracle-cap", "5"]) == EXIT_CAP
        assert main(["solve", "--input", str(small), "--min", "--algorithm", "branch"]) == EXIT_INVALID
        assert main(["solve", "--input", str(small), "--min", "--ie-cap", "8",
                     "--oracle-cap", "5"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["algorithm"] == "ie"

    def test_auto_min_past_the_ie_cap_asks_the_oracle(self, tmp_path, capsys):
        # 12 < n <= oracle cap with n past the ie cap: the sweep would exit
        # 3, so auto --min goes to the unbounded oracle and gets its opt
        path, inst = self.write(tmp_path, "u.json", "uniform-random", {"n": 14}, 3)
        assert inst.n == 14
        argv = ["solve", "--input", str(path), "--min", "--ie-cap", "12"]
        assert main(argv + ["--algorithm", "oracle"]) == EXIT_OK
        want = json.loads(capsys.readouterr().out)
        assert main(argv) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert (rec["algorithm"], rec["opt"], rec["decision"]) == ("oracle", want["opt"], True)
        assert want["opt"] == 5

    def test_auto_routing_table(self):
        """`auto` sends n <= 12 to the oracle; n = 13..16 to the oracle within
        2^n nodes and then to the sweep, while both caps allow; a minimum
        past the ie cap but within the oracle's to the oracle; and the rest
        as before: `ie` within its cap (or for --min), else `branch`."""
        oracle, ie, branch = ("oracle", None), ("ie", None), ("branch", None)
        caps = (DEFAULT_ORACLE_CAP, DEFAULT_SUBSET_CAP)
        table = [
            # n, (oracle cap, ie cap), min, routes
            (12, caps, False, (oracle,)),
            (13, caps, False, (("oracle", 1 << 13), ie)),
            (16, caps, False, (("oracle", 1 << 16), ie)),
            (17, caps, False, (ie,)),
            (12, (11, 26), False, (ie,)),
            (12, (16, 11), False, (oracle,)),
            (13, (12, 26), False, (ie,)),
            (16, (15, 26), False, (ie,)),
            (16, (16, 16), False, (("oracle", 1 << 16), ie)),
            (13, (16, 12), False, (branch,)),
            (16, (16, 15), False, (branch,)),
            (16, (16, 15), True, (oracle,)),
            (17, (17, 17), False, (("oracle", 1 << 17), ie)),
            (17, (16, 16), False, (branch,)),
            (17, (16, 16), True, (ie,)),
        ]
        for n, (oracle_cap, ie_cap), min_cover, routes in table:
            assert cli._pick_auto(SimpleNamespace(n=n), oracle_cap, ie_cap, min_cover) == routes, (
                n, oracle_cap, ie_cap, min_cover)

    def test_auto_records_name_the_route_that_answered(self, tmp_path, capsys):
        """line2 at coord range 6, seed 1: the oracle answers n = 12..16
        within 2^n nodes (132, 548 and 173 of them); past its cap, or at
        n = 17, the sweep answers."""
        for n, routes in ((12, ("oracle", "oracle")), (13, ("oracle", "ie")),
                          (16, ("oracle", "ie")), (17, ("ie", "ie"))):
            path, inst = self.write(tmp_path, "l.json", "uniform-random",
                                    {"family": "line2", "n": n, "coord_range": 6}, 1)
            assert inst.n == n
            for flags, route in zip(([], ["--oracle-cap", "12"]), routes):
                assert main(["solve", "--input", str(path)] + flags) == EXIT_OK
                rec = json.loads(capsys.readouterr().out)
                assert (rec["algorithm"], rec["decision"]) == (route, True), (n, flags)

    def test_auto_record_is_the_record_of_the_route_that_answered(self, tmp_path, capsys):
        """Byte for byte: an easy n = 16 instance is the oracle's record, and
        the golden vparabola2 n = 13 seed 18 instance, whose search needs
        124,787 nodes against 8,192, is the sweep's."""
        cases = (("circle2", 16, 1, "oracle"), ("vparabola2", 13, 18, "ie"))
        for family, n, seed, route in cases:
            path, inst = self.write(tmp_path, "u.json", "uniform-random",
                                    {"family": family, "n": n, "coord_range": 6}, seed)
            assert inst.n == n
            for k in (inst.k, inst.k - 1, 5):
                argv = ["solve", "--input", str(path), "--witness", "--k", str(k)]
                assert main(argv) == EXIT_OK
                auto = capsys.readouterr().out
                assert main(argv + ["--algorithm", route]) == EXIT_OK
                assert auto == capsys.readouterr().out, (family, k)
                assert json.loads(auto)["algorithm"] == route

    def test_invalid_input_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--input", str(bad), "--k", "1"]) == EXIT_INVALID

    def test_timing_times_every_algorithm(self, tmp_path, capsys, monkeypatch):
        # each reading of the patched clock is a quarter second after the
        # last, so one timed span around the solve reads 250 ms
        path, _ = self.write(tmp_path, "v.json", "uniform-random",
                             {"family": "vparabola2", "n": 13, "coord_range": 6}, 18)
        for algorithm in ("ie", "oracle", "branch", "auto"):
            monkeypatch.setattr(cli.time, "perf_counter", itertools.count(0, 0.25).__next__)
            argv = ["solve", "--input", str(path), "--algorithm", algorithm, "--k", "5"]
            assert main(argv + ["--timing"]) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["stats"]["wall_ms"] == 250, algorithm
            assert main(argv) == EXIT_OK
            assert "wall_ms" not in json.loads(capsys.readouterr().out)["stats"]

    def test_negative_budget_rejected(self, tmp_path, capsys):
        path, _ = self.write(tmp_path, "g.json", "grid", {"n": 3}, 0)
        for flags in (["ie"], ["ie", "--min"], ["branch"], ["oracle"], ["auto"]):
            assert main(["solve", "--input", str(path), "--k", "-1",
                         "--algorithm"] + flags) == EXIT_INVALID
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")

    def test_solve_and_kernelize_take_no_seed(self, tmp_path, capsys):
        """Only gen draws at random: solve and kernelize reject --seed, a
        record has no seed key, and two kernelize runs of an instance whose
        kernel adds a replacement point write the same file."""
        path, _ = self.write(tmp_path, "d.json", "degenerate-plane", {"k": 4, "m": 4}, 2)
        outs = [tmp_path / "k1.json", tmp_path / "k2.json"]
        for argv in (["solve", "--input", str(path)],
                     ["kernelize", "--input", str(path), "--k", "3", "--out", str(outs[0])]):
            with pytest.raises(SystemExit) as exit_:
                main(argv + ["--seed", "1"])
            assert exit_.value.code == EXIT_INVALID
        capsys.readouterr()
        assert main(["solve", "--input", str(path), "--algorithm", "oracle"]) == EXIT_OK
        assert "seed" not in json.loads(capsys.readouterr().out)
        for out in outs:
            assert main(["kernelize", "--input", str(path), "--k", "3", "--out", str(out)]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert pt(1, 3, 1) in parse_instance(outs[0].read_text()).points

    def test_byte_identical_records(self, tmp_path, capsys):
        def record(path, *flags):
            assert main(["solve", "--input", str(path), "--algorithm", "branch",
                         "--witness"] + list(flags)) == EXIT_OK
            return capsys.readouterr().out

        path, _ = self.write(tmp_path, "d.json", "degenerate-plane", {"k": 2, "m": 6}, 3)
        assert record(path) == record(path)

        # the benchmark's two anchors with their pinned search counters;
        # --threads only lands in config.threads
        anchors = [
            ("degenerate-plane", {"k": 3, "m": 8}, 1, 2,
             {"nodes": 508, "leaves_ie": 495, "leaves_rejected": 3, "ie_subsets": 78240}),
            ("on-curves", {"family": "line2", "k": 4, "m": 3, "noise": 0}, 21, 4,
             {"nodes": 54240, "leaves_rejected": 54223}),
        ]
        for model, params, seed, k, pins in anchors:
            path, _ = self.write(tmp_path, "a.json", model, params, seed)
            one = record(path, "--k", str(k), "--threads", "1")
            two = record(path, "--k", str(k), "--threads", "2")
            stats = json.loads(one)["stats"]
            assert {key: stats[key] for key in pins} == pins
            assert '"threads":2' in two
            assert two.replace('"threads":2', '"threads":1') == one

    def test_kernelize_roundtrip(self, tmp_path, capsys):
        inst = Instance(tuple([pt(i, 0) for i in range(6)] + [pt(0, 5), pt(5, 7)]), LINE2, 2)
        src = tmp_path / "inst.json"
        src.write_text(serialize_instance(inst))
        out = tmp_path / "kern.json"
        assert main(["kernelize", "--input", str(src), "--k", "2", "--out", str(out)]) == EXIT_OK
        kern = parse_instance(out.read_text())
        assert kern.metadata["kernel"]["verdict"] == "reduced"
        assert kern.n == 0 and kern.k == 0

    def test_negative_caps_rejected(self, tmp_path, capsys):
        path, _ = self.write(tmp_path, "g.json", "grid", {"n": 3}, 0)
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"entries": [
            {"model": "grid", "params": {"n": 2}, "k": 2, "algorithms": ["ie"]}]}))
        for flag in ("--ie-cap", "--oracle-cap"):
            for argv in (["solve", "--input", str(path)], ["bench", "--suite", str(suite)]):
                assert main(argv + [flag, "-1"]) == EXIT_INVALID
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err == "error: negative %s -1\n" % flag
        for threads in ("0", "-2"):
            assert main(["solve", "--input", str(path), "--threads", threads]) == EXIT_INVALID
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == "error: --threads %s is below 1\n" % threads

    def test_bench_csv(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"entries": [
            {"model": "grid", "params": {"n": n}, "seed": 0, "k": n,
             "algorithms": ["ie", "branch", "oracle"]} for n in (2, 3)
        ]}))
        assert main(["bench", "--suite", str(suite)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,k,algorithm,decision,nodes,leaves,wall_ms"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 6
        # cross-algorithm agreement per instance
        for n in ("4", "9"):
            decs = {r[3] for r in rows if r[0] == n}
            assert len(decs) == 1

    def test_bench_auto_names_its_route(self, tmp_path, capsys):
        """`auto` routes each instance as `solve` does, and its rows name the
        route that answered: the oracle at 9 points and at 16, the sweep at
        16 under an oracle cap of 15 and, under an ie cap of 15, the search."""
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"entries": [
            {"model": "grid", "params": {"n": n}, "seed": 0, "k": n, "algorithms": ["auto", "branch"]}
            for n in (3, 4)
        ]}))
        for flags, route in (([], "oracle"), (["--oracle-cap", "15"], "ie"),
                             (["--oracle-cap", "15", "--ie-cap", "15"], "branch"),
                             (["--ie-cap", "15"], "branch")):
            assert main(["bench", "--suite", str(suite)] + flags) == EXIT_OK
            rows = [l.split(",") for l in capsys.readouterr().out.strip().splitlines()[1:]]
            assert sorted((r[0], r[2], r[3]) for r in rows) == [
                ("16", "auto:" + route, "yes"), ("16", "branch", "yes"),
                ("9", "auto:oracle", "yes"), ("9", "branch", "yes")]

    def test_bench_empty_suite(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"entries": []}))
        assert main(["bench", "--suite", str(suite)]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out == "n,k,algorithm,decision,nodes,leaves,wall_ms"

    def test_bench_rejects_malformed_suites(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        entry = {"model": "grid", "params": {"n": 2}, "seed": 0, "k": 2, "algorithms": ["ie"]}
        bad_suites = [
            [entry],  # a top-level list
            {"entries": {"0": entry}},
            {"entries": [entry, "grid"]},
            {"entries": [entry, {key: v for key, v in entry.items() if key != "algorithms"}]},
            {"entries": [entry, {key: v for key, v in entry.items() if key != "model"}]},
            {"entries": [dict(entry, algorithms="ie")]},
        ]
        # entries whose fields have the wrong type or sign, named by index
        bad_fields = [{"k": "3"}, {"k": -1}, {"k": 2.5}, {"k": True}, {"repetitions": "2"},
                      {"repetitions": -1}, {"seed": "0"}, {"seed": 1.5}, {"params": [3]},
                      {"algorithms": ["ie", "iee"]}, {"algorithms": ["Auto"]},
                      {"algorithms": [["ie"]]}]
        field_suites = [{"entries": [entry, dict(entry, **field)]} for field in bad_fields]
        for bad in bad_suites + field_suites:
            suite.write_text(json.dumps(bad))
            assert main(["bench", "--suite", str(suite)]) == EXIT_INVALID
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")
            assert captured.err.count("\n") == 1
            assert bad not in field_suites or captured.err.startswith("error: suite entry 1: ")

    def test_ie_solve_builds_one_counter(self, tmp_path, capsys, monkeypatch):
        """`ie --min --witness` decides and extracts on one counter, with one
        walk over the whole ground and the rest over smaller grounds."""
        builds, walks = [], []
        real_init = inclusion_exclusion.CoverableCounter.__init__
        real_walk = inclusion_exclusion._signed_histogram

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            real_init(self, *args, **kwargs)

        def counting_walk(counter, ground, cap):
            walks.append(ground == (1 << counter.n) - 1)
            return real_walk(counter, ground, cap)

        monkeypatch.setattr(inclusion_exclusion.CoverableCounter, "__init__", counting_init)
        monkeypatch.setattr(inclusion_exclusion, "_signed_histogram", counting_walk)
        monkeypatch.setattr(cli, "_signed_histogram", counting_walk)
        path, _ = self.write(tmp_path, "u.json", "uniform-random",
                             {"family": "circle2", "n": 9, "coord_range": 6}, 3)
        for flags in (["--min"], ["--k", "4"]):
            builds.clear()
            walks.clear()
            assert main(["solve", "--input", str(path), "--algorithm", "ie", "--witness"]
                        + flags) == EXIT_OK
            rec = json.loads(capsys.readouterr().out)
            assert rec["decision"] and len(rec["witness"]) >= 2
            assert builds == [1]
            assert walks[0] and not any(walks[1:]) and len(walks) >= len(rec["witness"])

    def test_in_process_calls_print_the_records_of_fresh_processes(self, tmp_path, capsys):
        """main builds its parser once per process; each later call with
        other flags prints what a fresh process prints."""
        path, inst = self.write(tmp_path, "oc.json", "on-curves",
                                {"family": "circle2", "k": 3, "m": 3}, 11)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(geomcover.__file__)))
        for flags in (["--witness"], [], ["--k", "1"], ["--k", str(inst.k)],
                      ["--algorithm", "ie", "--min", "--witness", "--verify"], []):
            argv = ["solve", "--input", str(path)] + flags
            assert main(argv) == EXIT_OK
            here = capsys.readouterr().out
            fresh = subprocess.run([sys.executable, "-m", "geomcover.cli"] + argv, env=env,
                                   capture_output=True, text=True, check=True)
            assert here == fresh.stdout, flags

    def test_verify_runs_the_oracle_once(self, tmp_path, capsys, monkeypatch):
        """--verify runs the oracle once on every route, and only adds
        "verified": true: an oracle-routed solve is cross-checked by the
        sweep, every other solve by the oracle."""
        calls = []
        real = cli.oracle_min_cover

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "oracle_min_cover", counting)
        path, _ = self.write(tmp_path, "oc.json", "on-curves",
                             {"family": "vparabola2", "k": 2, "m": 4}, 3)
        for algorithm, runs in (("oracle", 1), ("auto", 1), ("ie", 0), ("branch", 0)):
            for flags in ([], ["--min"], ["--k", "1"]):
                if algorithm == "branch" and flags == ["--min"]:
                    continue
                argv = ["solve", "--input", str(path), "--algorithm", algorithm, "--witness"] + flags
                calls.clear()
                assert main(argv) == EXIT_OK
                plain = capsys.readouterr().out
                assert len(calls) == runs
                calls.clear()
                assert main(argv + ["--verify"]) == EXIT_OK
                assert len(calls) == 1, (algorithm, flags)
                verified = capsys.readouterr().out
                assert verified == plain.replace('"verified":null', '"verified":true')

    def test_verify_checks_the_oracle_with_the_sweep(self, tmp_path, capsys, monkeypatch):
        """An oracle that is off by one fails --verify with exit 4, on its
        decision at k and on its opt under --min; beyond the ie cap its
        answer stays unverified (null)."""
        real = cli.oracle_min_cover

        def off_by_one(*args, **kwargs):
            res = real(*args, **kwargs)
            return OracleResult(res.opt + 1, res.witness)

        path, _ = self.write(tmp_path, "u.json", "uniform-random",
                                {"family": "line2", "n": 13, "coord_range": 6}, 1)
        argv = ["solve", "--input", str(path), "--verify"]
        assert main(argv + ["--min"]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert (rec["algorithm"], rec["verified"]) == ("oracle", True)
        opt = rec["opt"]
        monkeypatch.setattr(cli, "oracle_min_cover", off_by_one)
        for algorithm in ("auto", "oracle"):
            for flags in (["--k", str(opt)], ["--min", "--k", str(opt + 1)]):
                assert main(argv + ["--algorithm", algorithm] + flags) == EXIT_MISMATCH
                captured = capsys.readouterr()
                assert json.loads(captured.out)["verified"] is False
                assert captured.err.startswith("verification mismatch: oracle said")
        assert main(argv + ["--algorithm", "oracle", "--ie-cap", "12"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["verified"] is None

    def test_gen_rejects_bad_sizes(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        for flags in (["--model", "uniform-random", "--n", "-3"],
                      ["--model", "grid", "--k", "-1"],
                      ["--model", "uniform-random", "--k", "-1"],
                      ["--model", "on-curves", "--k", "-1"],
                      ["--model", "degenerate-plane", "--k", "-1"],
                      ["--model", "on-curves", "--noise", "-2"]):
            assert main(["gen", "--seed", "1", "--out", str(out)] + flags) == EXIT_INVALID
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")
            assert not out.exists()

    def test_gen_writes_file(self, tmp_path, capsys):
        out = tmp_path / "oc.json"
        assert main(["gen", "--model", "on-curves", "--family", "vparabola2",
                     "--k", "2", "--m", "4", "--seed", "5", "--out", str(out)]) == EXIT_OK
        inst = parse_instance(out.read_text())
        assert inst.family.kind == "vparabola2" and inst.n == 8
