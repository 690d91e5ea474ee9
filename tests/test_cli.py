from __future__ import annotations

import json

import pytest

from radiosched.cli import main
from radiosched.graphs import path_graph, random_network, write_graph
from radiosched.schedules import read_schedule


@pytest.fixture
def path3_file(tmp_path):
    p = tmp_path / "graph.txt"
    write_graph(path_graph(3), p)
    return str(p)


def parse_text(out: str) -> dict:
    fields = {}
    for line in out.strip().splitlines():
        k, _, v = line.partition(": ")
        fields[k] = v
    return fields


class TestReports:
    def test_conflict_graph_text(self, path3_file, capsys):
        assert main(["conflict-graph", path3_file]) == 0
        fields = parse_text(capsys.readouterr().out)
        assert fields["links"] == "4"
        assert fields["max_in_degree"] == "3"
        assert fields["holds"] == "True"

    def test_conflict_graph_json(self, path3_file, capsys):
        assert main(["conflict-graph", path3_file, "--format", "json-lines"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["degree"] == 2 and rec["bound"] == 5

    def test_bounds_threshold(self, capsys):
        assert main(["bounds", "threshold", "--chi", "4"]) == 0
        assert parse_text(capsys.readouterr().out)["threshold"] == "1/4"

    def test_bounds_latency(self, capsys):
        argv = [
            "bounds", "latency", "--rho", "3/16", "--rho-prime", "1/4",
            "--window", "4", "--burst", "2", "--nesting", "2",
        ]
        assert main(argv) == 0
        fields = parse_text(capsys.readouterr().out)
        assert fields["active_classes"] == "36"
        assert fields["rounds"] == "140"


class TestScheduleFlow:
    def test_color_then_verify(self, path3_file, tmp_path, capsys):
        sched = str(tmp_path / "sched.txt")
        assert main(["schedule", "build", path3_file, "--exact", "--out", sched]) == 0
        fields = parse_text(capsys.readouterr().out)
        assert fields["period"] == "4" and fields["rho"] == "1/4"
        assert main(["schedule", "verify", path3_file, sched]) == 0
        assert parse_text(capsys.readouterr().out)["ok"] == "True"

    def test_selector_build_and_schedule(self, path3_file, tmp_path, capsys):
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "--n", "4", "--k", "4", "--out", sel]) == 0
        capsys.readouterr()
        sched = str(tmp_path / "sched.txt")
        argv = ["schedule", "build", path3_file, "--method", "selector", "--selector", sel, "--out", sched]
        assert main(argv) == 0
        assert parse_text(capsys.readouterr().out)["provenance"] == "selector"
        assert main(["schedule", "verify", path3_file, sched]) == 0

    def test_maximal_coloring(self, tmp_path, capsys):
        g_file = tmp_path / "net.txt"
        write_graph(random_network(6, 7, seed=2), g_file)
        plain, padded = tmp_path / "plain.sched", tmp_path / "padded.sched"
        assert main(["schedule", "build", str(g_file), "--exact", "--out", str(plain)]) == 0
        assert main(["schedule", "build", str(g_file), "--exact", "--maximal", "--out", str(padded)]) == 0
        a, b = read_schedule(plain), read_schedule(padded)
        assert a.period == b.period == 12 and a.claimed_frequency == b.claimed_frequency
        assert all(set(x) <= set(y) for x, y in zip(a.active, b.active))
        assert sum(map(len, a.active)) < sum(map(len, b.active))
        capsys.readouterr()
        # without --out the record is printed and no file is written
        argv = ["schedule", "build", str(g_file), "--exact", "--maximal", "--format", "json-lines"]
        assert main(argv) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (rec["period"], rec["rho"], rec["window"]) == (12, "1/12", 12)
        assert sorted(tmp_path.iterdir()) == [g_file, padded, plain]


class TestSelectorVerification:
    def test_verify_roundtrip(self, tmp_path, capsys):
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "--n", "8", "--k", "2", "--out", sel]) == 0
        assert main(["verify-selector", sel]) == 0
        fields = parse_text(capsys.readouterr().out)
        assert fields.get("ok") == "True"

    def test_overstated_claim_fails(self, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        assert main(["build-selector", "--n", "8", "--k", "2", "--out", str(sel_path)]) == 0
        lines = sel_path.read_text().splitlines()
        head = lines[0].rsplit(" ", 1)[0]
        lines[0] = head + " eps=99/100"
        sel_path.write_text("\n".join(lines) + "\n")
        assert main(["verify-selector", str(sel_path)]) == 2

    def test_sample_mode(self, tmp_path, capsys):
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "--n", "16", "--k", "2", "--out", sel]) == 0
        assert main(["verify-selector", sel, "--sample", "--trials", "200"]) == 0

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_sample_without_trials_is_parameter_error(self, tmp_path, capsys, trials):
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "--n", "16", "--k", "2", "--out", sel]) == 0
        assert main(["verify-selector", sel, "--sample", "--trials", trials]) == 3

    @pytest.mark.parametrize("eps", ["-1/2", "3/2"])
    @pytest.mark.parametrize("mode", [[], ["--sample"]])
    def test_target_outside_unit_interval_is_parameter_error(self, tmp_path, capsys, eps, mode):
        sel = str(tmp_path / "sel.txt")
        assert main(["build-selector", "--n", "8", "--k", "2", "--out", sel]) == 0
        assert main(["verify-selector", sel, f"--eps={eps}", *mode]) == 3


class TestScenariosAndTraces:
    def test_clique_scenario_and_validation(self, tmp_path, capsys):
        out = tmp_path / "clique"
        argv = [
            "scenario", "clique", "--nodes", "3", "--epsilon", "1/32",
            "--horizon", "300", "--out-dir", str(out), "--predict-rounds", "300",
        ]
        assert main(argv) == 0
        fields = parse_text(capsys.readouterr().out)
        assert fields["chi"] == "6" and fields["predicted_backlog"] == "66"
        assert (out / "graph.txt").exists() and (out / "trace.txt").exists()

        trace = str(out / "trace.txt")
        ok = ["validate-trace", trace, "--rho", "67/192", "--burst", "2"]
        assert main(ok) == 0
        capsys.readouterr()
        starved = ["validate-trace", trace, "--rho", "1/6", "--burst", "2"]
        assert main(starved) == 2
        fields = parse_text(capsys.readouterr().out)
        assert fields["admissible"] == "False"
        assert "witness_link" in fields

    def test_tree_family_files(self, tmp_path, capsys):
        out = tmp_path / "trees"
        argv = [
            "scenario", "tree-family", "--delta", "3", "--rho", "1/4",
            "--horizon", "40", "--out-dir", str(out),
        ]
        assert main(argv) == 0
        assert len(list(out.glob("tree_*.txt"))) == 7

    def test_leaky_bucket_roundtrip(self, path3_file, tmp_path, capsys):
        trace = str(tmp_path / "trace.txt")
        argv = [
            "scenario", "leaky-bucket", path3_file, "--rho", "1/4", "--burst", "2",
            "--routes", "3", "--horizon", "60", "--out", trace,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["validate-trace", trace, "--rho", "1/4", "--burst", "2"]) == 0


class TestSimulate:
    def prepared(self, tmp_path, path3_file):
        sched = str(tmp_path / "sched.txt")
        trace = str(tmp_path / "trace.txt")
        assert main(["schedule", "build", path3_file, "--out", sched]) == 0
        argv = [
            "scenario", "leaky-bucket", path3_file, "--rho", "3/16", "--burst", "2",
            "--routes", "2", "--max-hops", "2", "--horizon", "200", "--out", trace,
        ]
        assert main(argv) == 0
        return sched, trace

    def test_simulation_outputs(self, path3_file, tmp_path, capsys):
        sched, trace = self.prepared(tmp_path, path3_file)
        capsys.readouterr()
        metrics = tmp_path / "metrics.csv"
        log = tmp_path / "rounds.log"
        argv = [
            "simulate", path3_file, sched, trace, "--rounds", "400",
            "--rho", "3/16", "--burst", "2", "--rho-prime", "1/4",
            "--metrics", str(metrics), "--log", str(log),
        ]
        assert main(argv) == 0
        fields = parse_text(capsys.readouterr().out)
        assert fields["undelivered"] == "0"
        assert fields["stable"] == "True"
        assert fields["fail_holds"] == "True"
        assert "fail_witness_link" not in fields
        header = metrics.read_text().splitlines()[0]
        assert header == "round,total_backlog,delivered_cum,max_queue"
        first = log.read_text().splitlines()[0]
        assert first.startswith("round 0 scheduled ")
        assert " successful " in first and " collided " in first

    def test_inadmissible_trace_refused(self, tmp_path, capsys):
        out = tmp_path / "clique"
        argv = [
            "scenario", "clique", "--nodes", "3", "--epsilon", "1/32",
            "--horizon", "120", "--out-dir", str(out),
        ]
        assert main(argv) == 0
        sched = str(tmp_path / "sched.txt")
        assert main(["schedule", "build", str(out / "graph.txt"), "--out", sched]) == 0
        capsys.readouterr()
        trace = str(out / "trace.txt")
        budget = ["--rho", "1/6", "--burst", "2", "--format", "json-lines"]
        assert main(["validate-trace", trace, "--links", "6", *budget]) == 2
        validated = json.loads(capsys.readouterr().out)
        argv = ["simulate", str(out / "graph.txt"), sched, trace, "--rounds", "120", *budget]
        assert main(argv) == 2
        refused = json.loads(capsys.readouterr().err)
        assert refused == validated
        assert refused["admissible"] is False and "witness_allowed" in refused

    def test_failure_bound_violation(self, tmp_path, capsys):
        g_file = tmp_path / "pair.txt"
        write_graph(path_graph(2), g_file)
        sched = tmp_path / "sched.txt"
        sched.write_text("schedule period=1 links=2\n0 1\n")
        trace = tmp_path / "trace.txt"
        trace.write_text("# horizon 0\ninject 0 0 0\ninject 0 1 1\n")
        argv = [
            "simulate", str(g_file), str(sched), str(trace), "--rounds", "8",
            "--rho", "1/2", "--burst", "2", "--rho-prime", "1", "--fail-window", "8",
        ]
        assert main(argv) == 2
        fields = parse_text(capsys.readouterr().out)
        assert fields["fail_holds"] == "False"
        assert fields["delivered"] == "0"
        assert (fields["fail_witness_link"], fields["fail_witness_start"]) == ("0", "0")
        assert fields["fail_witness_count"] == "8"

    def test_failure_witness_on_overloaded_clique(self, tmp_path, capsys):
        out = tmp_path / "clique"
        argv = [
            "scenario", "clique", "--nodes", "3", "--epsilon", "1/32",
            "--horizon", "300", "--out-dir", str(out),
        ]
        assert main(argv) == 0
        sched = str(tmp_path / "sched.txt")
        assert main(["schedule", "build", str(out / "graph.txt"), "--out", sched]) == 0
        capsys.readouterr()
        # a backlogged clique link succeeds once per 6-round period, far
        # short of the claimed service rate 1
        argv = [
            "simulate", str(out / "graph.txt"), sched, str(out / "trace.txt"),
            "--rounds", "300", "--rho", "67/192", "--burst", "2", "--rho-prime", "1",
            "--format", "json-lines",
        ]
        assert main(argv) == 2
        rec = json.loads(capsys.readouterr().out)
        assert rec["fail_holds"] is False and rec["fail_window"] == 6
        assert 0 <= rec["fail_witness_link"] < 6
        assert 0 <= rec["fail_witness_start"] <= 300 - 6
        assert rec["fail_witness_count"] == rec["fail_max_count"] == 5


class TestExperiment:
    def test_sweep_reruns_identically(self, tmp_path, capsys):
        args = [
            "experiment", "--sweep", "2", "--nodes", "6", "--edges", "7",
            "--horizon", "300", "--rounds", "300",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        sa = (a / "summary.json").read_bytes()
        sb = (b / "summary.json").read_bytes()
        assert sa == sb
        summary = json.loads(sa)
        assert len(summary["runs"]) == 8
        assert (a / "seed_000" / "lis.csv").exists()
        assert (a / "seed_001" / "trace.txt").exists()

    def test_out_dir_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = [
            "experiment", "--sweep", "1", "--nodes", "5", "--edges", "5",
            "--horizon", "120", "--rounds", "120",
        ]
        assert main(args) == 0
        assert (tmp_path / "experiments" / "summary.json").exists()


class TestExitCodes:
    def test_bad_fraction_is_parameter_error(self, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        trace.write_text("inject 0 0 0\n")
        assert main(["validate-trace", str(trace), "--rho", "fast", "--burst", "1"]) == 3

    def test_link_out_of_range_is_parameter_error(self, tmp_path, capsys):
        g_file = tmp_path / "pair.txt"
        write_graph(path_graph(2), g_file)
        sched = tmp_path / "sched.txt"
        sched.write_text("schedule period=1 links=2\n0 1\n")
        trace = tmp_path / "trace.txt"
        trace.write_text("# horizon 0\ninject 0 0 0\ninject 0 1 5\n")
        budget = ["--rho", "1/2", "--burst", "1"]
        assert main(["validate-trace", str(trace), "--links", "2", *budget]) == 3
        assert "packet 1: link 5 out of range" in capsys.readouterr().err
        argv = ["simulate", str(g_file), str(sched), str(trace), "--rounds", "4", *budget]
        assert main(argv) == 3
        assert "packet 1: link 5 out of range" in capsys.readouterr().err

    def test_empty_sweep_is_parameter_error(self, tmp_path, capsys):
        assert main(["experiment", "--sweep", "0", "--out-dir", str(tmp_path / "out")]) == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("net", [["--edges", "0"], ["--nodes", "1"]])
    def test_linkless_experiment_is_parameter_error(self, tmp_path, capsys, net):
        argv = ["experiment", *net, "--horizon", "20", "--rounds", "20", "--out-dir", str(tmp_path)]
        assert main(argv) == 3
        assert "color" in capsys.readouterr().err

    @pytest.mark.parametrize("intensity", ["1.5", "nan", "0", "-0.5"])
    def test_intensity_outside_unit_interval(self, path3_file, tmp_path, capsys, intensity):
        trace = tmp_path / "load.trace"
        argv = [
            "scenario", "leaky-bucket", path3_file, "--rho", "1/4", "--horizon", "20",
            "--intensity", intensity, "--out", str(trace),
        ]
        assert main(argv) == 3
        assert "intensity" in capsys.readouterr().err
        assert not trace.exists()

    def test_missing_file(self, capsys):
        assert main(["conflict-graph", "no-such-file.txt"]) == 3

    def test_unknown_subcommand_exits_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 3

    def test_missing_required_flag_exits_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "clique", "--nodes", "3"])
        assert exc.value.code == 3
