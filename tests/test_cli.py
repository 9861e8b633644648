"""Tests for the gfd-reason command-line interface."""

import json

import pytest

from repro.cli import EXIT_NEGATIVE, load_rules, main
from repro.gfd.parser import dump_gfds, parse_gfds
from repro.graph.io import dump_graph
from repro import PropertyGraph

SAT_RULES = """
gfd g1 { x: a; then x.A = 1; }
gfd g2 { x: b; then x.B = 2; }
"""

UNSAT_RULES = """
gfd g1 { x: a; then x.A = 1; }
gfd g2 { x: a; then x.A = 2; }
"""

REDUNDANT_RULES = """
gfd base  { x: a; when x.A = 1; then x.B = 2; }
gfd chain { x: a; when x.B = 2; then x.C = 3; }
gfd extra { x: a; when x.A = 1; then x.C = 3; }
"""


@pytest.fixture
def sat_file(tmp_path):
    path = tmp_path / "rules.gfd"
    path.write_text(SAT_RULES)
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "bad.gfd"
    path.write_text(UNSAT_RULES)
    return str(path)


class TestLoadRules:
    def test_dsl_file(self, sat_file):
        assert [g.name for g in load_rules(sat_file)] == ["g1", "g2"]

    def test_json_file(self, tmp_path):
        path = tmp_path / "rules.json"
        dump_gfds(parse_gfds(SAT_RULES), path)
        assert len(load_rules(str(path))) == 2

    def test_missing_file(self):
        assert main(["sat", "/nonexistent/rules.gfd"]) == 2


class TestSat:
    def test_satisfiable_exit_zero(self, sat_file, capsys):
        assert main(["sat", sat_file]) == 0
        assert "SATISFIABLE" in capsys.readouterr().out

    def test_unsatisfiable_exit_negative(self, unsat_file, capsys):
        assert main(["sat", unsat_file]) == EXIT_NEGATIVE
        assert "UNSATISFIABLE" in capsys.readouterr().out

    def test_parallel_mode(self, unsat_file, capsys):
        assert main(["sat", unsat_file, "--parallel", "3"]) == EXIT_NEGATIVE
        out = capsys.readouterr().out
        assert "units=" in out

    def test_parallel_backend_selector(self, unsat_file, sat_file, capsys):
        assert (
            main(["sat", unsat_file, "--parallel", "2", "--backend", "process"])
            == EXIT_NEGATIVE
        )
        assert "UNSATISFIABLE" in capsys.readouterr().out
        assert main(["sat", sat_file, "--parallel", "2", "--backend", "process"]) == 0
        assert "SATISFIABLE" in capsys.readouterr().out

    def test_scheduler_flags(self, sat_file, capsys):
        assert main(["sat", sat_file, "--parallel", "2", "--batch-size", "3"]) == 0
        assert main(["sat", sat_file, "--parallel", "2", "--no-affinity"]) == 0
        capsys.readouterr()

    def test_ruleset_plan_flag(self, sat_file, unsat_file, capsys):
        assert main(["sat", sat_file, "--ruleset-plan"]) == 0
        assert main(["sat", unsat_file, "--ruleset-plan"]) == EXIT_NEGATIVE
        assert main(["sat", sat_file, "--parallel", "2", "--ruleset-plan"]) == 0
        capsys.readouterr()

    def test_invalid_batch_size_rejected(self, sat_file, capsys):
        # RuntimeConfigError is a ReproError: a clean exit-2, no traceback.
        assert main(["sat", sat_file, "--parallel", "2", "--batch-size", "0"]) == 2
        assert "batch_size" in capsys.readouterr().err

    def test_unknown_backend_rejected(self, sat_file):
        with pytest.raises(SystemExit):
            main(["sat", sat_file, "--parallel", "2", "--backend", "quantum"])

    def test_explain_flag(self, unsat_file, capsys):
        assert main(["sat", unsat_file, "--explain"]) == EXIT_NEGATIVE
        out = capsys.readouterr().out
        assert "derivation of the conflict" in out
        assert "rules involved" in out

    def test_explain_with_parallel(self, unsat_file, capsys):
        assert main(["sat", unsat_file, "--parallel", "2", "--explain"]) == EXIT_NEGATIVE
        assert "derivation" in capsys.readouterr().out


class TestImp:
    def test_implied(self, tmp_path, capsys):
        path = tmp_path / "rules.gfd"
        path.write_text(REDUNDANT_RULES)
        assert main(["imp", str(path), "--phi", "extra"]) == 0
        assert "IMPLIED" in capsys.readouterr().out

    def test_not_implied(self, sat_file, capsys):
        assert main(["imp", sat_file, "--phi", "g2"]) == EXIT_NEGATIVE
        assert "NOT IMPLIED" in capsys.readouterr().out

    def test_default_phi_is_last(self, tmp_path):
        path = tmp_path / "rules.gfd"
        path.write_text(REDUNDANT_RULES)
        assert main(["imp", str(path)]) == 0

    def test_unknown_phi(self, sat_file):
        assert main(["imp", sat_file, "--phi", "ghost"]) == 2

    def test_single_rule_rejected(self, tmp_path):
        path = tmp_path / "one.gfd"
        path.write_text("gfd only { x: a; then x.A = 1; }")
        assert main(["imp", str(path)]) == 2

    def test_parallel_mode(self, tmp_path):
        path = tmp_path / "rules.gfd"
        path.write_text(REDUNDANT_RULES)
        assert main(["imp", str(path), "--phi", "extra", "--parallel", "2"]) == 0

    def test_parallel_process_backend(self, tmp_path):
        path = tmp_path / "rules.gfd"
        path.write_text(REDUNDANT_RULES)
        assert (
            main(
                ["imp", str(path), "--phi", "extra", "--parallel", "2",
                 "--backend", "process"]
            )
            == 0
        )


class TestDetect:
    @pytest.fixture
    def graph_file(self, tmp_path):
        graph = PropertyGraph()
        graph.add_node("a", {"A": 1, "B": 99})
        graph.add_node("a", {"A": 0})
        path = tmp_path / "graph.json"
        dump_graph(graph, path)
        return str(path)

    def test_violations_reported(self, graph_file, tmp_path, capsys):
        rules = tmp_path / "rules.gfd"
        rules.write_text("gfd g { x: a; when x.A = 1; then x.B = 2; }")
        assert main(["detect", graph_file, str(rules)]) == EXIT_NEGATIVE
        assert "violated" in capsys.readouterr().out

    def test_ruleset_plan_same_violations(self, graph_file, tmp_path, capsys):
        rules = tmp_path / "rules.gfd"
        rules.write_text("gfd g { x: a; when x.A = 1; then x.B = 2; }")
        assert main(["detect", graph_file, str(rules)]) == EXIT_NEGATIVE
        per_rule = capsys.readouterr().out
        assert main(["detect", graph_file, str(rules), "--ruleset-plan"]) == EXIT_NEGATIVE
        assert capsys.readouterr().out == per_rule

    def test_duplicate_rule_names_rejected(self, graph_file, tmp_path, capsys):
        rules = tmp_path / "rules.gfd"
        rules.write_text(
            "gfd r { x: a; then x.A = 1; }\ngfd r { x: a; then x.B = 2; }"
        )
        for flags in ([], ["--ruleset-plan"]):
            assert main(["detect", graph_file, str(rules), *flags]) == 2
            assert "error: duplicate GFD name" in capsys.readouterr().err

    def test_clean_graph(self, graph_file, tmp_path, capsys):
        rules = tmp_path / "rules.gfd"
        rules.write_text("gfd g { x: a; when x.A = 1; then x.B = 99; }")
        assert main(["detect", graph_file, str(rules)]) == 0


class TestCover:
    def test_cover_removes_and_writes(self, tmp_path, capsys):
        rules = tmp_path / "rules.gfd"
        rules.write_text(REDUNDANT_RULES)
        out = tmp_path / "cover.json"
        assert main(["cover", str(rules), "-o", str(out)]) == 0
        assert "removed extra" in capsys.readouterr().out
        assert len(json.loads(out.read_text())) == 2


class TestParseAndBench:
    def test_parse_round_trip(self, sat_file, capsys):
        assert main(["parse", sat_file]) == 0
        out = capsys.readouterr().out
        assert "gfd g1" in out

    def test_parse_error_exit(self, tmp_path):
        path = tmp_path / "broken.gfd"
        path.write_text("this is not a gfd file")
        assert main(["parse", str(path)]) == 2

    def test_bench_unknown_figure(self):
        assert main(["bench", "fig99"]) == 2

    def test_bench_runs_small_figure(self, capsys, monkeypatch):
        # Patch the registry to a fast stand-in so the test stays quick.
        from repro.bench import experiments
        from repro.bench.harness import Experiment

        def tiny():
            experiment = Experiment("figT", "tiny", "x")
            experiment.series_named("A").add(1, 0.5)
            return experiment

        monkeypatch.setitem(experiments.ALL_EXPERIMENTS, "figT", tiny)
        assert main(["bench", "figT"]) == 0
        assert "figT" in capsys.readouterr().out
