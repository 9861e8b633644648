"""Tests for the benchmark harness and a smoke pass over experiments."""

import gc
import importlib.util
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.harness import (
    PER_RULE_UNITS,
    Experiment,
    Series,
    implication_workload,
    mined_implication_workload,
    mined_workload,
    parallel_sat_workload,
    per_rule_config,
    sequential_virtual_seconds,
    synthetic_imp_workload,
    synthetic_sat_workload,
    timed,
)
from repro.chase import chase_satisfiability
from repro.parallel import ParallelOutcome, RuntimeConfig
from repro.reasoning import seq_imp, seq_sat


class TestVirtualSeconds:
    def test_sat_result_priced(self, example4_sigma):
        result = seq_sat(example4_sigma)
        assert sequential_virtual_seconds(result) > 0

    def test_imp_result_priced(self, example8_sigma, example8_phi13):
        result = seq_imp(example8_sigma, example8_phi13)
        assert sequential_virtual_seconds(result) > 0

    def test_chase_result_priced(self, example4_sigma):
        result = chase_satisfiability(example4_sigma)
        assert sequential_virtual_seconds(result) > 0

    def test_more_work_costs_more(self):
        small = seq_sat(synthetic_sat_workload(20, seed=1).sigma)
        large = seq_sat(synthetic_sat_workload(120, seed=1).sigma)
        assert sequential_virtual_seconds(large) > sequential_virtual_seconds(small)


class TestWorkloads:
    def test_mined_workload_with_conflicts_unsat(self):
        workload = mined_workload("dbpedia", count=20, num_nodes=300)
        assert workload.expected_satisfiable is False
        assert not seq_sat(workload.sigma).satisfiable

    def test_mined_workload_clean_sat(self):
        workload = mined_workload("yago2", count=20, num_nodes=300, with_conflicts=False)
        assert seq_sat(workload.sigma).satisfiable

    def test_mined_implication_workload(self):
        workload = mined_implication_workload("pokec", count=15, num_nodes=300)
        assert workload.phi not in workload.sigma

    def test_parallel_sat_workload_satisfiable(self):
        workload = parallel_sat_workload("dbpedia")
        assert workload.expected_satisfiable

    def test_implication_workload_underivable(self):
        workload = implication_workload(num_seekers=1, num_background=5, target_size=6,
                                        seeker_length=3)
        result = seq_imp(workload.sigma, workload.phi)
        assert not result.implied

    def test_implication_workload_derivable(self):
        workload = implication_workload(num_seekers=1, num_background=5, target_size=6,
                                        seeker_length=3, derivable=True)
        result = seq_imp(workload.sigma, workload.phi)
        assert result.implied

    def test_synthetic_workloads_sized(self):
        assert len(synthetic_sat_workload(30).sigma) == 30
        workload = synthetic_imp_workload(30)
        assert len(workload.sigma) == 30


class TestExperimentRendering:
    def test_series_and_lookup(self):
        series = Series("algo")
        series.add(4, 1.5)
        assert series.value_at(4) == 1.5
        assert series.value_at(8) is None

    def test_render_table(self):
        experiment = Experiment("figX", "demo", "p", notes="hello")
        experiment.series_named("A").add(4, 1.0)
        experiment.series_named("A").add(8, 0.5)
        experiment.series_named("B").add(4, 2.0)
        text = experiment.render()
        assert "figX" in text and "A" in text and "B" in text
        assert "hello" in text
        assert "1.00" in text and "-" in text  # B missing at x=8

    def test_series_named_reuses(self):
        experiment = Experiment("figX", "demo", "p")
        first = experiment.series_named("A")
        assert experiment.series_named("A") is first

    def test_timed(self):
        result, seconds = timed(sum, [1, 2, 3])
        assert result == 6
        assert seconds >= 0


class TestExperimentSmoke:
    """Tiny-scale smoke runs of the figure functions (shapes checked in
    integration tests; here we only assert they produce full series)."""

    def test_fig5_smoke(self):
        from repro.bench.experiments import fig5_sequential

        experiment = fig5_sequential(mined_count=10, num_nodes=200, datasets=("yago2",))
        assert {s.algorithm for s in experiment.series} == {"SeqSat", "SeqImp", "ParImpRDF"}
        for series in experiment.series:
            assert series.value_at("yago2") is not None

    def test_fig6e_smoke(self):
        from repro.bench.experiments import fig6e_sat_varying_sigma

        experiment = fig6e_sat_varying_sigma(sigma_sweep=(20, 40))
        for series in experiment.series:
            assert len(series.points) == 2

    def test_fig6k_smoke(self):
        from repro.bench.experiments import fig6k_sat_varying_ttl

        experiment = fig6k_sat_varying_ttl(ttl_sweep=(0.5, 2.0))
        assert {s.algorithm for s in experiment.series} == {"ParSat", "ParSatnp"}

    def test_run_all_subset(self):
        from repro.bench.experiments import ALL_EXPERIMENTS, run_all

        assert len(ALL_EXPERIMENTS) == 13  # Fig 5 + Fig 6(a)-(l)
        results = run_all(["fig5"])
        assert results[0].experiment_id == "fig5"


class TestPerRuleUnits:
    """The Fig. 6 series reproduce the paper's per-rule units ``(Q[z], φ)``,
    not the library's default grouped units."""

    def test_per_rule_config_only_turns_off_grouping(self):
        assert RuntimeConfig().use_ruleset_plan
        config = per_rule_config(workers=3, ttl_seconds=1.0)
        expected = RuntimeConfig(workers=3, ttl_seconds=1.0)
        assert config == replace(expected, use_ruleset_plan=False)

    @pytest.mark.parametrize(
        "figure, runners",
        [
            ("fig6k_sat_varying_ttl", ("par_sat", "par_sat_np")),
            ("fig6l_imp_varying_ttl", ("par_imp", "par_imp_np")),
        ],
    )
    def test_parallel_series_run_per_rule_units(self, monkeypatch, figure, runners):
        from repro.bench import experiments

        seen = []
        for name in runners:
            def recording(*args, _run=getattr(experiments, name), **kwargs):
                seen.extend(a for a in args if isinstance(a, RuntimeConfig))
                return _run(*args, **kwargs)

            monkeypatch.setattr(experiments, name, recording)
        experiment = getattr(experiments, figure)(ttl_sweep=(2.0,))
        assert len(seen) == len(runners)
        assert not any(config.use_ruleset_plan for config in seen)
        assert PER_RULE_UNITS in experiment.notes


class TestBenchParallelMemory:
    """``benchmarks/bench_parallel.py`` repeats each call; a repeat must not
    start while the previous repeat's result (and its evidence) is alive,
    or the benchmark's peak memory is two runs'."""

    @staticmethod
    def _load_bench():
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_parallel.py"
        spec = importlib.util.spec_from_file_location("bench_parallel_under_test", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_one_result_alive_per_call(self, monkeypatch):
        bench = self._load_bench()
        handed_out = []  # weak references to every result and outcome

        class Result:
            satisfiable = True

            def __init__(self):
                self.outcome = ParallelOutcome()

        def stub(*args, **kwargs):
            gc.collect()
            alive = [ref for ref in handed_out if ref() is not None]
            assert not alive, "an earlier result is alive as the next call begins"
            result = Result()
            handed_out.extend([weakref.ref(result), weakref.ref(result.outcome)])
            return result

        monkeypatch.setattr(bench, "par_sat", stub)
        monkeypatch.setattr(bench, "seq_sat", stub)
        record = bench.bench_config([], "process", RuntimeConfig(), repeats=3)
        assert record["verdict"] is True
        last, record = bench.bench_seq_sat([], repeats=3)
        assert record["verdict"] is True and last is handed_out[-2]()
        assert len(handed_out) == 12
