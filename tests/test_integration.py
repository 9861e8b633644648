"""End-to-end integration tests: examples run, pipelines compose, and the
paper's headline claims hold qualitatively at test scale."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import seq_sat
from repro.bench.harness import sequential_virtual_seconds, synthetic_sat_workload
from repro.datasets import dbpedia_like
from repro.gfd.generator import mine_gfds, straggler_workload
from repro.parallel import RuntimeConfig, par_sat
from repro.reasoning import minimal_cover

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "inconsistency_detection.py",
        "rule_optimization.py",
        "extensions_demo.py",
    ],
)
def test_example_scripts_run(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()


def test_parallel_scaling_example_runs():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / "parallel_scaling.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    assert "speedup" in completed.stdout


#: Work-unit shapes: the paper's per-rule units and grouped trie units.
UNIT_SHAPES = pytest.mark.parametrize(
    "use_ruleset_plan", [False, True], ids=["per-rule", "grouped"]
)


class TestHeadlineClaims:
    """The paper's ParSat runs per-rule work units ``(Q[z], φ)``, so these
    claims are checked on per-rule units (``use_ruleset_plan=False``).
    Grouped units are a parameter where they meet the claim too."""

    def test_parallel_scalability_claim(self):
        """Paper: ParSat is parallel scalable — ~3-4x faster from p=4 to 20."""
        sigma = straggler_workload(seed=21)
        at_4 = par_sat(sigma, RuntimeConfig(workers=4, use_ruleset_plan=False)).virtual_seconds
        at_20 = par_sat(sigma, RuntimeConfig(workers=20, use_ruleset_plan=False)).virtual_seconds
        assert at_4 / at_20 >= 2.5

    @UNIT_SHAPES
    def test_splitting_claim(self, use_ruleset_plan):
        """Paper: splitting beats no-splitting markedly at high p."""
        sigma = straggler_workload(seed=22)
        config = RuntimeConfig(workers=20, use_ruleset_plan=use_ruleset_plan)
        with_split = par_sat(sigma, config).virtual_seconds
        without = par_sat(sigma, config.without_splitting()).virtual_seconds
        assert without / with_split >= 1.5

    def test_pipelining_claim(self):
        """Paper: pipelining improves ParSat ~1.5x."""
        sigma = straggler_workload(seed=23)
        config = RuntimeConfig(workers=8, use_ruleset_plan=False)
        pipelined = par_sat(sigma, config).virtual_seconds
        not_pipelined = par_sat(sigma, config.without_pipelining()).virtual_seconds
        assert not_pipelined / pipelined >= 1.2

    @UNIT_SHAPES
    def test_parsat_beats_seqsat_at_p4(self, use_ruleset_plan):
        """Paper Exp-2: ParSat ~3.1x faster than SeqSat at p=4."""
        workload = synthetic_sat_workload(150, k=6, l=5, seed=24)
        seq_cost = sequential_virtual_seconds(seq_sat(workload.sigma))
        config = RuntimeConfig(workers=4, use_ruleset_plan=use_ruleset_plan)
        par_cost = par_sat(workload.sigma, config).virtual_seconds
        assert seq_cost / par_cost >= 2.0

    def test_growth_with_sigma(self):
        """Paper Exp-2: runtime grows with |Σ|."""
        small = sequential_virtual_seconds(seq_sat(synthetic_sat_workload(40, seed=25).sigma))
        large = sequential_virtual_seconds(seq_sat(synthetic_sat_workload(160, seed=25).sigma))
        assert large > small


class TestMiningToReasoningPipeline:
    def test_full_pipeline(self):
        """dataset -> mine -> satisfiability -> cover -> parallel recheck."""
        graph = dbpedia_like(400, seed=31)
        sigma = mine_gfds(graph, 20, seed=31)
        assert seq_sat(sigma).satisfiable
        cover = minimal_cover(sigma)
        assert len(cover.cover) <= len(sigma)
        parallel = par_sat(cover.cover, RuntimeConfig(workers=4))
        assert parallel.satisfiable
