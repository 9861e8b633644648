"""Fig. 6(g) — satisfiability varying pattern size k (l=3, p=4).

Paper shapes: time grows with k; at k=10 SeqSat/ParSat take 1253/398 s
(scaled here); the optimizations matter more at large k.
"""

import pytest

from repro.bench.harness import per_rule_config, sequential_virtual_seconds
from repro.parallel import par_sat
from repro.reasoning import seq_sat

from conftest import run_once

K_SWEEP = (4, 6, 10)


@pytest.mark.parametrize("k", K_SWEEP)
def test_fig6g_seqsat(benchmark, synthetic_sat_by_k, k):
    result = run_once(benchmark, seq_sat, synthetic_sat_by_k[k].sigma)
    assert result.satisfiable


@pytest.mark.parametrize("k", K_SWEEP)
def test_fig6g_parsat(benchmark, synthetic_sat_by_k, k):
    run_once(benchmark, par_sat, synthetic_sat_by_k[k].sigma, per_rule_config(workers=4))


def test_fig6g_growth_with_k(synthetic_sat_by_k):
    costs = {
        k: sequential_virtual_seconds(seq_sat(workload.sigma))
        for k, workload in synthetic_sat_by_k.items()
    }
    assert costs[4] < costs[10]
