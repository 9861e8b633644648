"""Fig. 6(i) — implication varying pattern size k (l=3, p=4).

Paper shapes: time grows with k; at k=10 SeqImp/ParImp take 538/201 s
(scaled here).
"""

import pytest

from repro.bench.harness import per_rule_config
from repro.parallel import par_imp
from repro.reasoning import seq_imp

from conftest import run_once

K_SWEEP = (4, 6, 10)


@pytest.mark.parametrize("k", K_SWEEP)
def test_fig6i_seqimp(benchmark, synthetic_imp_by_k, k):
    workload = synthetic_imp_by_k[k]
    run_once(benchmark, seq_imp, workload.sigma, workload.phi)


@pytest.mark.parametrize("k", K_SWEEP)
def test_fig6i_parimp(benchmark, synthetic_imp_by_k, k):
    workload = synthetic_imp_by_k[k]
    run_once(benchmark, par_imp, workload.sigma, workload.phi, per_rule_config(workers=4))


def test_fig6i_verdicts_consistent(synthetic_imp_by_k):
    for workload in synthetic_imp_by_k.values():
        expected = seq_imp(workload.sigma, workload.phi).implied
        actual = par_imp(workload.sigma, workload.phi, per_rule_config(workers=4)).implied
        assert actual == expected
