"""Fig. 6(j) — implication varying literal count l (k=5, p=4).

Paper shape: insensitive to l, like Fig. 6(h).
"""

import pytest

from repro.bench.harness import per_rule_config
from repro.parallel import par_imp
from repro.reasoning import seq_imp

from conftest import run_once

L_SWEEP = (1, 3, 5)


@pytest.mark.parametrize("l", L_SWEEP)
def test_fig6j_seqimp(benchmark, synthetic_imp_by_l, l):
    workload = synthetic_imp_by_l[l]
    run_once(benchmark, seq_imp, workload.sigma, workload.phi)


@pytest.mark.parametrize("l", L_SWEEP)
def test_fig6j_parimp(benchmark, synthetic_imp_by_l, l):
    workload = synthetic_imp_by_l[l]
    run_once(benchmark, par_imp, workload.sigma, workload.phi, per_rule_config(workers=4))
