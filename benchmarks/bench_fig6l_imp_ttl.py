"""Fig. 6(l) — ParImp / ParImpnp varying the straggler threshold TTL (p=4).

Paper shape: same interior-optimum story as Fig. 6(k) for implication.
"""

import pytest

from repro.bench.harness import per_rule_config
from repro.parallel import par_imp, par_imp_np

from conftest import run_once

TTL_SWEEP = (0.1, 0.5, 2.0, 8.0)


@pytest.mark.parametrize("ttl", TTL_SWEEP)
def test_fig6l_parimp(benchmark, imp_straggler_dbpedia, ttl):
    workload = imp_straggler_dbpedia
    run_once(
        benchmark,
        par_imp,
        workload.sigma,
        workload.phi,
        per_rule_config(workers=4, ttl_seconds=ttl),
    )


@pytest.mark.parametrize("ttl", TTL_SWEEP)
def test_fig6l_parimp_np(benchmark, imp_straggler_dbpedia, ttl):
    workload = imp_straggler_dbpedia
    run_once(
        benchmark,
        par_imp_np,
        workload.sigma,
        workload.phi,
        per_rule_config(workers=4, ttl_seconds=ttl),
    )


def test_fig6l_np_always_slower(imp_straggler_dbpedia):
    workload = imp_straggler_dbpedia
    for ttl in (0.5, 2.0):
        config = per_rule_config(workers=4, ttl_seconds=ttl)
        full = par_imp(workload.sigma, workload.phi, config).virtual_seconds
        no_pipeline = par_imp_np(workload.sigma, workload.phi, config).virtual_seconds
        assert no_pipeline >= full
