"""Fig. 6(c) — ParImp / ParImpnp / ParImpnb varying p (DBpedia workload).

Paper shapes: ParImp is ~3x faster from p=4 to 20; beats ParImpnb by ~4.1x
and ParImpnp by ~1.7x on average.
"""

import pytest

from repro.bench.harness import per_rule_config
from repro.parallel import par_imp, par_imp_nb, par_imp_np

from conftest import run_once

P_SWEEP = (4, 12, 20)


@pytest.mark.parametrize("p", P_SWEEP)
def test_fig6c_parimp(benchmark, imp_straggler_dbpedia, p):
    workload = imp_straggler_dbpedia
    run_once(benchmark, par_imp, workload.sigma, workload.phi, per_rule_config(workers=p))


@pytest.mark.parametrize("p", P_SWEEP)
def test_fig6c_parimp_np(benchmark, imp_straggler_dbpedia, p):
    workload = imp_straggler_dbpedia
    run_once(benchmark, par_imp_np, workload.sigma, workload.phi, per_rule_config(workers=p))


@pytest.mark.parametrize("p", P_SWEEP)
def test_fig6c_parimp_nb(benchmark, imp_straggler_dbpedia, p):
    workload = imp_straggler_dbpedia
    run_once(benchmark, par_imp_nb, workload.sigma, workload.phi, per_rule_config(workers=p))


def test_fig6c_shape(imp_straggler_dbpedia):
    workload = imp_straggler_dbpedia
    at_4 = par_imp(workload.sigma, workload.phi, per_rule_config(workers=4)).virtual_seconds
    at_20 = par_imp(workload.sigma, workload.phi, per_rule_config(workers=20)).virtual_seconds
    nb_20 = par_imp_nb(workload.sigma, workload.phi, per_rule_config(workers=20)).virtual_seconds
    assert at_4 / at_20 >= 2.5
    assert nb_20 / at_20 >= 2.0
