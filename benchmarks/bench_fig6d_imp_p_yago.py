"""Fig. 6(d) — ParImp / ParImpnp / ParImpnb varying p (YAGO2 workload)."""

import pytest

from repro.bench.harness import per_rule_config
from repro.parallel import par_imp, par_imp_nb, par_imp_np

from conftest import run_once

P_SWEEP = (4, 12, 20)


@pytest.mark.parametrize("p", P_SWEEP)
def test_fig6d_parimp(benchmark, imp_straggler_yago, p):
    workload = imp_straggler_yago
    run_once(benchmark, par_imp, workload.sigma, workload.phi, per_rule_config(workers=p))


@pytest.mark.parametrize("p", P_SWEEP)
def test_fig6d_parimp_np(benchmark, imp_straggler_yago, p):
    workload = imp_straggler_yago
    run_once(benchmark, par_imp_np, workload.sigma, workload.phi, per_rule_config(workers=p))


@pytest.mark.parametrize("p", P_SWEEP)
def test_fig6d_parimp_nb(benchmark, imp_straggler_yago, p):
    workload = imp_straggler_yago
    run_once(benchmark, par_imp_nb, workload.sigma, workload.phi, per_rule_config(workers=p))


def test_fig6d_shape(imp_straggler_yago):
    workload = imp_straggler_yago
    at_4 = par_imp(workload.sigma, workload.phi, per_rule_config(workers=4)).virtual_seconds
    at_20 = par_imp(workload.sigma, workload.phi, per_rule_config(workers=20)).virtual_seconds
    assert at_4 / at_20 >= 2.5
