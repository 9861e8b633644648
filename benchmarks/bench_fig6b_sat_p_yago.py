"""Fig. 6(b) — ParSat / ParSatnp / ParSatnb varying p (YAGO2 workload).

Paper shapes: same as Fig. 6(a) on the YAGO2-mined rules — ParSat ~3.2x
faster from p=4 to 20, beats nb by ~4.8x and np by ~1.6x at p=20.
"""

import pytest

from repro.bench.harness import per_rule_config
from repro.parallel import par_sat, par_sat_nb, par_sat_np

from conftest import run_once

P_SWEEP = (4, 12, 20)


@pytest.mark.parametrize("p", P_SWEEP)
def test_fig6b_parsat(benchmark, straggler_sigma_yago, p):
    result = run_once(benchmark, par_sat, straggler_sigma_yago, per_rule_config(workers=p))
    assert result.satisfiable


@pytest.mark.parametrize("p", P_SWEEP)
def test_fig6b_parsat_np(benchmark, straggler_sigma_yago, p):
    run_once(benchmark, par_sat_np, straggler_sigma_yago, per_rule_config(workers=p))


@pytest.mark.parametrize("p", P_SWEEP)
def test_fig6b_parsat_nb(benchmark, straggler_sigma_yago, p):
    run_once(benchmark, par_sat_nb, straggler_sigma_yago, per_rule_config(workers=p))


def test_fig6b_shape(straggler_sigma_yago):
    at_4 = par_sat(straggler_sigma_yago, per_rule_config(workers=4)).virtual_seconds
    at_20 = par_sat(straggler_sigma_yago, per_rule_config(workers=20)).virtual_seconds
    assert at_4 / at_20 >= 2.5
