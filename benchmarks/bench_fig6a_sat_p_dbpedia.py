"""Fig. 6(a) — ParSat / ParSatnp / ParSatnb varying p (DBpedia workload).

Paper shapes: ParSat is ~3.7x faster from p=4 to p=20; beats ParSatnb by up
to 5.3x and ParSatnp by ~1.5x at p=20. Benchmarks measure wall time of the
simulated run; the virtual-seconds series for the figure itself comes from
``benchmarks/run_report.py`` (recorded in EXPERIMENTS.md).
"""

import pytest

from repro.bench.harness import per_rule_config
from repro.parallel import par_sat, par_sat_nb, par_sat_np

from conftest import run_once

P_SWEEP = (4, 12, 20)


@pytest.mark.parametrize("p", P_SWEEP)
def test_fig6a_parsat(benchmark, straggler_sigma_dbpedia, p):
    result = run_once(
        benchmark, par_sat, straggler_sigma_dbpedia, per_rule_config(workers=p)
    )
    assert result.satisfiable


@pytest.mark.parametrize("p", P_SWEEP)
def test_fig6a_parsat_np(benchmark, straggler_sigma_dbpedia, p):
    run_once(benchmark, par_sat_np, straggler_sigma_dbpedia, per_rule_config(workers=p))


@pytest.mark.parametrize("p", P_SWEEP)
def test_fig6a_parsat_nb(benchmark, straggler_sigma_dbpedia, p):
    run_once(benchmark, par_sat_nb, straggler_sigma_dbpedia, per_rule_config(workers=p))


def test_fig6a_shape_parsat_scales(straggler_sigma_dbpedia):
    """Non-benchmark shape assertion: ParSat time drops as p grows and
    beats both ablation variants at p=20 (virtual clock)."""
    at_4 = par_sat(straggler_sigma_dbpedia, per_rule_config(workers=4)).virtual_seconds
    at_20 = par_sat(straggler_sigma_dbpedia, per_rule_config(workers=20)).virtual_seconds
    nb_20 = par_sat_nb(straggler_sigma_dbpedia, per_rule_config(workers=20)).virtual_seconds
    np_20 = par_sat_np(straggler_sigma_dbpedia, per_rule_config(workers=20)).virtual_seconds
    assert at_4 / at_20 >= 2.5
    assert nb_20 / at_20 >= 2.0
    assert np_20 / at_20 >= 1.2
