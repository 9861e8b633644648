"""Fig. 6(e) — satisfiability varying |Σ| (synthetic, k=6, l=5, p=4).

Paper shapes: all algorithms grow with |Σ|; ParSat beats SeqSat by ~3.14x
on average at p=4; SeqSat/ParSat take 1321/430 s at |Σ| = 10000 (we sweep
a ~20x-scaled range).
"""

import pytest

from repro.bench.harness import sequential_virtual_seconds
from repro.parallel import RuntimeConfig, par_sat, par_sat_nb, par_sat_np
from repro.reasoning import seq_sat

from conftest import run_once

SIZES = (50, 100, 200)


@pytest.mark.parametrize("size", SIZES)
def test_fig6e_seqsat(benchmark, synthetic_sat_by_size, size):
    result = run_once(benchmark, seq_sat, synthetic_sat_by_size[size].sigma)
    assert result.satisfiable


@pytest.mark.parametrize("size", SIZES)
def test_fig6e_parsat(benchmark, synthetic_sat_by_size, size):
    result = run_once(
        benchmark, par_sat, synthetic_sat_by_size[size].sigma, RuntimeConfig(workers=4)
    )
    assert result.satisfiable


@pytest.mark.parametrize("size", SIZES)
def test_fig6e_parsat_np(benchmark, synthetic_sat_by_size, size):
    run_once(benchmark, par_sat_np, synthetic_sat_by_size[size].sigma, RuntimeConfig(workers=4))


@pytest.mark.parametrize("size", SIZES)
def test_fig6e_parsat_nb(benchmark, synthetic_sat_by_size, size):
    run_once(benchmark, par_sat_nb, synthetic_sat_by_size[size].sigma, RuntimeConfig(workers=4))


def test_fig6e_shapes(synthetic_sat_by_size):
    """Growth with |Σ| and the ParSat-over-SeqSat factor (virtual clock)."""
    seq_costs = {
        size: sequential_virtual_seconds(seq_sat(workload.sigma))
        for size, workload in synthetic_sat_by_size.items()
    }
    assert seq_costs[50] < seq_costs[200]
    par_cost = par_sat(
        synthetic_sat_by_size[200].sigma, RuntimeConfig(workers=4)
    ).virtual_seconds
    assert seq_costs[200] / par_cost >= 2.0

