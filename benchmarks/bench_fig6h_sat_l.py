"""Fig. 6(h) — satisfiability varying literal count l (k=5, p=4).

Paper shape: all algorithms are "not very sensitive to l" — more literals
cost a bit more to process but also terminate some work earlier.
"""

import pytest

from repro.bench.harness import per_rule_config, sequential_virtual_seconds
from repro.parallel import par_sat
from repro.reasoning import seq_sat

from conftest import run_once

L_SWEEP = (1, 3, 5)


@pytest.mark.parametrize("l", L_SWEEP)
def test_fig6h_seqsat(benchmark, synthetic_sat_by_l, l):
    result = run_once(benchmark, seq_sat, synthetic_sat_by_l[l].sigma)
    assert result.satisfiable


@pytest.mark.parametrize("l", L_SWEEP)
def test_fig6h_parsat(benchmark, synthetic_sat_by_l, l):
    run_once(benchmark, par_sat, synthetic_sat_by_l[l].sigma, per_rule_config(workers=4))


def test_fig6h_insensitive_to_l(synthetic_sat_by_l):
    """l changes runtime far less than |Σ| or k do (within ~6x across the
    sweep, versus orders of magnitude for k)."""
    costs = [
        sequential_virtual_seconds(seq_sat(workload.sigma))
        for workload in synthetic_sat_by_l.values()
    ]
    assert max(costs) / min(costs) < 6.0
