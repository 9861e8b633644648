"""Fig. 6(k) — ParSat / ParSatnp varying the straggler threshold TTL (p=4).

Paper shapes: an interior optimum — small TTL over-splits (message and
scheduling overhead), large TTL under-splits (load imbalance); the paper's
optimum is TTL = 2 s on its cluster, ours sits at ~0.5–2 virtual seconds.
"""

import pytest

from repro.bench.harness import per_rule_config
from repro.parallel import par_sat, par_sat_np

from conftest import run_once

TTL_SWEEP = (0.1, 0.5, 2.0, 8.0)


@pytest.mark.parametrize("ttl", TTL_SWEEP)
def test_fig6k_parsat(benchmark, ttl_sigma, ttl):
    result = run_once(
        benchmark, par_sat, ttl_sigma, per_rule_config(workers=4, ttl_seconds=ttl)
    )
    assert result.satisfiable


@pytest.mark.parametrize("ttl", TTL_SWEEP)
def test_fig6k_parsat_np(benchmark, ttl_sigma, ttl):
    run_once(benchmark, par_sat_np, ttl_sigma, per_rule_config(workers=4, ttl_seconds=ttl))


def test_fig6k_interior_optimum(ttl_sigma):
    """Both sweep extremes are worse than the interior (virtual clock)."""
    times = {
        ttl: par_sat(ttl_sigma, per_rule_config(workers=4, ttl_seconds=ttl)).virtual_seconds
        for ttl in (0.1, 0.5, 2.0, 8.0)
    }
    best_interior = min(times[0.5], times[2.0])
    assert times[0.1] > best_interior
    assert times[8.0] > best_interior
