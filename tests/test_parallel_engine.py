"""Tests for the simulated parallel runtime."""

import pytest

from repro.gfd.generator import random_gfds, straggler_workload
from repro.parallel import (
    RuntimeConfig,
    par_sat,
    par_sat_nb,
    par_sat_np,
)


class TestSimulatedCluster:
    def test_deterministic_runs(self, example4_sigma):
        config = RuntimeConfig(workers=3)
        first = par_sat(example4_sigma, config)
        second = par_sat(example4_sigma, config)
        assert first.satisfiable == second.satisfiable
        assert first.virtual_seconds == pytest.approx(second.virtual_seconds)
        assert first.outcome.units_executed == second.outcome.units_executed

    def test_virtual_time_decreases_with_workers(self):
        sigma = straggler_workload(
            num_anchor=1, num_seekers=2, num_background=15, anchor_size=9,
            seeker_length=4, seed=5,
        )
        times = []
        for p in (1, 2, 8):
            result = par_sat(sigma, RuntimeConfig(workers=p))
            assert result.satisfiable
            times.append(result.virtual_seconds)
        assert times[0] > times[1] > times[2]

    def test_early_termination_executes_fewer_units(self, example4_sigma):
        result = par_sat(example4_sigma, RuntimeConfig(workers=2))
        assert not result.satisfiable
        assert result.outcome.units_executed <= result.outcome.units_total

    def test_outcome_accounting(self, example4_sigma):
        result = par_sat(example4_sigma, RuntimeConfig(workers=2))
        outcome = result.outcome
        assert outcome.match_ticks > 0
        assert len(outcome.worker_busy) == 2
        assert outcome.load_imbalance >= 1.0

    def test_makespan_bounds_busy_without_early_termination(self):
        # The busy <= makespan invariant holds for completed runs; an
        # early-terminated run ends at the conflicting unit's completion
        # time, which may undercut another worker's eagerly-simulated batch.
        sigma = random_gfds(30, 4, 3, seed=8)
        result = par_sat(sigma, RuntimeConfig(workers=2))
        assert result.satisfiable
        outcome = result.outcome
        assert outcome.virtual_seconds >= max(outcome.worker_busy) - 1e-9

    def test_worker_busy_bounded_by_makespan(self):
        sigma = random_gfds(30, 4, 3, seed=8)
        result = par_sat(sigma, RuntimeConfig(workers=4))
        for busy in result.outcome.worker_busy:
            assert busy <= result.virtual_seconds + 1e-9

    def test_batching_reduces_overhead(self):
        # The fixed-batch ablation: batch size is exactly what was asked,
        # so bigger batches pay fewer per-round-trip overheads.
        sigma = random_gfds(60, 4, 3, seed=9)
        small = RuntimeConfig(workers=2, batch_size=1).without_affinity()
        big = RuntimeConfig(workers=2, batch_size=10).without_affinity()
        small_batches = par_sat(sigma, small)
        big_batches = par_sat(sigma, big)
        assert big_batches.virtual_seconds < small_batches.virtual_seconds

    def test_splitting_creates_units(self):
        sigma = straggler_workload(
            num_anchor=1, num_seekers=2, num_background=5, anchor_size=9,
            seeker_length=4, seed=5,
        )
        split = par_sat(sigma, RuntimeConfig(workers=4, ttl_seconds=0.05))
        unsplit = par_sat(sigma, RuntimeConfig(workers=4, ttl_seconds=None))
        assert split.outcome.splits > 0
        assert unsplit.outcome.splits == 0
        assert split.satisfiable == unsplit.satisfiable


class TestVariants:
    def test_np_disables_pipelining_not_verdict(self, example4_sigma):
        full = par_sat(example4_sigma, RuntimeConfig(workers=2))
        np_variant = par_sat_np(example4_sigma, RuntimeConfig(workers=2))
        assert full.satisfiable == np_variant.satisfiable

    def test_nb_disables_splitting_not_verdict(self, example4_sigma):
        full = par_sat(example4_sigma, RuntimeConfig(workers=2))
        nb_variant = par_sat_nb(example4_sigma, RuntimeConfig(workers=2))
        assert full.satisfiable == nb_variant.satisfiable
        assert nb_variant.outcome.splits == 0

    def test_np_never_faster_on_stragglers(self):
        sigma = straggler_workload(
            num_anchor=1, num_seekers=2, num_background=10, anchor_size=9,
            seeker_length=4, seed=5,
        )
        config = RuntimeConfig(workers=4)
        full = par_sat(sigma, config)
        np_variant = par_sat_np(sigma, config)
        assert np_variant.virtual_seconds >= full.virtual_seconds
