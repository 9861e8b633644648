"""Cross-algorithm equivalence: ParSat/ParImp agree with SeqSat/SeqImp.

These are the core correctness tests for the parallel algorithms: across
randomized GFD sets (satisfiable and unsatisfiable, with and without
interaction chains), every runtime, worker count and ablation variant must
return the sequential verdict — the paper's Church-Rosser property under
data-partitioned parallelism.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import seq_imp, seq_sat
from repro.gfd.generator import add_random_conflicts, conflict_chain, random_gfds
from repro.parallel import (
    RuntimeConfig,
    par_imp,
    par_imp_nb,
    par_imp_np,
    par_sat,
    par_sat_nb,
    par_sat_np,
)


class TestPaperExamplesParallel:
    def test_example2(self, example2_conflicting, example2_cross_pattern):
        for sigma in (example2_conflicting, example2_cross_pattern):
            for p in (1, 2, 5):
                assert not par_sat(sigma, RuntimeConfig(workers=p)).satisfiable

    def test_example4(self, example4_sigma):
        result = par_sat(example4_sigma, RuntimeConfig(workers=3))
        assert not result.satisfiable
        assert result.conflict is not None

    def test_example8(self, example8_sigma, example8_phi13, example8_phi14):
        r13 = par_imp(example8_sigma, example8_phi13, RuntimeConfig(workers=2))
        assert r13.implied and r13.reason == "derived"
        r14 = par_imp(example8_sigma, example8_phi14, RuntimeConfig(workers=2))
        assert r14.implied and r14.reason == "conflict"

    def test_trivial_imp_cases_parallel(self):
        from repro.gfd import make_gfd, make_pattern
        from repro.gfd.literals import eq

        pattern = make_pattern({"x": "a"})
        trivial_y = make_gfd(pattern, [eq("x", "A", 1)], [])
        assert par_imp([], trivial_y).reason == "trivial-Y"
        bad_x = make_gfd(
            make_pattern({"x": "a"}), [eq("x", "A", 1), eq("x", "A", 2)], [eq("x", "B", 1)]
        )
        assert par_imp([], bad_x).reason == "trivial-X"


class TestConflictChains:
    @pytest.mark.parametrize("length", [2, 4, 6])
    def test_chain_detected_by_all_variants(self, length):
        sigma = conflict_chain(length)
        config = RuntimeConfig(workers=3)
        assert not par_sat(sigma, config).satisfiable
        assert not par_sat_np(sigma, config).satisfiable
        assert not par_sat_nb(sigma, config).satisfiable

    def test_chain_minus_link_satisfiable_parallel(self):
        sigma = conflict_chain(4)[:-1]
        assert par_sat(sigma, RuntimeConfig(workers=3)).satisfiable


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2, 4]))
def test_parsat_matches_seqsat_consistent(seed, workers):
    sigma = random_gfds(10, max_pattern_nodes=4, max_literals=3, seed=seed)
    expected = seq_sat(sigma).satisfiable
    assert par_sat(sigma, RuntimeConfig(workers=workers)).satisfiable == expected


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 3]))
def test_parsat_matches_seqsat_inconsistent_mode(seed, workers):
    """Random inconsistent-mode sets: verdict may be either way, but the
    parallel one must agree, across all variants."""
    sigma = random_gfds(
        10, max_pattern_nodes=4, max_literals=3, seed=seed, consistent=False
    )
    expected = seq_sat(sigma).satisfiable
    config = RuntimeConfig(workers=workers)
    assert par_sat(sigma, config).satisfiable == expected
    assert par_sat_np(sigma, config).satisfiable == expected
    assert par_sat_nb(sigma, config).satisfiable == expected


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_parsat_matches_seqsat_with_conflicts(seed):
    sigma = add_random_conflicts(
        random_gfds(8, max_pattern_nodes=4, max_literals=3, seed=seed),
        num_conflicts=4,
        seed=seed,
    )
    expected = seq_sat(sigma).satisfiable
    assert par_sat(sigma, RuntimeConfig(workers=3)).satisfiable == expected


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2, 4]))
def test_parimp_matches_seqimp(seed, workers):
    sigma = random_gfds(
        8, max_pattern_nodes=4, max_literals=3, seed=seed, consistent=False
    )
    phi = random_gfds(
        1, max_pattern_nodes=4, max_literals=3, seed=seed + 77, consistent=False
    )[0]
    expected = seq_imp(sigma, phi).implied
    config = RuntimeConfig(workers=workers)
    assert par_imp(sigma, phi, config).implied == expected
    assert par_imp_np(sigma, phi, config).implied == expected
    assert par_imp_nb(sigma, phi, config).implied == expected


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_parimp_member_of_sigma_implied(seed):
    sigma = random_gfds(6, max_pattern_nodes=4, max_literals=3, seed=seed, consistent=False)
    phi = sigma[seed % len(sigma)]
    assert par_imp(sigma, phi, RuntimeConfig(workers=2)).implied
