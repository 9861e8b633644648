"""One function per table/figure of the paper's evaluation (Section VII).

Every function builds the scaled workload, runs the relevant algorithms and
returns an :class:`~repro.bench.harness.Experiment` whose series mirror the
lines of the original figure. All times are **virtual seconds** on the
shared cost model (sequential algorithms are priced with the same model the
simulated cluster charges), so sequential and parallel numbers are directly
comparable — see DESIGN.md for the cluster substitution rationale.

Defaults are sized to finish in seconds per figure; pass larger sweeps for
higher-fidelity runs (EXPERIMENTS.md records both the defaults used and
the paper's reference values).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..chase.rdf import rdf_imp
from ..parallel.config import RuntimeConfig
from ..parallel.parimp import par_imp, par_imp_nb, par_imp_np
from ..parallel.parsat import par_sat, par_sat_nb, par_sat_np
from ..reasoning.seqimp import seq_imp
from ..reasoning.seqsat import seq_sat
from .harness import (
    DEFAULT_K_SWEEP,
    DEFAULT_L_SWEEP,
    DEFAULT_P_SWEEP,
    DEFAULT_SIGMA_SWEEP,
    DEFAULT_TTL_SWEEP,
    Experiment,
    ImpWorkload,
    SatWorkload,
    implication_workload,
    mined_implication_workload,
    mined_workload,
    parallel_sat_workload,
    sequential_virtual_seconds,
    synthetic_imp_sweep,
    synthetic_imp_workload,
    synthetic_sat_sweep,
    synthetic_sat_workload,
)

DATASETS = ("dbpedia", "yago2", "pokec")


# ----------------------------------------------------------------------
# Fig. 5 — sequential running time on real-life GFDs
# ----------------------------------------------------------------------
def fig5_sequential(
    mined_count: int = 60,
    num_nodes: int = 1000,
    seed: int = 7,
    datasets: Sequence[str] = DATASETS,
) -> Experiment:
    """SeqSat / SeqImp / ParImpRDF per dataset (the paper's Fig. 5 table).

    Paper reference (seconds): SeqSat 1728/1341/2475, SeqImp 728/644/1355,
    ParImpRDF 1026/987/1907 on DBpedia/YAGO2/Pokec — SeqImp beats the RDF
    chase baseline by ~1.4–1.5x everywhere.
    """
    experiment = Experiment(
        "fig5",
        "Sequential running time on mined GFDs (virtual seconds)",
        "dataset",
        notes="mined rule sets are scaled ~100x down from the paper's 6000-10000",
    )
    for dataset in datasets:
        sat_load = mined_workload(dataset, mined_count, num_nodes, with_conflicts=False, seed=seed)
        sat_result = seq_sat(sat_load.sigma)
        experiment.series_named("SeqSat").add(dataset, sequential_virtual_seconds(sat_result))
        # Implication: aggregate over several mined targets (cover-style
        # checks φ ∈ Σ against the rest), averaging out per-instance noise.
        sigma = sat_load.sigma
        num_targets = min(10, max(1, len(sigma) // 4))
        seq_total = 0.0
        rdf_total = 0.0
        for phi in sigma[-num_targets:]:
            rest = [gfd for gfd in sigma if gfd.name != phi.name]
            seq_total += sequential_virtual_seconds(seq_imp(rest, phi))
            rdf_total += sequential_virtual_seconds(rdf_imp(rest, phi))
        experiment.series_named("SeqImp").add(dataset, seq_total)
        experiment.series_named("ParImpRDF").add(dataset, rdf_total)
    return experiment


# ----------------------------------------------------------------------
# Fig. 6(a)/(b) — ParSat variants varying p
# ----------------------------------------------------------------------
def fig6ab_sat_varying_p(
    dataset: str = "dbpedia",
    p_sweep: Sequence[int] = DEFAULT_P_SWEEP,
    ttl_seconds: float = 2.0,
    seed: int = 7,
    backend: str = "simulated",
) -> Experiment:
    """ParSat vs ParSatnp vs ParSatnb as ``p`` grows (Fig. 6(a) DBpedia,
    Fig. 6(b) YAGO2). Paper: ParSat speeds up 3.2–3.7x from p=4 to 20 and
    beats nb by up to 5.3x, np by ~1.5x.

    *backend* selects the execution runtime; with ``'process'`` the
    y-axis is wall seconds instead of virtual seconds.
    """
    workload = parallel_sat_workload(dataset, seed=seed)
    figure = "fig6a" if dataset == "dbpedia" else "fig6b"
    clock = "virtual" if backend == "simulated" else f"{backend} wall"
    experiment = Experiment(
        figure, f"ParSat variants varying p ({dataset})", "p",
        notes=f"TTL={ttl_seconds}s ({clock}); straggler-heavy satisfiable workload",
    )
    for p in p_sweep:
        config = RuntimeConfig(workers=p, ttl_seconds=ttl_seconds)
        experiment.series_named("ParSat").add(
            p, par_sat(workload.sigma, config, backend=backend).virtual_seconds)
        experiment.series_named("ParSatnp").add(
            p, par_sat_np(workload.sigma, config, backend=backend).virtual_seconds)
        experiment.series_named("ParSatnb").add(
            p, par_sat_nb(workload.sigma, config, backend=backend).virtual_seconds)
    return experiment


# ----------------------------------------------------------------------
# Fig. 6(c)/(d) — ParImp variants varying p
# ----------------------------------------------------------------------
def fig6cd_imp_varying_p(
    dataset: str = "dbpedia",
    p_sweep: Sequence[int] = DEFAULT_P_SWEEP,
    ttl_seconds: float = 2.0,
    seed: int = 7,
    backend: str = "simulated",
) -> Experiment:
    """ParImp vs ParImpnp vs ParImpnb as ``p`` grows (Fig. 6(c)/(d)).
    Paper: ParImp is ~3x faster from p=4 to 20; beats nb by ~4.1x, np by
    ~1.7x on average.

    *backend* selects the execution runtime; with ``'process'`` the
    y-axis is wall seconds instead of virtual seconds.
    """
    offsets = {"dbpedia": 0, "yago2": 1, "pokec": 2}
    workload = implication_workload(seed=seed + offsets.get(dataset, 9))
    figure = "fig6c" if dataset == "dbpedia" else "fig6d"
    clock = "virtual" if backend == "simulated" else f"{backend} wall"
    experiment = Experiment(
        figure, f"ParImp variants varying p ({dataset})", "p",
        notes=f"TTL={ttl_seconds}s ({clock}); underivable target (full enumeration)",
    )
    for p in p_sweep:
        config = RuntimeConfig(workers=p, ttl_seconds=ttl_seconds)
        experiment.series_named("ParImp").add(
            p, par_imp(workload.sigma, workload.phi, config, backend=backend).virtual_seconds)
        experiment.series_named("ParImpnp").add(
            p, par_imp_np(workload.sigma, workload.phi, config, backend=backend).virtual_seconds)
        experiment.series_named("ParImpnb").add(
            p, par_imp_nb(workload.sigma, workload.phi, config, backend=backend).virtual_seconds)
    return experiment


# ----------------------------------------------------------------------
# Fig. 6(e)/(f) — varying |Σ| (synthetic, k=6, l=5, p=4)
# ----------------------------------------------------------------------
def fig6e_sat_varying_sigma(
    sigma_sweep: Sequence[int] = DEFAULT_SIGMA_SWEEP,
    workers: int = 4,
    seed: int = 42,
) -> Experiment:
    """SeqSat / ParSat / ParSatnp / ParSatnb as ``|Σ|`` grows (Fig. 6(e)).
    Paper: all grow with |Σ|; ParSat beats SeqSat ~3.14x at p=4. SeqSat
    matches all of Σ in one shared-prefix plan trie walk; its comparison
    with a per-rule loop is recorded in ``BENCH_ruleset.json``. Sweep
    points are prefixes of one rule set, so growth in |Σ| is measured on
    supersets."""
    experiment = Experiment(
        "fig6e", "Satisfiability varying |Σ| (synthetic, k=6, l=5)", "|Σ|",
        notes=f"p={workers}; |Σ| sweep scaled ~20x down from the paper's 2000-10000",
    )
    sweep = synthetic_sat_sweep(tuple(sigma_sweep), k=6, l=5, seed=seed)
    for size in sigma_sweep:
        workload = sweep[size]
        config = RuntimeConfig(workers=workers)
        seq_result = seq_sat(workload.sigma)
        experiment.series_named("SeqSat").add(size, sequential_virtual_seconds(seq_result))
        experiment.series_named("ParSat").add(size, par_sat(workload.sigma, config).virtual_seconds)
        experiment.series_named("ParSatnp").add(size, par_sat_np(workload.sigma, config).virtual_seconds)
        experiment.series_named("ParSatnb").add(size, par_sat_nb(workload.sigma, config).virtual_seconds)
    return experiment


def fig6f_imp_varying_sigma(
    sigma_sweep: Sequence[int] = DEFAULT_SIGMA_SWEEP,
    workers: int = 4,
    seed: int = 42,
) -> Experiment:
    """SeqImp / ParImp / variants / ParImpRDF as ``|Σ|`` grows (Fig. 6(f)).
    Paper: ParImp ~3.1x over SeqImp and ~4.8x over ParImpRDF on average.
    Sweep points are prefixes of one rule set. The RDF baseline runs
    the chordless-seeker variant of the same sweep (the naive reified
    chase is exponential on chord seekers — see
    ``synthetic_imp_workload``), which narrows, never widens, the measured
    ParImp-over-RDF gap."""
    experiment = Experiment(
        "fig6f", "Implication varying |Σ| (synthetic, k=6, l=5)", "|Σ|",
        notes=f"p={workers}; ParImpRDF on the chordless-seeker variant",
    )
    sweep = synthetic_imp_sweep(tuple(sigma_sweep), k=6, l=5, seed=seed)
    rdf_sweep = synthetic_imp_sweep(
        tuple(sigma_sweep), k=6, l=5, seed=seed, seeker_chords=0
    )
    for size in sigma_sweep:
        workload = sweep[size]
        config = RuntimeConfig(workers=workers)
        seq_result = seq_imp(workload.sigma, workload.phi)
        experiment.series_named("SeqImp").add(size, sequential_virtual_seconds(seq_result))
        experiment.series_named("ParImp").add(
            size, par_imp(workload.sigma, workload.phi, config).virtual_seconds)
        experiment.series_named("ParImpnp").add(
            size, par_imp_np(workload.sigma, workload.phi, config).virtual_seconds)
        experiment.series_named("ParImpnb").add(
            size, par_imp_nb(workload.sigma, workload.phi, config).virtual_seconds)
        rdf_workload = rdf_sweep[size]
        rdf_result = rdf_imp(rdf_workload.sigma, rdf_workload.phi)
        experiment.series_named("ParImpRDF").add(size, sequential_virtual_seconds(rdf_result))
    return experiment


# ----------------------------------------------------------------------
# Fig. 6(g)–(j) — impact of GFD complexity (k and l)
# ----------------------------------------------------------------------
def fig6g_sat_varying_k(
    k_sweep: Sequence[int] = DEFAULT_K_SWEEP,
    sigma_size: int = 150,
    workers: int = 4,
    seed: int = 42,
) -> Experiment:
    """Satisfiability vs pattern size ``k`` (Fig. 6(g), l=3, p=4).
    Paper: time grows with k; optimizations matter more at large k."""
    experiment = Experiment(
        "fig6g", "Satisfiability varying pattern size k", "k",
        notes=f"|Σ|={sigma_size}, l=3, p={workers}",
    )
    for k in k_sweep:
        workload = synthetic_sat_workload(
            sigma_size, k=k, l=3, seed=seed, num_labels=6, near_k=True
        )
        config = RuntimeConfig(workers=workers)
        seq_result = seq_sat(workload.sigma)
        experiment.series_named("SeqSat").add(k, sequential_virtual_seconds(seq_result))
        experiment.series_named("ParSat").add(k, par_sat(workload.sigma, config).virtual_seconds)
        experiment.series_named("ParSatnp").add(k, par_sat_np(workload.sigma, config).virtual_seconds)
        experiment.series_named("ParSatnb").add(k, par_sat_nb(workload.sigma, config).virtual_seconds)
    return experiment


def fig6h_sat_varying_l(
    l_sweep: Sequence[int] = DEFAULT_L_SWEEP,
    sigma_size: int = 150,
    workers: int = 4,
    seed: int = 42,
) -> Experiment:
    """Satisfiability vs literal count ``l`` (Fig. 6(h), k=5, p=4).
    Paper: not very sensitive to l."""
    experiment = Experiment(
        "fig6h", "Satisfiability varying literal count l", "l",
        notes=f"|Σ|={sigma_size}, k=5, p={workers}",
    )
    for l in l_sweep:
        workload = synthetic_sat_workload(sigma_size, k=5, l=l, seed=seed)
        config = RuntimeConfig(workers=workers)
        seq_result = seq_sat(workload.sigma)
        experiment.series_named("SeqSat").add(l, sequential_virtual_seconds(seq_result))
        experiment.series_named("ParSat").add(l, par_sat(workload.sigma, config).virtual_seconds)
        experiment.series_named("ParSatnp").add(l, par_sat_np(workload.sigma, config).virtual_seconds)
        experiment.series_named("ParSatnb").add(l, par_sat_nb(workload.sigma, config).virtual_seconds)
    return experiment


def fig6i_imp_varying_k(
    k_sweep: Sequence[int] = DEFAULT_K_SWEEP,
    sigma_size: int = 150,
    workers: int = 4,
    seed: int = 42,
) -> Experiment:
    """Implication vs pattern size ``k`` (Fig. 6(i), l=3, p=4)."""
    experiment = Experiment(
        "fig6i", "Implication varying pattern size k", "k",
        notes=f"|Σ|={sigma_size}, l=3, p={workers}",
    )
    for k in k_sweep:
        workload = synthetic_imp_workload(sigma_size, k=k, l=3, seed=seed)
        config = RuntimeConfig(workers=workers)
        seq_result = seq_imp(workload.sigma, workload.phi)
        experiment.series_named("SeqImp").add(k, sequential_virtual_seconds(seq_result))
        experiment.series_named("ParImp").add(
            k, par_imp(workload.sigma, workload.phi, config).virtual_seconds)
        experiment.series_named("ParImpnp").add(
            k, par_imp_np(workload.sigma, workload.phi, config).virtual_seconds)
        experiment.series_named("ParImpnb").add(
            k, par_imp_nb(workload.sigma, workload.phi, config).virtual_seconds)
    return experiment


def fig6j_imp_varying_l(
    l_sweep: Sequence[int] = DEFAULT_L_SWEEP,
    sigma_size: int = 150,
    workers: int = 4,
    seed: int = 42,
) -> Experiment:
    """Implication vs literal count ``l`` (Fig. 6(j), k=5, p=4)."""
    experiment = Experiment(
        "fig6j", "Implication varying literal count l", "l",
        notes=f"|Σ|={sigma_size}, k=5, p={workers}",
    )
    for l in l_sweep:
        workload = synthetic_imp_workload(sigma_size, k=5, l=l, seed=seed)
        config = RuntimeConfig(workers=workers)
        seq_result = seq_imp(workload.sigma, workload.phi)
        experiment.series_named("SeqImp").add(l, sequential_virtual_seconds(seq_result))
        experiment.series_named("ParImp").add(
            l, par_imp(workload.sigma, workload.phi, config).virtual_seconds)
        experiment.series_named("ParImpnp").add(
            l, par_imp_np(workload.sigma, workload.phi, config).virtual_seconds)
        experiment.series_named("ParImpnb").add(
            l, par_imp_nb(workload.sigma, workload.phi, config).virtual_seconds)
    return experiment


# ----------------------------------------------------------------------
# Fig. 6(k)/(l) — impact of the straggler threshold TTL
# ----------------------------------------------------------------------
def fig6k_sat_varying_ttl(
    ttl_sweep: Sequence[float] = DEFAULT_TTL_SWEEP,
    workers: int = 4,
    seed: int = 7,
) -> Experiment:
    """ParSat / ParSatnp across TTL values (Fig. 6(k), p=4).
    Paper: cost has an interior optimum (TTL=2): tiny TTL over-splits
    (message overhead), huge TTL under-splits (imbalance)."""
    from ..gfd.generator import straggler_workload

    # Concentrated stragglers: at p=4 the largest unit exceeds the ideal
    # per-worker share, so under-splitting (large TTL) costs real time.
    sigma = straggler_workload(
        num_anchor=1, num_seekers=2, num_background=25, seed=seed
    )
    workload = SatWorkload("ttl-stragglers", sigma, expected_satisfiable=True)
    experiment = Experiment(
        "fig6k", "ParSat varying TTL (straggler splitting)", "TTL(s)",
        notes=f"p={workers}; straggler-heavy satisfiable workload",
    )
    for ttl in ttl_sweep:
        config = RuntimeConfig(workers=workers, ttl_seconds=ttl)
        experiment.series_named("ParSat").add(ttl, par_sat(workload.sigma, config).virtual_seconds)
        experiment.series_named("ParSatnp").add(ttl, par_sat_np(workload.sigma, config).virtual_seconds)
    return experiment


def fig6l_imp_varying_ttl(
    ttl_sweep: Sequence[float] = DEFAULT_TTL_SWEEP,
    workers: int = 4,
    seed: int = 42,
) -> Experiment:
    """ParImp / ParImpnp across TTL values (Fig. 6(l), p=4)."""
    workload = implication_workload(seed=seed)
    experiment = Experiment(
        "fig6l", "ParImp varying TTL (straggler splitting)", "TTL(s)",
        notes=f"p={workers}",
    )
    for ttl in ttl_sweep:
        config = RuntimeConfig(workers=workers, ttl_seconds=ttl)
        experiment.series_named("ParImp").add(
            ttl, par_imp(workload.sigma, workload.phi, config).virtual_seconds)
        experiment.series_named("ParImpnp").add(
            ttl, par_imp_np(workload.sigma, workload.phi, config).virtual_seconds)
    return experiment


#: Registry used by the ``run_all`` driver and EXPERIMENTS.md generation.
ALL_EXPERIMENTS = {
    "fig5": fig5_sequential,
    "fig6a": lambda: fig6ab_sat_varying_p("dbpedia"),
    "fig6b": lambda: fig6ab_sat_varying_p("yago2"),
    "fig6c": lambda: fig6cd_imp_varying_p("dbpedia"),
    "fig6d": lambda: fig6cd_imp_varying_p("yago2"),
    "fig6e": fig6e_sat_varying_sigma,
    "fig6f": fig6f_imp_varying_sigma,
    "fig6g": fig6g_sat_varying_k,
    "fig6h": fig6h_sat_varying_l,
    "fig6i": fig6i_imp_varying_k,
    "fig6j": fig6j_imp_varying_l,
    "fig6k": fig6k_sat_varying_ttl,
    "fig6l": fig6l_imp_varying_ttl,
}


def run_all(experiment_ids: Optional[Sequence[str]] = None) -> list:
    """Run (a subset of) all experiments and return their objects."""
    ids = list(experiment_ids) if experiment_ids is not None else list(ALL_EXPERIMENTS)
    results = []
    for experiment_id in ids:
        factory = ALL_EXPERIMENTS[experiment_id]
        results.append(factory())
    return results
