"""Benchmark harness: workload construction and paper-style reporting.

Each experiment of the paper (Fig. 5 table, Fig. 6(a)–(l)) has a function
in :mod:`repro.bench.experiments` returning :class:`Series` objects; this
module holds the shared machinery: workload builders (mined rule sets per
dataset, synthetic ``(|Σ|, k, l)`` sweeps, straggler workloads), virtual
cost accounting for the *sequential* algorithms (so sequential and parallel
numbers live on the same virtual-seconds axis), and plain-text rendering of
rows/series the way the paper's tables and figure captions report them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..chase.gfd_chase import ChaseResult
from ..datasets.synthetic import load_dataset
from ..gfd.gfd import GFD
from ..gfd.generator import (
    GFDGenerator,
    GFDVocabulary,
    add_random_conflicts,
    mine_gfds,
    random_gfds,
    straggler_workload,
)
from ..gfd.literals import ConstantLiteral, VariableLiteral
from ..gfd.pattern import Pattern
from ..gfd.gfd import make_gfd
from ..graph.elements import WILDCARD
from ..parallel.config import CostModel, RuntimeConfig

#: Scaled-down counterparts of the paper's workload sizes. The paper mines
#: 8000/6000/10000 GFDs and sweeps |Σ| to 10000 on a 20-machine Java
#: cluster; pure-Python matching is orders of magnitude slower, so default
#: sweeps are scaled by ~20x while preserving every shape.
DEFAULT_MINED_COUNT = 80
DEFAULT_SIGMA_SWEEP = (100, 200, 300, 400, 500)
DEFAULT_P_SWEEP = (4, 8, 12, 16, 20)
DEFAULT_K_SWEEP = (4, 6, 8, 10)  # the paper varies k from 4 to 10 (Exp-3)
DEFAULT_L_SWEEP = (1, 2, 3, 4, 5)
DEFAULT_TTL_SWEEP = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)

#: Synthetic implication sweeps place one path "seeker" every this many
#: rules, so prefix slices of Σ keep the seeker fraction constant.
SEEKER_SPACING = 25
#: Cycle-closing chord edges per seeker: the walk's last node must reach
#: back to this many of the first nodes. Late-failing chords keep the
#: search tree large and the match count small — matching-dominated cost.
SEEKER_CHORDS = 4


#: The unit shape of every parallel series, named in its notes.
PER_RULE_UNITS = "per-rule units"


def per_rule_config(**kwargs) -> RuntimeConfig:
    """A runtime config on the paper's per-rule work units ``(Q[z], φ)``.

    ParSat/ParImp ship one unit per (GFD, pivot). Grouped units, the
    library default, share trie prefixes across rules and so shift the
    ablation ratios the Fig. 6 series reproduce: every parallel series
    runs ``use_ruleset_plan=False``.
    """
    return RuntimeConfig(use_ruleset_plan=False, **kwargs)


# ----------------------------------------------------------------------
# Virtual cost accounting for sequential algorithms
# ----------------------------------------------------------------------
def sequential_virtual_seconds(result, costs: Optional[CostModel] = None) -> float:
    """Virtual running time of a sequential run, on the same cost model the
    simulated cluster uses (match ticks + enforcement operations).

    Accepts :class:`SatResult`, :class:`ImpResult` or :class:`ChaseResult`.
    """
    costs = costs or CostModel()
    stats = result.stats
    if isinstance(result, ChaseResult):
        enforce_ops = stats.matches_considered + stats.applications
        ticks = stats.match_ticks
    else:
        enforcement = stats.enforcement
        enforce_ops = (
            enforcement.enforced
            + enforcement.deferred
            + enforcement.dropped
            + enforcement.rechecks
        )
        ticks = stats.match_ticks
    return costs.seconds(ticks * costs.match_tick + enforce_ops * costs.enforce_op)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class SatWorkload:
    """A satisfiability input: Σ plus provenance for reports."""

    name: str
    sigma: List[GFD]
    expected_satisfiable: Optional[bool] = None


@dataclass
class ImpWorkload:
    """An implication input: Σ, φ, and provenance."""

    name: str
    sigma: List[GFD]
    phi: GFD
    expected_implied: Optional[bool] = None


def mined_workload(
    dataset: str,
    count: int = DEFAULT_MINED_COUNT,
    num_nodes: int = 1200,
    with_conflicts: bool = True,
    seed: int = 7,
) -> SatWorkload:
    """Mined GFDs from a dataset stand-in, optionally conflict-expanded
    (the paper adds up to 10 random GFDs to test satisfiability)."""
    graph = load_dataset(dataset, num_nodes=num_nodes, seed=seed)
    sigma = mine_gfds(graph, count, seed=seed, prefix=f"{dataset}_")
    if with_conflicts:
        sigma = add_random_conflicts(sigma, num_conflicts=10, seed=seed)
        return SatWorkload(f"{dataset}(+conflicts)", sigma, expected_satisfiable=False)
    return SatWorkload(dataset, sigma, expected_satisfiable=True)


def mined_implication_workload(
    dataset: str,
    count: int = DEFAULT_MINED_COUNT,
    num_nodes: int = 1200,
    seed: int = 7,
) -> ImpWorkload:
    """Σ = mined set minus its last GFD, φ = that GFD (typical cover check)."""
    graph = load_dataset(dataset, num_nodes=num_nodes, seed=seed)
    sigma = mine_gfds(graph, count + 1, seed=seed, prefix=f"{dataset}_")
    return ImpWorkload(dataset, sigma[:-1], sigma[-1])


def parallel_sat_workload(dataset: str, seed: int = 7) -> SatWorkload:
    """Straggler-heavy satisfiable workload for the parallel-scalability
    figures; seeded per dataset so DBpedia/YAGO2 curves differ."""
    offsets = {"dbpedia": 0, "yago2": 1, "pokec": 2}
    workload_seed = seed + offsets.get(dataset, 9)
    sigma = straggler_workload(seed=workload_seed)
    return SatWorkload(f"{dataset}-parallel", sigma, expected_satisfiable=True)


def implication_workload(
    num_seekers: int = 4,
    num_background: int = 40,
    target_size: int = 12,
    target_density: float = 0.5,
    seeker_length: int = 6,
    seed: int = 42,
    derivable: bool = False,
) -> ImpWorkload:
    """An implication instance with heavy matching work inside ``G^X_Q``.

    ``φ``'s pattern is a dense digraph (one selective ``hub0`` node, rest
    ``hub``); Σ contains wildcard-path *seekers* that explode inside it
    plus cheap random background GFDs. With ``derivable=False`` (default)
    the consequent of ``φ`` is underivable, so checkers must run to
    completion — the worst case the timing figures measure.
    """
    import random as _random

    rng = _random.Random(seed)
    vocab = GFDVocabulary.default()
    generator = GFDGenerator(vocab, seed=seed)
    attr = vocab.attributes[0]
    canonical_value = vocab.canonical_values[attr]

    pattern = Pattern()
    pattern.add_var("x0", "hub0")
    for j in range(1, target_size):
        pattern.add_var(f"x{j}", "hub")
    for a in range(target_size):
        for b in range(target_size):
            if a != b and rng.random() < target_density:
                pattern.add_edge(f"x{a}", f"x{b}", "e")
    if derivable:
        consequent = [ConstantLiteral("x0", attr, canonical_value)]
    else:
        consequent = [ConstantLiteral("x0", "ZZ", 99)]
    phi = make_gfd(pattern.freeze(), [], consequent, name="phi_target")

    sigma: List[GFD] = []
    if derivable:
        # A helper rule that lets Σ derive φ's consequent: every hub0 node
        # carries the canonical attribute value.
        helper = Pattern()
        helper.add_var("h", "hub0")
        sigma.append(
            make_gfd(
                helper.freeze(),
                [],
                [ConstantLiteral("h", attr, canonical_value)],
                name="ihelper",
            )
        )
    for index in range(num_seekers):
        seeker = Pattern()
        seeker.add_var("y0", "hub0")
        for j in range(1, seeker_length + 1):
            seeker.add_var(f"y{j}", WILDCARD)
        for j in range(seeker_length):
            seeker.add_edge(f"y{j}", f"y{j + 1}", "e")
        sigma.append(
            make_gfd(
                seeker.freeze(),
                [],
                [VariableLiteral("y0", attr, f"y{seeker_length}", attr)],
                name=f"iseeker{index}",
            )
        )
    sigma.extend(
        generator.generate(num_background, max_pattern_nodes=5, max_literals=4, prefix="ibg")
    )
    return ImpWorkload("implication-stragglers", sigma, phi, expected_implied=derivable)


def synthetic_sat_workload(
    sigma_size: int,
    k: int = 6,
    l: int = 5,
    seed: int = 42,
    num_labels: int = 20,
    near_k: bool = False,
) -> SatWorkload:
    """The paper's synthetic generator workload (Exp-2/Exp-3).

    *near_k* concentrates pattern sizes at k-1..k and *num_labels* controls
    label collision; the k-sweep experiments use a small vocabulary with
    near-k patterns so that matching work actually grows with k (with a
    large vocabulary, bigger random patterns become so selective that they
    stop matching anything — the opposite of the paper's mined patterns).
    """
    vocabulary = GFDVocabulary.default(num_labels=num_labels, num_edge_labels=max(4, num_labels // 3))
    generator = GFDGenerator(vocabulary, seed=seed)
    sigma = generator.generate(
        sigma_size,
        max_pattern_nodes=k,
        max_literals=l,
        min_pattern_nodes=(max(1, k - 1) if near_k else 1),
    )
    return SatWorkload(f"synthetic(|Σ|={sigma_size},k={k},l={l})", sigma, True)


def synthetic_sat_sweep(
    sizes: Sequence[int],
    k: int = 6,
    l: int = 5,
    seed: int = 42,
    num_labels: int = 20,
    near_k: bool = False,
) -> dict:
    """Prefix-extending ``|Σ|`` sweep (Fig. 6(e) x-axis).

    The paper grows one rule set, so each sweep point must be a superset of
    the previous one — otherwise the "runtime vs |Σ|" curve confounds set
    size with set content. Builds the largest Σ once and slices prefixes:
    point ``s`` is literally ``sigma[:s]`` of point ``max(sizes)``.
    """
    largest = max(sizes)
    full = synthetic_sat_workload(
        largest, k=k, l=l, seed=seed, num_labels=num_labels, near_k=near_k
    )
    return {
        size: SatWorkload(
            f"synthetic(|Σ|={size},k={k},l={l})", full.sigma[:size], True
        )
        for size in sizes
    }


def synthetic_imp_sweep(
    sizes: Sequence[int],
    k: int = 6,
    l: int = 5,
    seed: int = 42,
    target_size: int = 12,
    target_density: float = 0.5,
    seeker_chords: int = SEEKER_CHORDS,
) -> dict:
    """Prefix-extending implication sweep (Fig. 6(f) x-axis).

    Like :func:`synthetic_sat_sweep` but for ``(Σ, φ)`` inputs: one build
    at ``max(sizes)`` (fixed φ, seekers first, then background), sliced so
    every point extends the previous. The seeker *count* is therefore the
    largest point's — constant across the sweep rather than proportional —
    which is what makes the points comparable at all. ``seeker_chords=0``
    builds the chordless (pure-walk) seeker variant — the only shape the
    reified ``ParImpRDF`` chase baseline can digest (see
    :func:`synthetic_imp_workload`).
    """
    largest = max(sizes)
    full = synthetic_imp_workload(
        largest,
        k=k,
        l=l,
        seed=seed,
        target_size=target_size,
        target_density=target_density,
        seeker_chords=seeker_chords,
    )
    return {
        size: ImpWorkload(
            f"synthetic-imp(|Σ|={size},k={k},l={l})",
            full.sigma[:size],
            full.phi,
            expected_implied=False,
        )
        for size in sizes
    }


def synthetic_imp_workload(
    sigma_size: int,
    k: int = 6,
    l: int = 5,
    seed: int = 42,
    target_size: int = 12,
    target_density: float = 0.5,
    seeker_chords: int = SEEKER_CHORDS,
) -> ImpWorkload:
    """Synthetic implication instance with |Σ|-proportional real work.

    ``φ``'s canonical graph ``G^X_Q`` is a fixed dense pattern; every
    ``SEEKER_SPACING``-th rule of Σ is a path "seeker" — a wildcard walk of
    length ``min(k+1, 8)`` from the hub whose last node must close back
    onto the walk's first few nodes (``SEEKER_CHORDS`` chord edges). The
    chords fail late, so the walk's search tree inside ``G^X_Q`` is large
    while its match count stays small: the figure measures *matching* (the
    NP-hard part the paper's sweeps are about), not per-match ``Eq``
    bookkeeping. The remaining rules are cheap random GFDs with the
    ``(k, l)`` controls, so runtime grows with |Σ| and k as in Fig.
    6(f)/(i). Seekers are interleaved (positions 0, 25, 50, ...) rather
    than front-loaded so that every *prefix* of Σ keeps the seeker
    fraction — :func:`synthetic_imp_sweep` slices prefixes. ``φ``'s
    consequent is underivable, so checkers run to completion (worst case).

    ``seeker_chords=0`` drops the chord edges and shortens the walk to
    ``min(k, 7)`` (the pure-walk seeker): reifying a walk doubles its hop
    count, so the naive ``ParImpRDF`` chase — no ordering, no plan — goes
    exponential on chorded seekers but handles the chordless variant. RDF
    baseline runs must use it (conservatively narrowing the measured
    ParImp-over-RDF gap, since the baseline gets the easier instance).
    """
    import random as _random

    rng = _random.Random(seed)
    vocab = GFDVocabulary.default()
    generator = GFDGenerator(vocab, seed=seed)
    attr = vocab.attributes[0]

    pattern = Pattern()
    pattern.add_var("x0", "hub0")
    for j in range(1, target_size):
        pattern.add_var(f"x{j}", "hub")
    for a in range(target_size):
        for b in range(target_size):
            if a != b and rng.random() < target_density:
                pattern.add_edge(f"x{a}", f"x{b}", "e")
    phi = make_gfd(pattern.freeze(), [], [ConstantLiteral("x0", "ZZ", 99)], name="phi_target")

    num_seekers = max(1, (sigma_size + SEEKER_SPACING - 1) // SEEKER_SPACING)
    seeker_length = max(2, min(k + 1, 8) if seeker_chords else min(k, 7))
    seekers: List[GFD] = []
    for index in range(num_seekers):
        seeker = Pattern()
        seeker.add_var("y0", "hub0")
        for j in range(1, seeker_length + 1):
            seeker.add_var(f"y{j}", WILDCARD)
        for j in range(seeker_length):
            seeker.add_edge(f"y{j}", f"y{j + 1}", "e")
        for c in range(min(seeker_chords, seeker_length - 1)):
            seeker.add_edge(f"y{seeker_length}", f"y{c}", "e")
        consequent = [
            VariableLiteral("y0", attr, f"y{1 + (i % seeker_length)}", attr)
            for i in range(max(1, l - 1))
        ]
        seekers.append(
            make_gfd(seeker.freeze(), [], consequent, name=f"sseeker{index}")
        )
    background = generator.generate(
        max(0, sigma_size - num_seekers),
        max_pattern_nodes=k,
        max_literals=l,
        prefix="sbg",
    )
    sigma: List[GFD] = []
    seekers_placed = backgrounds_placed = 0
    for position in range(sigma_size):
        if position % SEEKER_SPACING == 0 and seekers_placed < len(seekers):
            sigma.append(seekers[seekers_placed])
            seekers_placed += 1
        else:
            sigma.append(background[backgrounds_placed])
            backgrounds_placed += 1
    return ImpWorkload(
        f"synthetic-imp(|Σ|={sigma_size},k={k},l={l})", sigma, phi, expected_implied=False
    )


# ----------------------------------------------------------------------
# Result containers and rendering
# ----------------------------------------------------------------------
@dataclass
class Series:
    """One plotted line: algorithm name plus (x, seconds) points."""

    algorithm: str
    points: List[Tuple[object, float]] = field(default_factory=list)

    def add(self, x: object, seconds: float) -> None:
        self.points.append((x, seconds))

    def value_at(self, x: object) -> Optional[float]:
        for point_x, seconds in self.points:
            if point_x == x:
                return seconds
        return None


@dataclass
class Experiment:
    """A reproduced table/figure: id, axis label, and its series."""

    experiment_id: str
    title: str
    x_label: str
    series: List[Series] = field(default_factory=list)
    notes: str = ""

    def series_named(self, algorithm: str) -> Series:
        for series in self.series:
            if series.algorithm == algorithm:
                return series
        created = Series(algorithm)
        self.series.append(created)
        return created

    def render(self) -> str:
        """Fixed-width table: one row per x value, one column per series."""
        xs: List[object] = []
        for series in self.series:
            for x, _ in series.points:
                if x not in xs:
                    xs.append(x)
        header = [self.x_label] + [series.algorithm for series in self.series]
        rows = [header]
        for x in xs:
            row = [str(x)]
            for series in self.series:
                value = series.value_at(x)
                row.append(f"{value:.2f}" if value is not None else "-")
            rows.append(row)
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for index, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
            if index == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def timed(fn: Callable, *args, **kwargs) -> Tuple[object, float]:
    """Run *fn* and return (result, wall seconds)."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started
