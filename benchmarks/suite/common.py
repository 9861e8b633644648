"""Shared pieces of the benchmark suite: paths, statistics, seeded inputs
and the per-layer roll-up of a traced pass."""

from __future__ import annotations

import math
import random
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Working space for graph files and span dumps (inside the checkout).
RUN_DIR = HERE / ".run"

#: Set-up is repeated this many times per pass; setup_s is the median.
SETUP_REPEATS = 3

#: The two op streams of every workload, in report order.
OPS = ("a", "b")


class InvalidRun(Exception):
    """The pass broke a validity guard; it reports no numbers."""


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; failed ops are ``inf`` and sort last."""
    if not values:
        return math.inf
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rss_mb(pid="self") -> float:
    """Current resident set of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"VmRSS missing from /proc/{pid}/status")


def reshuffle(sigma: Iterable, rng: random.Random, prefix: str) -> List:
    """*sigma* in a seeded order under seeded names.

    Rule names break ties in the dependency order and the unit order, so
    a new order plus new names changes the sequence of work without
    changing its amount; generator seeds, by contrast, change the amount
    of work up to 17x between two imp inputs of the same size.
    """
    order = list(sigma)
    rng.shuffle(order)
    numbers = list(range(len(order)))
    rng.shuffle(numbers)
    return [replace(gfd, name=f"{prefix}{number:03d}") for gfd, number in zip(order, numbers)]


def closed_loop(
    calls: Dict[str, Callable[[], object]],
    check: Callable[[str, object], Optional[str]],
    seconds: float,
    recorder=None,
):
    """Alternate the two op streams back to back until *seconds* pass.

    *check* returns an error message for a wrong answer. Returns the
    latency samples per stream (``inf`` for a failed op), the failure
    messages, and the stream of each op id (the ids spans carry).
    """
    samples: Dict[str, List[float]] = {op: [] for op in OPS}
    failures: List[str] = []
    kinds: Dict[str, str] = {}
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        for op in OPS:
            rid = f"{op}:{index}"
            root = recorder.open_root(rid, ROOT_SPAN) if recorder is not None else None
            started = time.perf_counter()
            try:
                result, error = calls[op](), None
            except Exception as exc:  # a crashed op is a failed op, not a crashed pass
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            if root is not None:
                recorder.close_root(root)
            if error is None:
                error = check(op, result)
            samples[op].append(math.inf if error else elapsed)
            if error:
                failures.append(f"{rid}: {error}")
            kinds[rid] = op
        index += 1
    return samples, failures, kinds


def pass_result(**fields) -> Dict[str, object]:
    """The record one workload pass prints for ``run.py``."""
    result = {
        "ops": {},
        "setup_s": [],
        "rss_mb": 0.0,
        "samples": {op: [] for op in OPS},
        "attempted": 0,
        "failures": [],
        "extra": {},
        "layers": {},
    }
    result.update(fields)
    return result


# ----------------------------------------------------------------------
# Per-layer roll-up
# ----------------------------------------------------------------------
#: Spans whose self time is reported as a layer (``<name>.s``).
LAYER_SPANS = (
    "matching.enumerate",
    "matching.simulation",
    "matching.plan",
    "matching.setup",
    "matching.components",
    "graph.bitset",
    "reasoning.order",
    "graph.subgraph",
    "gfd.canonical",
    "reasoning.enforce",
    "parallel.prepare",
    "parallel.units",
    "parallel.neighborhoods",
    "parallel.backend",
    "gfd.parse",
    "reasoning.detect",
    "serve.protocol.encode",
    "serve.protocol.decode",
    "serve.protocol.apply",
    "serve.views.pin",
    "serve.views.fork",
    "graph.delta.replay",
    "graph.index",
)

#: The root span of one timed library call (its self time is unattributed).
ROOT_SPAN = "op"
#: Self-time bucket of the span recorder's own work.
BOOKKEEPING = "trace.bookkeeping"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def roll_up(requests: Dict[object, dict], kinds: Dict[object, str]) -> Dict[str, float]:
    """Per-op layer metrics from per-request span totals.

    *requests* maps request id -> ``{"self": {span: s}, "count": {...}}``;
    *kinds* maps each timed request id to its op stream (``a``/``b``).
    Times and counts are averaged over all timed ops of the pass.
    """
    timed = [rid for rid in kinds if rid in requests]
    ops = len(kinds)
    total_self: Dict[str, float] = {}
    total_count: Dict[str, float] = {}
    for rid in timed:
        for name, value in requests[rid]["self"].items():
            total_self[name] = total_self.get(name, 0.0) + value
        for name, value in requests[rid]["count"].items():
            total_count[name] = total_count.get(name, 0.0) + value
    # A layer the pass never entered is left out ("not crossed").
    metrics = {f"{name}.s": _ratio(total_self[name], ops) for name in LAYER_SPANS if name in total_self}
    matches = total_count.get("matches", 0.0)
    ticks = total_count.get("ticks", 0.0)
    metrics["matching.matches"] = _ratio(matches, ops)
    metrics["matching.ticks"] = _ratio(ticks, ops)
    metrics["matching.yield"] = _ratio(matches, ticks)
    metrics["matching.simulation.prune_ratio"] = 1.0 - _ratio(
        total_count.get("candidates_after", 0.0),
        total_count.get("candidates_before", 0.0),
    ) if total_count.get("candidates_before") else 0.0
    calls = total_count.get("enforce_calls", 0.0)
    metrics["reasoning.enforce.calls"] = _ratio(calls, ops)
    metrics["reasoning.enforce.changed_ratio"] = _ratio(total_count.get("enforce_changed", 0.0), calls)
    metrics["trace.unattributed.s"] = _ratio(total_self.get(ROOT_SPAN, 0.0), ops)
    metrics["trace.spans"] = _ratio(
        sum(sum(requests[rid]["n"].values()) for rid in timed), ops
    )
    return metrics


def coverage(requests: Dict[object, dict], kinds: Dict[object, str]) -> Dict[str, float]:
    """Named layers' self time over the root span's wall time, per stream
    (the recorder's own bookkeeping is left out of both)."""
    covered = {op: 0.0 for op in OPS}
    wall = {op: 0.0 for op in OPS}
    for rid, op in kinds.items():
        entry = requests.get(rid)
        if entry is None:
            continue
        total = sum(entry["self"].values()) - entry["self"].get(BOOKKEEPING, 0.0)
        wall[op] += total
        covered[op] += total - entry["self"].get(ROOT_SPAN, 0.0)
    return {op: _ratio(covered[op], wall[op]) for op in OPS}
