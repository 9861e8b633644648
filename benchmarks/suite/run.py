"""End-to-end benchmark of rule reasoning, parallel ParSat and served validation.

Run from the root of a checkout (no install, no ``PYTHONPATH`` needed)::

    python3 benchmarks/suite/run.py --workload rules [--seed 7] [--seconds 30] [--trace 0|1]

Workloads (see README.md for why each exists): ``rules`` (closed-loop
``seq_sat``/``seq_imp``), ``parallel`` (closed-loop ``par_sat`` on a fresh
process pool) and ``serve`` (open-loop ``validate``/``mutate`` against a
``repro serve`` process). Every workload has two op streams, ``a`` and
``b``; the end-to-end metrics are named after the stream.

Each pass runs in its own process session, and the whole process group
(pool workers, the server) is killed and reaped when the pass ends, times
out or is interrupted. ``--trace 0`` prints the end-to-end metrics listed
in ``BENCHMARK.json``; ``--trace 1`` runs an untraced and a traced pass
of half the time each, with the same seed and sizes, and prints the
per-layer metrics, the trace coverage of each stream, and the tracing
overhead (traced p50 over untraced p50). The last line of the output is
one JSON object; every answer is checked, and any wrong, failed or
refused op makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from common import HERE, OPS, ROOT, SRC, percentile

#: run.py must finish within this many seconds of starting.
TIME_CAP_S = 170.0
#: The usual names of the two op streams of each workload.
STREAMS = {
    "rules": ("sat", "imp"),
    "parallel": ("par_hub", "par_straggler"),
    "serve": ("validate", "mutate"),
}
#: Largest finite value printed; a failed op's latency is infinite.
CLAMP = 1e9


def load_metric_specs():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
def become_subreaper() -> None:
    """Adopt orphaned descendants so they can be reaped here (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def kill_group(pgid: int, timeout: float = 10.0) -> None:
    """SIGKILL every process in *pgid* and wait until none is left."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"process group {pgid} survived SIGKILL")
        time.sleep(0.05)


def run_pass(args, seconds: float, traced: bool, deadline: float):
    """One workload pass in its own session; returns its record or None."""
    command = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
    ]
    command += ["--trace"] if traced else []
    command += ["--smoke"] if args.smoke else []
    command += ["--plant"] if args.plant else []
    env = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} pass exceeded the time cap", file=sys.stderr)
        return None
    finally:
        kill_group(child.pid)
    if child.returncode != 0:
        print(f"error: {args.workload} pass exited with {child.returncode}", file=sys.stderr)
        return None
    return json.loads(out.decode("utf-8").strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(record):
    samples = record["samples"]
    metrics = {
        "setup_s": statistics.median(record["setup_s"]),
        "rss_mb": record["rss_mb"],
    }
    for op in OPS:
        metrics[f"op_{op}_p50_s"] = percentile(samples[op], 0.50)
    return metrics


def per_layer(base, traced):
    metrics = dict(traced["layers"])
    for op in OPS:
        metrics[f"trace.coverage.op_{op}"] = traced["coverage"][op]
        metrics[f"trace.overhead.op_{op}"] = (
            percentile(traced["samples"][op], 0.5) / percentile(base["samples"][op], 0.5)
        )
    return metrics


def report(args, records, metrics, units, failures, attempted):
    """Human-readable lines (every metric with its unit and sample count)."""
    names = dict(zip(OPS, STREAMS[args.workload]))
    last = records[-1]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for op in OPS:
        n = len(last["samples"][op])
        print(f"  stream {op} = {names[op]}: {last['ops'][op]}  (n={n})")
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "not crossed" if value is None else f"{value:.6g}"
        alias = ""
        for op in OPS:
            if name.startswith(f"op_{op}_"):
                alias = f"  ({names[op]}_{name[len(f'op_{op}_'):]}, n={len(last['samples'][op])})"
        if name == "setup_s":
            alias = f"  (n={len(last['setup_s'])})"
        print(f"  {name:<36} {shown:>12} {unit}{alias}")
    if not args.trace:
        for op in OPS:
            for fraction in (0.75, 0.9):
                name = f"{names[op]}_p{round(fraction * 100)}_s"
                value = percentile(last["samples"][op], fraction)
                print(f"  {name:<36} {value:>12.6g} s  (not gated)")
        for name, (value, unit) in last["extra"].items():
            print(f"  {name:<36} {value:>12.6g} {unit}  (not gated)")
    print(f"  {'failed_frac':<36} {len(failures) / max(1, attempted):>12.6g} ratio  ({len(failures)}/{attempted})")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(STREAMS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up (self-check)")
    parser.add_argument("--plant", action="store_true", help="corrupt one answer before it is checked (self-check)")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_specs()
    become_subreaper()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    deadline = started + TIME_CAP_S

    if args.trace:
        base = run_pass(args, args.seconds / 2, False, deadline)
        traced = run_pass(args, args.seconds / 2, True, deadline) if base else None
        records = [base, traced]
        units = layer_units
    else:
        records = [run_pass(args, args.seconds, False, deadline)]
        units = e2e_units
    if any(record is None for record in records):
        return 2
    metrics = per_layer(*records) if args.trace else end_to_end(records[0])
    failures = [failure for record in records for failure in record["failures"]]
    attempted = sum(record["attempted"] for record in records)
    report(args, records, metrics, units, failures, attempted)
    correct = not failures and attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": min(float(metrics.get(name, 0.0)), CLAMP), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
