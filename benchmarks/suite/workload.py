"""One pass of one workload; ``run.py`` starts it in a process of its own.

Prints the pass record (``common.pass_result``) as one JSON line. Exit 3
means the pass broke a validity guard and reports nothing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys

from common import RUN_DIR, InvalidRun, use_checkout_source

WORKLOADS = {"rules": "wl_rules", "parallel": "wl_parallel", "serve": "wl_serve"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--plant", action="store_true")
    args = parser.parse_args(argv)
    use_checkout_source()
    args.run_dir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    args.run_dir.mkdir(parents=True)
    recorder = None
    if args.trace and args.workload != "serve":
        from tracing import Recorder, install

        recorder = Recorder()
        install(recorder)
    module = importlib.import_module(WORKLOADS[args.workload])
    spans = RUN_DIR / f"spans-{args.workload}.json"
    try:
        result = module.run(args, recorder)
        # The latest traced pass of each workload stays for inspection.
        if recorder is not None:
            recorder.dump(str(spans))
        elif (args.run_dir / "server-spans.json").exists():
            os.replace(args.run_dir / "server-spans.json", spans)
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(args.run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
