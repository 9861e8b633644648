"""Self-check of the benchmark itself, at smoke sizes (about 15 s).

    python3 benchmarks/suite/selfcheck.py

For every workload it checks that an untraced pass prints every
end-to-end metric of ``BENCHMARK.json`` with its unit, that a planted
wrong answer (a flipped verdict, or a violation list with one entry
dropped) is caught as a failure with a nonzero exit, and that a traced
pass prints every per-layer metric including a nonzero trace coverage.
It also checks that ``run.py`` refuses to report anything when the
library sources are missing. Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import HERE, ROOT, RUN_DIR

RUN = HERE / "run.py"


def run(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, lines, result


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        smoke = ("--workload", workload, "--smoke", "--seconds", "1")
        code, lines, result = run(*smoke)
        expect(code == 0 and result and result["correct"], f"{workload}: clean pass is correct")
        expect(set(result["metrics"]) == set(e2e), f"{workload}: every end-to-end metric reported")
        for name, unit in e2e.items():
            expect(
                result["metrics"][name]["unit"] == unit
                and any(line.split()[:1] == [name] and f" {unit}" in line for line in lines),
                f"{workload}: {name} printed with unit {unit}",
            )
        code, _, result = run(*smoke, "--plant")
        expect(
            code == 1 and result and not result["correct"] and result["failed"] >= 1,
            f"{workload}: planted wrong answer raises failed",
        )
        code, _, result = run(*smoke, "--trace", "1")
        expect(code == 0 and result and set(result["metrics"]) == set(layers), f"{workload}: every per-layer metric reported")
        expect(
            all(result["metrics"][f"trace.coverage.op_{op}"]["value"] > 0 for op in "ab"),
            f"{workload}: trace coverage reported",
        )

    bare = RUN_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    suite = bare / HERE.relative_to(ROOT)
    shutil.copytree(HERE, suite, ignore=shutil.ignore_patterns(".run", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, _, result = run("--workload", "rules", cwd=bare, script=suite / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None, "without library sources run.py fails and reports nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
