"""Self-test of the benchmark on one small input per workload.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is reported, that the small
inputs match their recorded results, that a deliberately wrong expectation
is counted as a failed input, and that the benchmark refuses to run, without
printing a result, in a directory that holds only the benchmark itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "bigindex", "zcover", "cli")


def bench(*flags: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "1", "--seconds", "1", *flags]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace, wanted in names.items():
            code, result = bench("--workload", workload, "--trace", trace, "--small")
            if code != 0 or result is None:
                problems.append(f"{workload} trace {trace}: exit {code}, no result")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(wanted))} differ")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} inputs failed")
        code, result = bench("--workload", workload, "--trace", "0", "--small", "--corrupt-expected")
        if result is None or result["failed"] / result["attempted"] <= 0:
            problems.append(f"{workload}: a wrong expectation left failed_frac at 0")

    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, result = bench("--workload", "corpus", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)
    if code == 0 or result is not None:
        problems.append("without the program the benchmark still reported a result")

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
