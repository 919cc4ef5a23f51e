"""cosetpart benchmark: one client, closed loop, one worker process at a time.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload {corpus,bigindex,zcover,cli}
                             --seed N --seconds S --trace {0,1}

Each pass runs in a fresh worker process (perfbench/worker.py) under an
address-space limit and a wall budget, so caches start cold as they do for a
command-line user and a runaway input cannot exhaust the machine.  Passes
repeat until the next one would end after --seconds.  The last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics (medians over the passes), with --trace 1
the per-layer metrics from traced passes, which alternate with untraced
ones so that the tracing overhead can be reported.

The host's speed drifts by up to 2x within minutes, so the worker pairs
every timing with a host probe (worker.ComputeProbe, worker.SpawnProbe) and
the end-to-end times are reported at the nominal host speed: measured
seconds divided by the probe's slowdown.  The unscaled wall times are
printed on the lines before the result and reported as host.pass_wall_s.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import CACHED, SPANS  # noqa: E402

WORKLOADS = ("corpus", "bigindex", "zcover", "cli")
ADDRESS_SPACE_LIMIT = 2 << 30  # bytes, per worker and inherited by its children
PASS_BUDGET_S = 60.0  # wall time one pass may take before it is killed
PERCENTILES = (99.9, 99, 95, 90, 75, 50)

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "slowest_input_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{span}.calls": "count" for span in SPANS},
    **{f"{span}.self_s": "s" for span in SPANS},
    **{f"{key}.cache_hit_ratio": "ratio" for key in CACHED},
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "host.slowdown": "ratio",
    "host.pass_wall_s": "s",
}


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run_pass(workload: str, seed: int, traced: bool, extra: list[str]) -> dict:
    """One worker process; returns its timings, failures and trace."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        "1" if traced else "0",
        *extra,
    ]
    spawned = time.time()
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=_limit_address_space,
    )
    try:
        out, err = proc.communicate(timeout=PASS_BUDGET_S)
        budget_broken = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        budget_broken = True
    wall = time.time() - spawned

    header, footer, rows = None, None, []
    for line in out.splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "ready" in obj:
            header = obj
        elif "key" in obj:
            rows.append(obj)
        elif "pass_s" in obj:
            footer = obj
    attempted = header["inputs"] if header else 1
    ok = sum(1 for row in rows if row["ok"])
    for row in rows:
        if not row["ok"]:
            print(f"FAILED {workload} {row['key']}: {row['error']}", file=sys.stderr)
    if footer is None:
        why = "broke the wall budget" if budget_broken else f"exited with {proc.returncode}"
        print(f"FAILED {workload} pass {why}\n{err[-2000:]}", file=sys.stderr)
    return {
        "traced": traced,
        "wall": wall,
        # times at the nominal host speed (see worker.ComputeProbe)
        "setup_s": (header["ready"] - spawned) / footer["setup_factor"] if header and footer else None,
        "inputs_s": {row["key"]: row["seconds"] / row["factor"] for row in rows},
        "wall_s": sum(row["seconds"] for row in rows),
        "factors": [row["factor"] for row in rows],
        "attempted": attempted,
        "failed": attempted - ok if footer else attempted,
        "footer": footer,
    }


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def tail(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {_median(samples):.4f} s over {n} samples"
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            value = statistics.quantiles(samples, n=1000)[round(p * 10) - 1]
            return f"{text}, p{p:g} {value:.4f} s"
    return text + " (too few for a percentile with ten beyond it)"


def end_to_end(passes: list[dict]) -> dict:
    done = [p for p in passes if p["footer"] and p["inputs_s"]]
    per_input: dict[str, list[float]] = {}
    for p in done:
        for key, seconds in p["inputs_s"].items():
            per_input.setdefault(key, []).append(seconds)
    return {
        "setup_s": _median(p["setup_s"] for p in passes),
        "pass_s": _median(sum(p["inputs_s"].values()) for p in done),
        # the input with the highest median time over the passes
        "slowest_input_s": max((_median(times) for times in per_input.values()), default=0.0),
        "peak_rss_mb": _median(p["footer"]["rss_mb"] for p in done),
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p["footer"] for p in passes if p["traced"] and p["footer"]]
    plain = [p for p in passes if not p["traced"] and p["footer"]]
    values = {}
    for span in SPANS:
        values[f"{span}.calls"] = _median(f["trace"]["calls"].get(span, 0) for f in traced)
        values[f"{span}.self_s"] = _median(f["trace"]["self_s"].get(span, 0.0) for f in traced)
    for key in CACHED:
        ratios = []
        for f in traced:
            hits, misses = f["trace"]["cache"].get(key, (0, 0))
            ratios.append(hits / (hits + misses) if hits + misses else 0.0)
        values[f"{key}.cache_hit_ratio"] = _median(ratios)
    values["cli.import_s"] = _median(f["import_s"] for f in traced)
    traced_s = _median(sum(p["inputs_s"].values()) for p in passes if p["traced"] and p["footer"])
    values["trace.overhead_s"] = traced_s - _median(sum(p["inputs_s"].values()) for p in plain)
    values["host.slowdown"] = _median(f for p in plain for f in p["factors"])
    values["host.pass_wall_s"] = _median(p["wall_s"] for p in plain)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="one small input per pass")
    parser.add_argument(
        "--corrupt-expected", action="store_true", help="falsify one recorded value (self-test)"
    )
    args = parser.parse_args(argv)

    if not Path("src/cosetpart/__init__.py").is_file():
        print("error: run from the root of a cosetpart checkout (src/cosetpart missing)", file=sys.stderr)
        return 2
    extra = [flag for flag, on in (("--small", args.small), ("--corrupt-expected", args.corrupt_expected)) if on]

    passes: list[dict] = []
    start = time.monotonic()
    while True:
        # with --trace 1, passes alternate untraced / traced
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(args.workload, args.seed, traced, extra))
        elapsed = time.monotonic() - start
        if args.trace and len(passes) < 2:
            continue
        if elapsed + passes[-1]["wall"] > args.seconds:
            break
    shutil.rmtree(".perfbench_tmp", ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if p["footer"] and not p["traced"]]
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, {attempted} inputs, {failed} failed")
    print(f"pass_s: {tail([sum(p['inputs_s'].values()) for p in plain])}")
    print(f"input_s: {tail([s for p in plain for s in p['inputs_s'].values()])}")
    print(f"wall pass_s, not scaled: {tail([p['wall_s'] for p in plain])}")

    if args.trace:
        values, units = per_layer(passes), PER_LAYER
    else:
        values, units = end_to_end(passes), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
