"""One benchmark pass in a fresh process, so every lru_cache starts empty.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--trace 0|1]
           [--small] [--corrupt-expected] [--record PATH]

Run from the root of a checkout with src/ on PYTHONPATH (perfbench/run.py
does both).  Prints JSON lines on stdout: a header once the inputs are built
({"ready": wall-clock time, "inputs": count}), one line per input
({"key", "seconds", "factor", "ok", "error"}, where factor is the host
slowdown measured around the input), and a footer ({"pass_s",
"setup_factor", "rss_mb", "trace", "import_s"}).  Each input's results are
compared with the values recorded in perfbench/expected/<workload>.json when
its key is recorded there, and otherwise checked against the invariants
every generated input satisfies.  A mismatch or an exception marks the
input failed and the pass goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import cosetpart
from cosetpart import formats, partition
from spans import Tracer, merge

HERE = Path(__file__).resolve().parent
GOLDEN = {"rank": 2, "generators": ["aaaa", "bbbb", "aB", "aaBB", "aaaBBB"]}
BIGINDEX_DEGREES = (16, 24, 32)
ZCOVER_DEPTH = 10
# Each zcover pass takes the first covering drawn from the seed whose lcm is
# exactly each of these.  verify_partition stores every orbit tuple's whole
# witness word, so memory grows with lcm^2: fixing the lcms keeps the work
# and peak_rss_mb the same on every seed, and 7200 (about 0.2 GB) caps it
# well below the worker's address-space limit (lcm 14400 needs 0.8 GB).
ZCOVER_LCMS = (3600, 5400, 7200)
CLI_ZANALYZE_DEPTH = 6
CLI_ZANALYZE_MAX_LCM = 360
# Nominal time of the spawn probe, its typical sample on the 2-vCPU Xeon host
# the records were taken on.  Reported times are the measured times divided
# by the host slowdown, probe time over nominal time.
SPAWN_NOMINAL_S = 0.08


@dataclass
class Input:
    key: str
    run: Callable[[], object]  # the timed call
    summarize: Callable[[object], dict]  # its mathematical results, untimed
    invariant: Callable[[dict], bool]  # check used when no value is recorded


def _digest(*coeff_lists) -> str:
    text = "|".join(",".join(str(int(c)) for c in coeffs) for coeffs in coeff_lists)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# result summaries: the mathematical results only, never report bytes


def analysis_summary(report) -> dict:
    verdict = formats.verdict_to_json(report.verdict, report.spec.rank)
    return {
        "verdict": [verdict["status"], verdict["witness"]],
        "members": [
            [
                m.index,
                m.period,
                _digest(m.reciprocal_charpoly.coeffs, m.genfunc.num.coeffs, m.genfunc.den.coeffs),
            ]
            for m in report.members
        ],
        "sum": report.sum_identity_holds,
        "coeff": report.coefficient_identity_holds,
        "residues": [[e["period"], e["m"], e["is_zero"]] for e in report.residue_sums],
        "theorem1": report.theorem1["all_pass"] if report.theorem1 else None,
        "theorem2": report.theorem2["all_pass"] if report.theorem2 else None,
        "lemma8": report.lemma8["all_pass"] if report.lemma8 else None,
    }


def analysis_summary_from_json(obj: dict) -> dict:
    """analysis_summary of a `cosetpart analyze --out` report."""

    def passes(section):
        return section["all_pass"] if section else None

    return {
        "verdict": [obj["partition"]["status"], obj["partition"]["witness"]],
        "members": [
            [
                m["index"],
                m["period"],
                _digest(m["reciprocal_charpoly"], m["genfunc"]["num"], m["genfunc"]["den"]),
            ]
            for m in obj["members"]
        ],
        "sum": obj["sum_identity"]["holds"],
        "coeff": obj["coefficient_identity"]["holds"],
        "residues": [[e["period"], e["m"], e["is_zero"]] for e in obj["residue_sums"]],
        "theorem1": passes(obj["theorem1"]),
        "theorem2": passes(obj["theorem2"]),
        "lemma8": passes(obj["lemma8"]),
    }


def analysis_invariant(s: dict) -> bool:
    return (
        s["verdict"][0] == partition.IS_PARTITION
        and s["sum"]
        and s["coeff"]
        and all(is_zero for _, _, is_zero in s["residues"])
    )


def z_invariant(s: dict) -> bool:
    return (
        s["verdict"][0] == partition.IS_PARTITION
        and s["lifted"] == partition.IS_PARTITION
        and s["periods_equal_moduli"]
        and s["davenport_rado"]
        and s["theorem1"]
        and s["theorem2"]
    )


# ---------------------------------------------------------------------------
# library workloads; calls go through module attributes so that the tracer's
# rebinding is seen


def _analyze_input(key: str, spec) -> Input:
    return Input(key, lambda: cosetpart.analyze(spec), analysis_summary, analysis_invariant)


def corpus_inputs(seed: int, small: bool) -> list[Input]:
    """The 24-spec acceptance corpus, the same on every seed: seeded variants
    of it differ more than tenfold in cost (see perfbench/README.md), and
    their order changes which spec pays for the shared genfunc cache."""
    keys = [(r, d, x) for r in (1, 2, 3) for d in (0, 1, 2, 3) for x in (1, 2)]
    return [
        _analyze_input(
            f"analyze rank={r} depth={d} seed={x}", cosetpart.generate_partition(r, d, x)
        )
        for r, d, x in ([(2, 1, 1)] if small else keys)
    ]


def random_aperiodic_graph(rng: random.Random, d: int):
    """A uniformly drawn transitive pair of permutations of 1..d whose
    transition matrix is aperiodic (so no residue pairs arise)."""
    while True:
        perms = [rng.sample(range(1, d + 1), d) for _ in range(2)]
        try:
            graph = cosetpart.from_permutations(2, perms)
        except cosetpart.NotTransitive:
            continue
        if cosetpart.period(graph) == 1:
            return graph


def bigindex_inputs(seed: int, small: bool) -> list[Input]:
    """All d cosets of one random index-d subgroup of F_2, for each d."""
    rng = random.Random(seed)
    inputs = []
    for d in BIGINDEX_DEGREES[:1] if small else BIGINDEX_DEGREES:
        graph = random_aperiodic_graph(rng, d)
        members = tuple(cosetpart.coset(graph, t) for t in cosetpart.transversal(graph))
        inputs.append(_analyze_input(f"transversal d={d} seed={seed}", cosetpart.PartitionSpec(2, members)))
    return inputs


def draw_covering(rng: random.Random, depth: int, accept) -> tuple[int, tuple]:
    """The first generate_z_covering(depth, s) with accept(lcm), s drawn from rng."""
    while True:
        gseed = rng.randrange(1 << 30)
        classes = cosetpart.generate_z_covering(depth, gseed)
        if accept(math.lcm(*(d for d, _ in classes))):
            return gseed, classes


def zanalyze_route(classes) -> dict:
    """The library calls `cosetpart zanalyze` makes, in its order."""
    verdict = partition.z_verify(classes)
    dr = partition.davenport_rado_check(classes)
    lifted = partition.z_lift(classes)
    lifted_verdict = partition.verify_partition(lifted)
    periods = partition.member_periods(lifted)
    t1 = partition.theorem1_check(lifted)
    t2 = partition.theorem2_check(lifted)
    return {
        "verdict": [verdict.status, verdict.witness],
        "davenport_rado": dr["all_pass"],
        "lifted": lifted_verdict.status,
        "periods_equal_moduli": periods == [d for d, _ in classes],
        "theorem1": t1["all_pass"],
        "theorem2": t2["all_pass"],
    }


def zcover_inputs(seed: int, small: bool) -> list[Input]:
    rng = random.Random(seed)
    inputs = []
    for lcm in ZCOVER_LCMS[:1] if small else ZCOVER_LCMS:
        gseed, classes = draw_covering(rng, ZCOVER_DEPTH, lambda value, lcm=lcm: value == lcm)
        inputs.append(
            Input(
                f"covering depth={ZCOVER_DEPTH} seed={gseed}",
                lambda classes=classes: zanalyze_route(classes),
                dict,
                z_invariant,
            )
        )
    return inputs


# ---------------------------------------------------------------------------
# the command line, one subprocess at a time


class CliRunner:
    """Runs `cosetpart <args> --out PATH` as a child process, traced through
    spans.py if asked; returns the exit code and the report path."""

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.snapshots: list[dict] = []

    def __call__(self, args: list[str], out_name: str) -> tuple[int, Path]:
        out = self.workdir / out_name
        if self.traced:
            snap = self.workdir / "spans.json"
            cmd = [sys.executable, str(HERE / "spans.py"), str(snap), *args]
        else:
            cmd = [sys.executable, "-m", "cosetpart.cli", *args]
        code = subprocess.run(cmd + ["--out", str(out)], capture_output=True).returncode
        if self.traced:
            self.snapshots.append(json.loads(snap.read_text()))
        return code, out


def _report(result: tuple[int, Path]) -> tuple[int, dict]:
    code, out = result
    return code, json.loads(out.read_text())


def subgroup_summary(result) -> dict:
    code, report = _report(result)
    gfs = [g["genfunc"] for g in report["genfuncs"]]
    return {
        "exit": code,
        "index": report["index"],
        "period": report["period"],
        "polys": _digest(report["reciprocal_charpoly"], *(g["num"] + g["den"] for g in gfs)),
    }


def cli_analyze_summary(result) -> dict:
    code, report = _report(result)
    return {"exit": code, **analysis_summary_from_json(report)}


def cli_analyze_invariant(s: dict) -> bool:
    passes = s["theorem1"] and s["theorem2"] and s["lemma8"]
    return analysis_invariant(s) and s["exit"] == (0 if passes else 3)


def zanalyze_summary(result) -> dict:
    code, report = _report(result)
    lifted = report["lifted"]
    return {
        "exit": code,
        "verdict": [report["partition"]["status"], report["partition"]["witness"]],
        "davenport_rado": report["davenport_rado"]["all_pass"],
        "lifted": lifted["partition"]["status"],
        "periods_equal_moduli": lifted["agreement"]["periods_equal_moduli"],
        "theorem1": lifted["theorem1"]["all_pass"],
        "theorem2": lifted["theorem2"]["all_pass"],
    }


def cli_inputs(seed: int, small: bool, runner: CliRunner) -> list[Input]:
    """generate, subgroup on the golden fold fixture, analyze on light corpus
    files and zanalyze on a small covering drawn from the seed."""

    def write(name: str, obj) -> str:
        path = runner.workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    golden = write("golden.json", GOLDEN)
    inputs = [
        Input(
            "subgroup golden",
            lambda: runner(["subgroup", golden], "subgroup.out.json"),
            subgroup_summary,
            lambda s: s["exit"] == 0,
        )
    ]
    if small:
        return inputs

    generated = formats.partition_spec_to_json(cosetpart.generate_partition(2, 3, seed))

    def generate_summary(result) -> dict:
        code, report = _report(result)
        return {"exit": code, "matches_library": report == generated}

    inputs.append(
        Input(
            f"generate rank=2 depth=3 seed={seed}",
            lambda: runner(
                ["generate", "--rank", "2", "--depth", "3", "--seed", str(seed)], "generate.out.json"
            ),
            generate_summary,
            lambda s: s["exit"] == 0 and s["matches_library"],
        )
    )
    # The analyze inputs are the light (rank 2-3) acceptance-corpus files on
    # every seed: seeded partitions would make the slowest child depend on
    # the seed rather than on the program.
    for rank, depth, corpus_seed in itertools.product((2, 3), (2, 3), (1, 2)):
        spec = cosetpart.generate_partition(rank, depth, corpus_seed)
        path = write(
            f"partition-{rank}-{depth}-{corpus_seed}.json", formats.partition_spec_to_json(spec)
        )
        inputs.append(
            Input(
                f"analyze rank={rank} depth={depth} seed={corpus_seed}",
                lambda path=path: runner(["analyze", path], "analyze.out.json"),
                cli_analyze_summary,
                cli_analyze_invariant,
            )
        )
    gseed, classes = draw_covering(
        random.Random(seed), CLI_ZANALYZE_DEPTH, lambda value: value <= CLI_ZANALYZE_MAX_LCM
    )
    zpath = write("covering.json", {"moduli": [[d, r] for d, r in classes]})
    inputs.append(
        Input(
            f"zanalyze depth={CLI_ZANALYZE_DEPTH} seed={gseed}",
            lambda: runner(["zanalyze", zpath], "zanalyze.out.json"),
            zanalyze_summary,
            lambda s: s["exit"] == 0 and z_invariant(s),
        )
    )
    return inputs


LIBRARY_WORKLOADS = {
    "corpus": corpus_inputs,
    "bigindex": bigindex_inputs,
    "zcover": zcover_inputs,
}
WORKLOADS = (*LIBRARY_WORKLOADS, "cli")


def cli_import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import cosetpart.cli; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return float(out.stdout)


def _fraction_work() -> None:
    a = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(24)]
    b = [Fraction(i % 3 - 1, i % 4 + 1) for i in range(12)]
    b[-1] = Fraction(1)
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - len(b), -1, -1):
        t = prod[k + len(b) - 1]
        for j, y in enumerate(b):
            prod[k + j] -= t * y
    table = {}
    for i in range(2000):
        table[(i, i * 7919 % 2003)] = i


def _bigint_work() -> None:
    x = 3**3000 + 7
    m = 5**2600 + 11
    for _ in range(20):
        x = (x * x + 12345) % m


def _fraction_bigint_work() -> None:
    _fraction_work()
    _bigint_work()


@functools.cache
def _memory_buffer() -> bytes:
    return bytes(range(256)) * (1 << 16)  # 16 MiB, well beyond the L2 cache


def _memory_work() -> None:
    buffer = _memory_buffer()
    for offset in range(0, 256, 16):
        sum(buffer[offset::4099])


def reference_seconds(work: Callable[[], None]) -> float:
    """One timing of a reference work.  The garbage collector is off while
    it runs, so the worker's own heap does not change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def spawn_seconds() -> float:
    """One timing of a bare interpreter start that imports a few standard
    modules: the cost that dominates a command-line child."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import argparse, fractions, json"], stdout=subprocess.DEVNULL, check=True
    )
    return time.perf_counter() - start


def spawn_factor() -> float:
    """Host slowdown for process start: the best of two spawn timings over
    their nominal time."""
    return min(spawn_seconds(), spawn_seconds()) / SPAWN_NOMINAL_S


class ComputeProbe:
    """Host slowdown for in-process work.  The vCPU's speed moves with the
    load of other tenants, within a second and by up to 2x, so each input is
    paired with reference samples taken just before, during and just after
    it, on the same thread.  While an input runs, SIGPROF fires every
    INTERVAL_S of this process's CPU time and the handler takes one sample;
    the time the samples take is subtracted from the input's time."""

    INTERVAL_S = 0.25
    BOUNDARY = 3  # samples taken between inputs

    def __init__(self, work: Callable[[], None], nominal_s: float):
        self.work = work
        self.nominal_s = nominal_s
        self.samples: list[float] = []
        self.spent = 0.0
        self.take(self.BOUNDARY)

    def take(self, count: int = 1) -> None:
        start = time.perf_counter()
        for _ in range(count):
            self.samples.append(reference_seconds(self.work))
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, lambda *_: self.take())
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def mark(self) -> int:
        return len(self.samples) - self.BOUNDARY

    def factor(self, mark: int) -> float:
        self.take(self.BOUNDARY)
        return statistics.median(self.samples[mark:]) / self.nominal_s


class SpawnProbe:
    """Host slowdown for a command-line child: the best of the spawn timings
    taken just before and just after it, in this process, which waits while
    the child runs."""

    spent = 0.0

    def __init__(self):
        self.last = spawn_seconds()

    def running(self):
        return contextlib.nullcontext()

    def mark(self) -> None:
        return None

    def factor(self, mark: None) -> float:
        before, self.last = self.last, spawn_seconds()
        return min(before, self.last) / SPAWN_NOMINAL_S


# The reference work of each library workload's host probe, of the same kind
# as the workload's own, with its nominal time.  On this host the kinds speed
# up and slow down by different amounts: interpreted small-Fraction
# arithmetic (corpus: cyclo, poly) follows the host's speed most closely,
# big-integer products (bigindex's minors and interpolation) and strided
# reads of a large buffer (zcover's 0.2 GB of orbit tuples in
# verify_partition) much less.  The buffer adds 16 MiB to zcover's
# peak_rss_mb.
COMPUTE_PROBES = {
    "corpus": (_fraction_work, 0.004),
    "bigindex": (_fraction_bigint_work, 0.0065),
    "zcover": (_memory_work, 0.0012),
}


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def measure(inp: Input, expected: dict, probe) -> tuple[float, dict | None, str | None]:
    """Time one input, then check its results; never raises.  The time
    excludes the probe samples taken while the input ran."""
    spent = probe.spent
    start = time.perf_counter()
    try:
        with probe.running():
            result = inp.run()
    except Exception as exc:  # a failed input is counted, never fatal
        seconds = time.perf_counter() - start - (probe.spent - spent)
        return seconds, None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start - (probe.spent - spent)
    try:
        summary = json.loads(json.dumps(inp.summarize(result)))
        ok = summary == expected[inp.key] if inp.key in expected else inp.invariant(summary)
    except Exception as exc:
        return seconds, None, f"unreadable result: {type(exc).__name__}: {exc}"
    return seconds, summary, None if ok else "result differs from the expected results"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="one small input only")
    parser.add_argument(
        "--corrupt-expected", action="store_true", help="falsify one recorded value (self-test)"
    )
    parser.add_argument("--record", metavar="PATH", help="write the result summaries here")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    workdir = Path.cwd() / ".perfbench_tmp" / f"worker-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = None
        if args.workload == "cli":
            runner = CliRunner(workdir, traced=tracer is not None)
            inputs = cli_inputs(args.seed, args.small, runner)
        else:
            if tracer:
                tracer.install()
            inputs = LIBRARY_WORKLOADS[args.workload](args.seed, args.small)

        expected_path = HERE / "expected" / f"{args.workload}.json"
        expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}
        if args.corrupt_expected:
            expected[inputs[0].key] = {"corrupted": True}

        emit({"ready": time.time(), "inputs": len(inputs)})
        recorded = {}
        pass_s = 0.0
        setup_factor = spawn_factor()
        probe = SpawnProbe() if runner else ComputeProbe(*COMPUTE_PROBES[args.workload])
        for inp in inputs:
            mark = probe.mark()
            seconds, summary, error = measure(inp, expected, probe)
            factor = probe.factor(mark)
            pass_s += seconds
            if summary is not None:
                recorded[inp.key] = summary
            emit({"key": inp.key, "seconds": seconds, "factor": factor, "ok": error is None, "error": error})

        who = resource.RUSAGE_CHILDREN if runner else resource.RUSAGE_SELF
        footer = {
            "pass_s": pass_s,
            "setup_factor": setup_factor,
            "rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        if tracer:
            footer["trace"] = merge(runner.snapshots) if runner else tracer.snapshot()
            footer["import_s"] = cli_import_seconds()
        emit(footer)
        if args.record:
            Path(args.record).write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
