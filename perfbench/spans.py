"""Per-layer spans recorded from outside the library.

Each traced public function is rebound, in the module that defines it and
in every cosetpart module that imported the name, to a wrapper that counts
calls and accumulates self time (span duration minus the time covered by
traced child spans).  Names that no longer exist are skipped, so the
benchmark keeps working when a later change deletes one of them.
"""

from __future__ import annotations

import importlib
import sys
import time

# layer (module) -> traced public functions
LAYERS = {
    "partition": (
        "analyze",
        "verify_partition",
        "z_verify",
        "check_sum_identity",
        "check_coefficient_identity",
        "theorem1_check",
        "theorem2_check",
        "lemma8_diagnostic",
        "residue_sum_check",
        "davenport_rado_check",
    ),
    "cyclo": ("pole_order", "residue_simple", "eval_at_root"),
    "spectral": ("transition_matrix", "char_data", "period"),
    "ratfunc": ("genfunc", "series_from_matrix"),
    "poly": ("poly_gcd", "lagrange_interpolate"),
    "schreier": ("fold", "from_permutations", "transversal"),
    "formats": (
        "parse_partition_file",
        "parse_z_file",
        "parse_subgroup",
        "analysis_report_to_json",
    ),
}
CACHED = ("ratfunc.genfunc", "spectral.char_data")
SPANS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)


class Tracer:
    """Call counts, self time and cache counters of the traced functions."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self._originals: dict[str, object] = {}
        self._child_time = [0.0]  # one accumulator per open span, plus the root

    def install(self) -> None:
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"cosetpart.{module}")
            for name in names:
                original = getattr(mod, name, None)
                if original is None:
                    continue
                key = f"{module}.{name}"
                self._originals[key] = original
                wrapper = self._wrap(key, original)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("cosetpart"):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapper)

    def _wrap(self, key, original):
        calls, self_s, child_time = self.calls, self.self_s, self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                child_time[-1] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - children

        traced.__wrapped__ = original
        return traced

    def cache_counts(self) -> dict[str, list[int]]:
        """[hits, misses] of each cached function that has cache_info()."""
        out = {}
        for key in CACHED:
            info = getattr(self._originals.get(key), "cache_info", None)
            if info is not None:
                stats = info()
                out[key] = [stats.hits, stats.misses]
        return out

    def snapshot(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "cache": self.cache_counts()}


def merge(snapshots) -> dict:
    """Sum several snapshots (one per traced process) into one."""
    total = {"calls": dict.fromkeys(SPANS, 0), "self_s": dict.fromkeys(SPANS, 0.0), "cache": {}}
    for snap in snapshots:
        for key in SPANS:
            total["calls"][key] += snap["calls"].get(key, 0)
            total["self_s"][key] += snap["self_s"].get(key, 0.0)
        for key, (hits, misses) in snap["cache"].items():
            acc = total["cache"].setdefault(key, [0, 0])
            acc[0] += hits
            acc[1] += misses
    return total


def run_traced_cli(argv) -> int:
    """Run `cosetpart <args>` under the tracer and dump its snapshot.

    Usage: python3 perfbench/spans.py SNAPSHOT_PATH <cosetpart args...>
    """
    import json

    from cosetpart import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv[1:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(run_traced_cli(sys.argv[1:]))
