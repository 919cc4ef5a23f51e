"""File formats and JSON serialization.

Input records:
  subgroup:   {"rank": n, "generators": ["aB", ...]}
          or  {"rank": n, "permutations": [[2,1], ...], "basepoint": 1}
  partition:  {"rank": n, "members": [{"subgroup": {...}, "coset_rep": "a"}, ...]}
  Z system:   {"moduli": [[d, r], ...]}

Words use the text syntax of the words module.  Exact numbers that can
grow (polynomial and series coefficients, rationals) are serialized as
decimal strings so no consumer loses precision; structural integers
(indices, periods, vertices, matrix entries) stay plain.

The commands read their input (load_json), write their --out reports
(write_report), bound --series-depth by the input's rank so that every
series coefficient prints (check_series_depth) and show words and
verdicts on the console (show_word, verdict_line) through this module.
"""

from __future__ import annotations

import json
import math

from .covering import PartitionSpec, PartitionVerdict, _is_int
from .schreier import SchreierGraph, coset, from_permutations
from .words import check_rank, format_word, parse_word

# The writers read only attributes of the exact numbers, so this module
# imports none of their classes, and parse_subgroup imports the folding
# code only for a subgroup given by generators: parsing a subgroup,
# partition or Z file loads no polynomial arithmetic.


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            # the decoder recurses once per open bracket
            raise ValueError(f"JSON nested too deeply in {path}") from None


class WriteFailed(Exception):
    """An output file could not be written: (path, reason)."""


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise WriteFailed(path, exc.strerror or str(exc)) from exc


def write_report(obj: dict, out_path: str | None) -> None:
    """The JSON report, indented, to out_path if one is given."""
    if out_path:
        write_text(out_path, json.dumps(obj, indent=2) + "\n")


def show_word(word, rank) -> str:
    return format_word(word, rank) or "ε"


def verdict_line(label: str, verdict, show_witness) -> str:
    """"label: yes", or "label: NO (status, witness W, members (i, j))"
    with W = show_witness(verdict.witness) and the members only on an
    overlap."""
    if verdict.ok:
        return f"{label}: yes"
    members = f", members {verdict.overlap_indices}" if verdict.overlap_indices else ""
    witness = show_witness(verdict.witness)
    return f"{label}: NO ({verdict.status}, witness {witness}{members})"


def poly_to_json(p) -> list[str]:
    return [str(c) for c in p.coeffs]


def ratfunc_to_json(f) -> dict:
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def cyclo_to_json(x) -> dict:
    return {"h": x.h, "coeffs": [str(c) for c in x.coeffs]}


def series_to_json(counts) -> list[str]:
    return [str(c) for c in counts]


# Python's default limit, in decimal digits, on converting an int to str.
COEFFICIENT_DIGITS = 4300


def max_series_depth(rank: int) -> int:
    """The bound on --series-depth at this rank: the largest K with
    n^K < 10^COEFFICIENT_DIGITS.  The coefficient of z^K counts at most n^K
    words, so up to this depth every coefficient prints within Python's
    default limit: 14284 at rank 2, 3038 at rank 26, 2149 at rank 100.  In
    rank 1 every coefficient is 0 or 1; rank 2's bound caps the series'
    length there, and so its time."""
    n = max(rank, 2)
    limit = 10**COEFFICIENT_DIGITS
    depth = int(COEFFICIENT_DIGITS / math.log10(n))
    # the float quotient is within one of K; settle it exactly
    while n ** (depth + 1) < limit:
        depth += 1
    while n**depth >= limit:
        depth -= 1
    return depth


def check_series_depth(depth: int, rank: int) -> None:
    """A depth over max_series_depth(rank) is a usage error (exit 1), raised
    before the command prints anything."""
    bound = max_series_depth(rank)
    if depth > bound:
        raise ValueError(
            f"--series-depth must be <= {bound} at rank {rank} "
            f"({max(rank, 2)}^K within {COEFFICIENT_DIGITS} digits), got {depth}"
        )


def subgroup_to_json(graph: SchreierGraph) -> dict:
    obj = {"rank": graph.rank, "permutations": [list(p) for p in graph.action]}
    if graph.basepoint != 1:
        obj["basepoint"] = graph.basepoint
    return obj


def parse_subgroup(obj) -> SchreierGraph:
    """Build a graph from a subgroup record, folding generators if that is
    how the subgroup is given.  May raise InfiniteIndex."""
    if not isinstance(obj, dict):
        raise ValueError("subgroup record must be an object")
    if "rank" not in obj:
        raise ValueError("subgroup record is missing 'rank'")
    rank = obj["rank"]
    check_rank(rank)
    if "generators" in obj:
        gens = obj["generators"]
        if not isinstance(gens, list) or not all(isinstance(w, str) for w in gens):
            raise ValueError("'generators' must be a list of words")
        from .folding import fold

        return fold(rank, [parse_word(text, rank) for text in gens])
    if "permutations" in obj:
        perms = obj["permutations"]
        if not isinstance(perms, list) or not all(isinstance(p, list) for p in perms):
            raise ValueError("'permutations' must be a list of lists")
        for perm in perms:
            if not all(_is_int(v) for v in perm):
                raise ValueError(f"'permutations' entries must be integers, got {perm!r}")
        basepoint = obj.get("basepoint", 1)
        if not _is_int(basepoint):
            raise ValueError(f"'basepoint' must be an integer, got {basepoint!r}")
        return from_permutations(rank, perms, basepoint)
    raise ValueError("subgroup record needs 'generators' or 'permutations'")


def partition_spec_to_json(spec: PartitionSpec) -> dict:
    return {
        "rank": spec.rank,
        "members": [
            {
                "subgroup": subgroup_to_json(m.graph),
                "coset_rep": format_word(m.rep, spec.rank),
            }
            for m in spec.members
        ],
    }


def parse_partition_file(obj) -> PartitionSpec:
    if not isinstance(obj, dict) or "members" not in obj or "rank" not in obj:
        raise ValueError("partition file needs 'rank' and 'members'")
    rank = obj["rank"]
    check_rank(rank)
    if not isinstance(obj["members"], list):
        raise ValueError("'members' must be a list")
    members = []
    for i, rec in enumerate(obj["members"], start=1):
        if not isinstance(rec, dict):
            raise ValueError(f"member {i} must be an object")
        if "subgroup" not in rec:
            raise ValueError(f"member {i} is missing 'subgroup'")
        graph = parse_subgroup(rec["subgroup"])
        if graph.rank != rank:
            raise ValueError(f"member {i} rank {graph.rank} != file rank {rank}")
        rep = rec.get("coset_rep", "")
        if not isinstance(rep, str):
            raise ValueError(f"member {i} 'coset_rep' must be a word")
        members.append(coset(graph, parse_word(rep, rank)))
    return PartitionSpec(rank, tuple(members))


def parse_z_file(obj) -> list:
    """The classes of a Z-system file as given; covering.normalize_z_classes
    checks each entry when they are verified."""
    if not isinstance(obj, dict) or "moduli" not in obj:
        raise ValueError("Z-system file needs 'moduli': [[modulus, residue], ...]")
    if not isinstance(obj["moduli"], list):
        raise ValueError("'moduli' must be a list of [modulus, residue] pairs")
    return obj["moduli"]


def z_classes_to_json(classes) -> list[list[int]]:
    return [[d, r] for d, r in classes]


def verdict_to_json(verdict: PartitionVerdict, rank: int | None) -> dict:
    witness = verdict.witness
    if isinstance(witness, tuple) and rank is not None:
        witness = format_word(witness, rank)
    return {
        "status": verdict.status,
        "witness": witness,
        "overlap_indices": list(verdict.overlap_indices)
        if verdict.overlap_indices
        else None,
    }


def member_report_to_json(report, rank: int) -> dict:
    return {
        "index": report.index,
        "period": report.period,
        "zero_multiplicity": report.zero_multiplicity,
        "coset_vertex": report.vertex,
        "coset_rep": format_word(report.rep, rank),
        "reciprocal_charpoly": poly_to_json(report.reciprocal_charpoly),
        "genfunc": ratfunc_to_json(report.genfunc),
    }


def _residue_entry_to_json(entry) -> dict:
    return {
        "period": entry["period"],
        "m": entry["m"],
        "value": cyclo_to_json(entry["value"]),
        "is_zero": entry["is_zero"],
    }


def analysis_report_to_json(report) -> dict:
    """The JSON form of a partition.AnalysisReport."""
    rank = report.spec.rank
    return {
        "kind": "partition_analysis",
        "rank": rank,
        "series_depth": report.series_depth,
        "input": partition_spec_to_json(report.spec),
        "members": [member_report_to_json(m, rank) for m in report.members],
        "partition": verdict_to_json(report.verdict, rank),
        "sum_identity": {
            "holds": report.sum_identity_holds,
            "residual": ratfunc_to_json(report.sum_residual),
        },
        "coefficient_identity": {
            "holds": report.coefficient_identity_holds,
            "depth": report.series_depth,
        },
        "theorem1": report.theorem1,
        "theorem2": report.theorem2,
        "residue_sums": [_residue_entry_to_json(e) for e in report.residue_sums],
        "lemma8": report.lemma8,
        "oracle": report.oracle,
        "all_checks_pass": report.all_checks_pass,
    }
