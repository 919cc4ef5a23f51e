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
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloNumber
from .partition import AnalysisReport, PartitionSpec, PartitionVerdict
from .poly import IntPolynomial
from .ratfunc import RationalFunction
from .schreier import SchreierGraph, coset, fold, from_permutations
from .words import check_rank, format_word, parse_word


def poly_to_json(p: IntPolynomial) -> list[str]:
    return [str(c) for c in p.coeffs]


def poly_from_json(coeffs) -> IntPolynomial:
    return IntPolynomial([int(c) for c in coeffs])


def ratfunc_to_json(f: RationalFunction) -> dict:
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def ratfunc_from_json(obj) -> RationalFunction:
    return RationalFunction(poly_from_json(obj["num"]), poly_from_json(obj["den"]))


def cyclo_to_json(x: CycloNumber) -> dict:
    return {"h": x.h, "coeffs": [str(c) for c in x.coeffs]}


def cyclo_from_json(obj) -> CycloNumber:
    return CycloNumber(obj["h"], [Fraction(c) for c in obj["coeffs"]])


def series_to_json(counts) -> list[str]:
    return [str(c) for c in counts]


def subgroup_to_json(graph: SchreierGraph) -> dict:
    return {"rank": graph.rank, "permutations": [list(p) for p in graph.action]}


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
        return fold(rank, [parse_word(text, rank) for text in gens])
    if "permutations" in obj:
        perms = obj["permutations"]
        if not isinstance(perms, list) or not all(isinstance(p, list) for p in perms):
            raise ValueError("'permutations' must be a list of lists")
        return from_permutations(rank, perms, obj.get("basepoint", 1))
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


def parse_z_file(obj) -> list[tuple[int, int]]:
    if not isinstance(obj, dict) or "moduli" not in obj:
        raise ValueError("Z-system file needs 'moduli': [[modulus, residue], ...]")
    out = []
    for i, pair in enumerate(obj["moduli"], start=1):
        if len(pair) != 2:
            raise ValueError(f"moduli entry {i} must be a [modulus, residue] pair")
        out.append((int(pair[0]), int(pair[1])))
    return out


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


def analysis_report_to_json(report: AnalysisReport) -> dict:
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
        "numeric_residues": list(report.numeric_residues)
        if report.numeric_residues is not None
        else None,
        "all_checks_pass": report.all_checks_pass,
    }
