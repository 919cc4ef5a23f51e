"""Command-line front end.

Commands:
  subgroup <file>   index, period, q(z), transversal, generating functions
  analyze <file>    full partition analysis with every identity check
  zanalyze <file>   covering system of Z, plus the lifted rank-1 machinery
  generate          emit a deterministic corpus partition file

Exit codes: 0 success and all checks pass; 1 operational error (unreadable
or malformed input); 2 not a partition / infinite index; 3 some theorem
instance or cross-check failed, which would contradict the theory and
deserves a close look.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formats, oracle
from .partition import (
    _davenport_rado_clauses,
    _theorem1_clauses,
    _theorem2_clauses,
    analyze,
    generate_partition,
    member_periods,
    verify_partition,
    z_lift,
    z_verify,
)
from .ratfunc import genfunc
from .schreier import InfiniteIndex, NotTransitive, coset, transversal
from .spectral import char_data, transition_matrix
from .words import InvalidLetter, format_word


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj: dict, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")


def _show_word(word, rank) -> str:
    return format_word(word, rank) or "ε"


def cmd_subgroup(args) -> int:
    graph = formats.parse_subgroup(_load_json(args.input))
    rank = graph.rank
    matrix = transition_matrix(graph)
    summary = char_data(matrix)
    reps = transversal(graph)
    gfs = [genfunc(graph, graph.basepoint, f) for f in range(1, graph.d + 1)]

    print(f"rank n = {rank}")
    print(f"index d = {graph.d}")
    print(f"period h = {summary.period}")
    print(f"q(z) = det(I - zA) = {summary.reciprocal_charpoly}")
    print(f"zero eigenvalue multiplicity = {summary.zero_multiplicity}")
    print("transversal:", ", ".join(_show_word(t, rank) for t in reps))
    for f, gf in enumerate(gfs, start=1):
        print(f"p[{_show_word(reps[f - 1], rank)}](z) = {gf}")

    report = {
        "kind": "subgroup_report",
        "rank": rank,
        "index": graph.d,
        "period": summary.period,
        "zero_multiplicity": summary.zero_multiplicity,
        "reciprocal_charpoly": formats.poly_to_json(summary.reciprocal_charpoly),
        "transition_matrix": [list(r) for r in matrix],
        "permutations": [list(p) for p in graph.action],
        "transversal": [format_word(t, rank) for t in reps],
        "genfuncs": [
            {
                "end_vertex": f,
                "coset_rep": format_word(reps[f - 1], rank),
                "genfunc": formats.ratfunc_to_json(gf),
                "series": formats.series_to_json(gf.series(args.series_depth)),
            }
            for f, gf in enumerate(gfs, start=1)
        ],
    }

    failed = False
    if args.oracle:
        depth = min(8, args.series_depth)
        counts_ok = all(
            oracle.count_by_enumeration(coset(graph, reps[f - 1]), depth)
            == gfs[f - 1].series(depth)
            for f in range(1, graph.d + 1)
        )
        period_ok = (
            oracle.period_by_cycles(graph) == summary.period
            if graph.d <= oracle.CYCLES_MAX_VERTICES
            else None
        )
        report["oracle"] = {"counts_agree": counts_ok, "period_agrees": period_ok}
        print(f"oracle counts agree: {counts_ok}; period agrees: {period_ok}")
        failed = not counts_ok or period_ok is False

    _emit(report, args.out)
    return 3 if failed else 0


def cmd_analyze(args) -> int:
    spec = formats.parse_partition_file(_load_json(args.input))
    report = analyze(
        spec,
        series_depth=args.series_depth,
        with_oracle=args.oracle,
        with_numeric_residues=args.numeric_residues,
    )
    rank = spec.rank

    print(f"rank n = {rank}, members s = {len(spec.members)}")
    print(f"indices: {[m.index for m in report.members]}")
    print(f"periods: {[m.period for m in report.members]}")
    verdict = report.verdict
    if verdict.ok:
        print("partition: yes")
    else:
        print(
            f"partition: NO ({verdict.status}, witness "
            f"{_show_word(verdict.witness, rank)!s}"
            + (
                f", members {verdict.overlap_indices}"
                if verdict.overlap_indices
                else ""
            )
            + ")"
        )
    print(f"sum identity sum p_i = 1/(1-{rank}z): {report.sum_identity_holds}")
    print(
        f"coefficient identity sum a_ik = {rank}^k up to k={report.series_depth}: "
        f"{report.coefficient_identity_holds}"
    )
    if verdict.ok:
        print(f"theorem 1 clauses pass: {report.theorem1['all_pass']}")
        print(f"theorem 2 clauses pass: {report.theorem2['all_pass']}")
        bad = [e for e in report.residue_sums if not e["is_zero"]]
        print(
            f"residue sums at scaled roots of unity: {len(report.residue_sums)} "
            f"checked, {len(bad)} nonzero"
        )
        print(f"pole-pair index diagnostic pass: {report.lemma8['all_pass']}")
    if report.oracle is not None:
        print(f"oracle agreement: {report.oracle['all_agree']}")

    _emit(formats.analysis_report_to_json(report), args.out)
    if not verdict.ok:
        print("NOT A PARTITION", file=sys.stderr)
        return 2
    if not report.all_checks_pass:
        print("THEOREM CHECK FAILED: this contradicts the theory", file=sys.stderr)
        return 3
    return 0


def cmd_zanalyze(args) -> int:
    classes = formats.parse_z_file(_load_json(args.input))
    verdict = z_verify(classes)
    print(f"classes: {formats.z_classes_to_json(classes)}")
    if verdict.ok:
        print("covering system partitions Z: yes")
    else:
        print(
            f"covering system partitions Z: NO ({verdict.status}, witness "
            f"{verdict.witness}"
            + (
                f", members {verdict.overlap_indices}"
                if verdict.overlap_indices
                else ""
            )
            + ")"
        )

    report = {
        "kind": "z_analysis",
        "moduli": formats.z_classes_to_json(classes),
        "partition": formats.verdict_to_json(verdict, None),
    }
    if not verdict.ok:
        _emit(report, args.out)
        print("NOT A PARTITION", file=sys.stderr)
        return 2

    # verified above: the clause builders take the moduli and periods directly
    dr = _davenport_rado_clauses([d for d, _ in classes])
    report["davenport_rado"] = dr
    if dr["applicable"]:
        print(
            f"largest modulus {dr['max_modulus']} appears {dr['max_count']} times: "
            f"{'pass' if dr['largest_repeats'] else 'FAIL'}"
        )
        print(
            "every modulus divides another: "
            f"{'pass' if all(e['ok'] for e in dr['divisibility']) else 'FAIL'}"
        )
    else:
        print("largest modulus is 1: repetition check vacuous")

    # agreement with the general machinery on the lifted rank-1 spec
    lifted = z_lift(classes)
    lifted_verdict = verify_partition(lifted)
    periods = member_periods(lifted)
    t1 = _theorem1_clauses(periods)
    t2 = _theorem2_clauses(periods, [m.graph.d for m in lifted.members])
    agreement = {
        "verdict_matches": lifted_verdict.status == verdict.status,
        "periods_equal_moduli": periods == [d for d, _ in classes],
        "theorem1_all_pass": t1["all_pass"],
        "theorem2_all_pass": t2["all_pass"],
    }
    report["lifted"] = {
        "partition": formats.verdict_to_json(lifted_verdict, 1),
        "periods": periods,
        "theorem1": t1,
        "theorem2": t2,
        "agreement": agreement,
    }
    lifted_ok = all(agreement.values())
    print(f"lifted rank-1 machinery agrees: {lifted_ok}")

    _emit(report, args.out)
    if not (dr["all_pass"] and lifted_ok):
        print("THEOREM CHECK FAILED: this contradicts the theory", file=sys.stderr)
        return 3
    return 0


def cmd_generate(args) -> int:
    spec = generate_partition(args.rank, args.depth, args.seed)
    obj = formats.partition_spec_to_json(spec)
    text = json.dumps(obj, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(
            f"wrote partition of F_{args.rank} with {len(spec.members)} members "
            f"to {args.out}"
        )
    else:
        sys.stdout.write(text)
    return 0


def _add_common(sub, with_numeric=True):
    sub.add_argument("--series-depth", type=int, default=20, metavar="K")
    sub.add_argument("--oracle", action="store_true", help="run brute-force cross-checks")
    if with_numeric:
        sub.add_argument(
            "--numeric-residues",
            action="store_true",
            help="add floating-point residue cross-checks (debugging aid)",
        )
    sub.add_argument("--out", metavar="PATH", help="write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetpart",
        description="Schreier automata, exact spectra, and coset-partition checks "
        "for free groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subgroup", help="analyze one finite-index subgroup")
    p.add_argument("input", help="subgroup JSON file")
    _add_common(p, with_numeric=False)
    p.set_defaults(func=cmd_subgroup)

    p = sub.add_parser("analyze", help="verify and analyze a coset partition")
    p.add_argument("input", help="partition JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("zanalyze", help="analyze a covering system of Z")
    p.add_argument("input", help="Z-system JSON file")
    _add_common(p, with_numeric=False)
    p.set_defaults(func=cmd_zanalyze)

    p = sub.add_parser("generate", help="emit a deterministic corpus partition")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: cannot read {exc.filename}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(
            f"error: JSON parse failure at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}",
            file=sys.stderr,
        )
        return 1
    except InfiniteIndex as exc:
        print(f"infinite index: {exc}", file=sys.stderr)
        return 2
    except (InvalidLetter, NotTransitive, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
