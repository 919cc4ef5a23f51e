"""Command-line front end.

Commands:
  subgroup <file>   index, period, q(z), transversal, generating functions
  analyze <file>    full partition analysis with every identity check
  zanalyze <file>   covering system of Z: certificate and period theorems
  generate          emit a deterministic corpus partition file

Exit codes: 0 success and all checks pass; 1 operational error (usage
error, unreadable or malformed input, unwritable --out); 2 not a
partition / infinite index; 3 some theorem instance or cross-check
failed, which would contradict the theory and deserves a close look.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formats
from .schreier import InfiniteIndex, NotTransitive
from .words import InvalidLetter, format_word

# Each command imports the library modules it runs when it runs, so a child
# process loads only those: zanalyze and generate no polynomial arithmetic,
# subgroup and zanalyze neither the partition checks nor the corpus.


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            # the decoder recurses once per open bracket
            raise ValueError(f"JSON nested too deeply in {path}") from None


class WriteFailed(Exception):
    """An output file could not be written: (path, reason)."""


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise WriteFailed(path, exc.strerror or str(exc)) from exc


def _emit(obj: dict, out_path: str | None) -> None:
    if out_path:
        _write_text(out_path, json.dumps(obj, indent=2) + "\n")


def _show_word(word, rank) -> str:
    return format_word(word, rank) or "ε"


def _print_verdict(label: str, verdict, show_witness) -> None:
    """"label: yes", or "label: NO (status, witness W, members (i, j))"
    with W = show_witness(verdict.witness) and the members only on an
    overlap."""
    if verdict.ok:
        print(f"{label}: yes")
        return
    members = f", members {verdict.overlap_indices}" if verdict.overlap_indices else ""
    witness = show_witness(verdict.witness)
    print(f"{label}: NO ({verdict.status}, witness {witness}{members})")


def cmd_subgroup(args) -> int:
    from .ratfunc import genfunc
    from .schreier import coset, transversal
    from .spectral import char_data, transition_matrix

    graph = formats.parse_subgroup(_load_json(args.input))
    rank = graph.rank
    summary = char_data(graph)
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
        "transition_matrix": [list(r) for r in transition_matrix(graph)],
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
        from . import oracle  # local: only --oracle needs the brute-force routes

        depth = min(oracle.count_depth(rank), args.series_depth)
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
    from .partition import analyze

    spec = formats.parse_partition_file(_load_json(args.input))
    report = analyze(spec, series_depth=args.series_depth, with_oracle=args.oracle)
    rank = spec.rank

    print(f"rank n = {rank}, members s = {len(spec.members)}")
    print(f"indices: {[m.index for m in report.members]}")
    print(f"periods: {[m.period for m in report.members]}")
    verdict = report.verdict
    _print_verdict("partition", verdict, lambda w: _show_word(w, rank))
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
    from .covering import (
        _davenport_rado_clauses,
        _theorem1_clauses,
        _theorem2_clauses,
        z_verify,
    )

    classes = formats.parse_z_file(_load_json(args.input))
    verdict = z_verify(classes)
    print(f"classes: {formats.z_classes_to_json(classes)}")
    _print_verdict("covering system partitions Z", verdict, str)

    report = {
        "kind": "z_analysis",
        "moduli": formats.z_classes_to_json(classes),
        "partition": formats.verdict_to_json(verdict, None),
    }
    if not verdict.ok:
        _emit(report, args.out)
        print("NOT A PARTITION", file=sys.stderr)
        return 2

    # verified above: the clause builders take the moduli directly
    moduli = [d for d, _ in classes]
    dr = _davenport_rado_clauses(moduli)
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

    # Lemma: z_lift puts dZ + r at vertex r + 1 of the directed d-cycle, whose
    # period is d and where that vertex has cyclic class r.  So the lift has
    # the certificate's verdict and the moduli as periods, and no cycle need
    # be built; the tests compare this section with the lift itself.
    t1 = _theorem1_clauses(moduli)
    t2 = _theorem2_clauses(moduli, moduli)
    agreement = {
        "verdict_matches": True,
        "periods_equal_moduli": True,
        "theorem1_all_pass": t1["all_pass"],
        "theorem2_all_pass": t2["all_pass"],
    }
    report["lifted"] = {
        "partition": formats.verdict_to_json(verdict, None),
        "periods": moduli,
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
    from .corpus import generate_partition

    spec = generate_partition(args.rank, args.depth, args.seed)
    obj = formats.partition_spec_to_json(spec)
    text = json.dumps(obj, indent=2) + "\n"
    if args.out:
        _write_text(args.out, text)
        print(
            f"wrote partition of F_{args.rank} with {len(spec.members)} members "
            f"to {args.out}"
        )
    else:
        sys.stdout.write(text)
    return 0


def _depth(text: str) -> int:
    """argparse type of --series-depth: a nonnegative integer, checked
    before any command runs."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"depth must be >= 0, got {value}")
    return value


def _add_common(sub, series: bool):
    if series:
        sub.add_argument("--series-depth", type=_depth, default=20, metavar="K")
        sub.add_argument("--oracle", action="store_true", help="run brute-force cross-checks")
    sub.add_argument("--out", metavar="PATH", help="write the JSON report here")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, an operational error: argparse's own exit 2
    would read as "not a partition".  Subcommand parsers inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cosetpart",
        description="Schreier automata, exact spectra, and coset-partition checks "
        "for free groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subgroup", help="analyze one finite-index subgroup")
    p.add_argument("input", help="subgroup JSON file")
    _add_common(p, series=True)
    p.set_defaults(func=cmd_subgroup)

    p = sub.add_parser("analyze", help="verify and analyze a coset partition")
    p.add_argument("input", help="partition JSON file")
    _add_common(p, series=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("zanalyze", help="analyze a covering system of Z")
    p.add_argument("input", help="Z-system JSON file")
    # no series and no cross-check to run: neither --series-depth nor --oracle
    _add_common(p, series=False)
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
    except WriteFailed as exc:
        path, reason = exc.args
        print(f"error: cannot write {path}: {reason}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: cannot read {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        if exc.filename is None:
            # a standard stream failed, e.g. stdout closed early by `| head`
            print(f"error: {exc.strerror or exc}", file=sys.stderr)
        else:
            print(f"error: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
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
