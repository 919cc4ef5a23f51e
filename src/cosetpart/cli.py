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

Each command imports only what it runs.  The analyze handler is here and
imports the partition checks when it runs; every other command's handler
is a module of its own (cli_subgroup, cli_zanalyze, cli_generate), with
the library modules it runs, which main imports only when that command
is chosen.  So an analyze child compiles no other command's code,
zanalyze and generate load no polynomial arithmetic, and subgroup and
zanalyze neither the partition checks nor the corpus.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formats
from .formats import WriteFailed, check_series_depth, show_word, verdict_line
from .schreier import InfiniteIndex, NotTransitive
from .words import InvalidLetter


def cmd_analyze(args) -> int:
    from .partition import analyze

    spec = formats.parse_partition_file(formats.load_json(args.input))
    check_series_depth(args.series_depth, spec.rank)
    report = analyze(spec, series_depth=args.series_depth, with_oracle=args.oracle)
    rank = spec.rank

    print(f"rank n = {rank}, members s = {len(spec.members)}")
    print(f"indices: {[m.index for m in report.members]}")
    print(f"periods: {[m.period for m in report.members]}")
    verdict = report.verdict
    print(verdict_line("partition", verdict, lambda w: show_word(w, rank)))
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

    formats.write_report(formats.analysis_report_to_json(report), args.out)
    if not verdict.ok:
        print("NOT A PARTITION", file=sys.stderr)
        return 2
    if not report.all_checks_pass:
        print("THEOREM CHECK FAILED: this contradicts the theory", file=sys.stderr)
        return 3
    return 0


def _depth(text: str) -> int:
    """argparse type of --series-depth: an integer >= 0, checked before any
    command runs; the command checks the bound of its input's rank
    (formats.check_series_depth)."""
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

    p = sub.add_parser("analyze", help="verify and analyze a coset partition")
    p.add_argument("input", help="partition JSON file")
    _add_common(p, series=True)

    p = sub.add_parser("zanalyze", help="analyze a covering system of Z")
    p.add_argument("input", help="Z-system JSON file")
    # no series and no cross-check to run: neither --series-depth nor --oracle
    _add_common(p, series=False)

    p = sub.add_parser("generate", help="emit a deterministic corpus partition")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", metavar="PATH")

    return parser


def _handler(command: str):
    """The chosen command's handler, its module imported only now."""
    if command == "subgroup":
        from .cli_subgroup import cmd_subgroup

        return cmd_subgroup
    if command == "zanalyze":
        from .cli_zanalyze import cmd_zanalyze

        return cmd_zanalyze
    if command == "generate":
        from .cli_generate import cmd_generate

        return cmd_generate
    return cmd_analyze


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _handler(args.command)(args)
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
