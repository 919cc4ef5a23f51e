"""`cosetpart subgroup <file>`: index, period, q(z), transversal and the
generating function of every coset of one finite-index subgroup.  The
command line front end (cli) imports this module only when the command
is chosen."""

from __future__ import annotations

from . import formats
from .formats import show_word
from .ratfunc import genfunc
from .schreier import coset, transversal
from .spectral import char_data, transition_matrix
from .words import format_word


def cmd_subgroup(args) -> int:
    graph = formats.parse_subgroup(formats.load_json(args.input))
    rank = graph.rank
    formats.check_series_depth(args.series_depth, rank)
    summary = char_data(graph)
    reps = transversal(graph)
    gfs = [genfunc(graph, f) for f in range(1, graph.d + 1)]

    print(f"rank n = {rank}")
    print(f"index d = {graph.d}")
    print(f"period h = {summary.period}")
    print(f"q(z) = det(I - zA) = {summary.reciprocal_charpoly}")
    print(f"zero eigenvalue multiplicity = {summary.zero_multiplicity}")
    print("transversal:", ", ".join(show_word(t, rank) for t in reps))
    for f, gf in enumerate(gfs, start=1):
        print(f"p[{show_word(reps[f - 1], rank)}](z) = {gf}")

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

    formats.write_report(report, args.out)
    return 3 if failed else 0
