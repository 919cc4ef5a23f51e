"""`cosetpart zanalyze <file>`: the certificate and the Davenport-Rado and
period theorems on a covering system of Z.  Davenport-Rado is read off
theorem 1's report on the moduli, one witness search; the clause builders
are covering's.
The command line front end (cli) imports this module only when the
command is chosen, and on a verified system it loads words, schreier,
covering and formats, never zcovering."""

from __future__ import annotations

import sys

from . import covering, formats
from .covering import _davenport_rado_clauses, _theorem1_clauses, _theorem2_clauses
from .formats import verdict_line


def cmd_zanalyze(args) -> int:
    classes = formats.parse_z_file(formats.load_json(args.input))
    verdict = covering.z_verify(classes)
    print(f"classes: {formats.z_classes_to_json(classes)}")
    print(verdict_line("covering system partitions Z", verdict, str))

    report = {
        "kind": "z_analysis",
        "moduli": formats.z_classes_to_json(classes),
        "partition": formats.verdict_to_json(verdict, None),
    }
    if not verdict.ok:
        formats.write_report(report, args.out)
        print("NOT A PARTITION", file=sys.stderr)
        return 2

    # verified above: the clause builders take the moduli directly
    moduli = [d for d, _ in classes]
    t1 = _theorem1_clauses(moduli)
    dr = _davenport_rado_clauses(t1)
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

    formats.write_report(report, args.out)
    if not (dr["all_pass"] and lifted_ok):
        print("THEOREM CHECK FAILED: this contradicts the theory", file=sys.stderr)
        return 3
    return 0
