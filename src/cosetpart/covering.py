"""Partition records, the theorem clauses and the integer certificate,
on the standard library and words alone.

PartitionVerdict, PartitionSpec and NotAPartition are the records every
checker shares.  The theorem clauses here read only integers (member
periods and indices), so the general checkers in the partition module
and `cosetpart zanalyze` build their reports with the same code: one
witness search and one repetition test build theorems 1 and 2, and the
Davenport-Rado clauses are read off theorem 1's report on the moduli.

The covering systems of the integers are the rank-1 specialization of
coset partitions: z_verify decides whether classes {d_i Z + r_i}
partition Z by the O(s^2) certificate of _z_verdict, which rank-1
verify_partition runs too, and davenport_rado_check reads the
Davenport-Rado repetition off theorem 1 on a verified system.  The gap
search behind a failed certificate is in the zcovering module, with
generate_z_covering; _z_verdict imports it only for a defect, so that
verifying a partition or a covering system never loads it.  The lift of
a system to Schreier graphs (partition.z_lift) is the tests' reference
for `cosetpart zanalyze`.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .words import check_rank

IS_PARTITION = "IsPartition"
OVERLAP = "Overlap"
GAP = "Gap"


class NotAPartition(Exception):
    """A theorem checker was handed a family that is not a partition."""

    def __init__(self, verdict: "PartitionVerdict"):
        self.verdict = verdict
        super().__init__(f"not a coset partition: {verdict.status}")


class PartitionVerdict(
    namedtuple(
        "PartitionVerdict",
        "status witness overlap_indices",
        defaults=(None, None),
    )
):
    """Outcome of a partition check.  For defects the witness is a word
    (or, for integer covering systems, the smallest violating integer)
    certified by membership tests; overlap_indices are the first two
    members containing the witness.  An immutable named tuple, equal to
    the plain tuple of its fields."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == IS_PARTITION


class PartitionSpec(namedtuple("PartitionSpec", "rank members")):
    """A family of cosets over a common rank, candidates for a partition:
    an immutable named tuple (rank, members), members a tuple of Cosets,
    equal to the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, rank, members):
        check_rank(rank)
        if not members:
            raise ValueError("a partition spec needs at least one member")
        for i, member in enumerate(members, start=1):
            if member.graph.rank != rank:
                raise ValueError(f"member {i} has rank {member.graph.rank} != {rank}")
        return tuple.__new__(cls, (rank, members))


# ---------------------------------------------------------------------------
# theorem clauses on the integers of a verified partition
#
# Every clause is built from one witness search (_divisor_witnesses) and one
# repetition test (_period_entry, and _index_entry within a set of members).
# Theorem 1 (i) is clause (ii)'s entry at the maximal period, theorem 2 (i)
# is clause (ii)'s test on the whole family, and Davenport-Rado is read off
# theorem 1 (i) and (iii) on the moduli of a covering system, which are its
# lift's periods: one witness search per covering system.


def _non_dividing_periods(periods: list[int]) -> list[int]:
    # periods > 1 that do not properly divide any period in the multiset;
    # the maximal period, if > 1, is the last
    return [
        h
        for h in sorted(set(periods))
        if h > 1 and not any(other > h and other % h == 0 for other in periods)
    ]


def _divisor_witnesses(values: list[int]) -> list[int | None]:
    # per member, the first other member (numbered from 1) whose value its
    # own divides, or None
    return [
        next((j for j, v in enumerate(values, start=1) if j != i and v % h == 0), None)
        for i, h in enumerate(values, start=1)
    ]


def _period_entry(periods: list[int], h: int) -> dict:
    # the members of period h, and whether there are at least two
    members = [i for i, p in enumerate(periods, start=1) if p == h]
    return {"period": h, "attainers": members, "ok": len(members) >= 2}


def _index_entry(members, periods: list[int], indices: list[int]) -> tuple:
    """The largest index among members, the members attaining it, those
    of them whose period equals it, and whether it repeats (None when that
    list is empty).  A member of index 1 is the whole group, which the
    theorem excludes, so it never counts as period equal to index."""
    top_index = max(indices[i - 1] for i in members)
    top = [i for i in members if indices[i - 1] == top_index]
    equal = [i for i in top if periods[i - 1] == top_index > 1]
    return top_index, top, equal, (len(top) >= 2) if equal else None


def _status(oks: list) -> str:
    # a clause's status from its entries' verdicts, None for not applicable
    if not oks:
        return "vacuous"
    if all(ok is None for ok in oks):
        return "not_applicable"
    return "fail" if False in oks else "pass"


def _clause(entries: list[dict]) -> dict:
    return {"status": _status([e["ok"] for e in entries]), "entries": entries}


def _theorem1_clauses(periods: list[int]) -> dict:
    """partition.theorem1_check on the member periods of a verified
    partition."""
    entries_ii = [_period_entry(periods, h) for h in _non_dividing_periods(periods)]
    if entries_ii:
        top = entries_ii[-1]
        clause_i = {
            "status": _status([top["ok"]]),
            "max_period": top["period"],
            "attainers": top["attainers"],
        }
    else:
        clause_i = {"status": "vacuous", "max_period": 1, "attainers": []}

    entries_iii = [
        {"member": i, "period": h, "witness": w, "ok": w is not None}
        for i, (h, w) in enumerate(zip(periods, _divisor_witnesses(periods)), start=1)
    ] if len(periods) > 1 else []

    clauses = {
        "clause_i": clause_i,
        "clause_ii": _clause(entries_ii),
        "clause_iii": _clause(entries_iii),
    }
    return {
        "periods": periods,
        **clauses,
        "all_pass": all(c["status"] != "fail" for c in clauses.values()),
    }


def _theorem2_clauses(periods: list[int], indices: list[int]) -> dict:
    """partition.theorem2_check on the member periods and indices of a
    verified partition."""
    dmax, attain, equal, ok = _index_entry(range(1, len(periods) + 1), periods, indices)
    clause_i = {
        "status": _status([ok]),
        "max_index": dmax,
        "attainers": attain,
        "period_equals_index_at": equal,
    }

    entries = []
    for h in _non_dividing_periods(periods):
        group = _period_entry(periods, h)["attainers"]
        dj, _, equal, ok = _index_entry(group, periods, indices)
        entries.append({
            "period": h,
            "attainers": group,
            "max_index_in_group": dj,
            "period_equals_index_at": equal,
            "applicable": bool(equal),
            "ok": ok,
        })
    clause_ii = _clause(entries)

    return {
        "periods": periods,
        "indices": indices,
        "clause_i": clause_i,
        "clause_ii": clause_ii,
        "all_pass": clause_i["status"] != "fail" and clause_ii["status"] != "fail",
    }


def _davenport_rado_clauses(theorem1: dict) -> dict:
    """davenport_rado_check read off _theorem1_clauses on the moduli of a
    verified covering system: clauses (i) and (iii) under Davenport and
    Rado's names.  On a covering the largest modulus is 1 only for Z
    itself, one class, where both clauses are vacuous."""
    top, divisibility = theorem1["clause_i"], theorem1["clause_iii"]
    applicable = top["status"] != "vacuous"
    return {
        "applicable": applicable,
        "max_modulus": top["max_period"],
        "max_count": len(top["attainers"] if applicable else theorem1["periods"]),
        "largest_repeats": top["status"] == "pass" if applicable else None,
        "divisibility": [
            {"member": e["member"], "modulus": e["period"],
             "divides_member": e["witness"], "ok": e["ok"]}
            for e in divisibility["entries"]
        ] if applicable else [],
        "all_pass": top["status"] != "fail" and divisibility["status"] != "fail",
    }


# ---------------------------------------------------------------------------
# covering systems of the integers (the rank-1 specialization)


def _is_int(value) -> bool:
    # bool is a subclass of int, and JSON true/false arrive as bool
    return isinstance(value, int) and not isinstance(value, bool)


def normalize_z_classes(classes) -> tuple[tuple[int, int], ...]:
    out = []
    for i, pair in enumerate(classes, start=1):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"moduli entry {i} must be a [modulus, residue] pair")
        d, r = pair
        if not (_is_int(d) and _is_int(r)):
            raise ValueError(f"moduli entry {i} must hold two integers, got {[d, r]!r}")
        if d < 1:
            raise ValueError(f"modulus must be a positive integer, got {d!r}")
        out.append((d, r % d))
    if not out:
        raise ValueError("a covering system needs at least one class")
    return tuple(out)


def z_verify(classes) -> PartitionVerdict:
    """Exact check that residue classes {d_i Z + r_i} partition Z; a
    defect's witness is the smallest violating integer x >= 0, and an
    overlap names the first two classes containing it (see _z_verdict)."""
    return _z_verdict(normalize_z_classes(classes))


def _z_verdict(classes) -> PartitionVerdict:
    """z_verify on classes (d, r) with 0 <= r < d.

    Certificate, O(s^2) in the number of classes: the classes are pairwise
    disjoint (r_i and r_j differ mod gcd(d_i, d_j)) and their densities
    sum to 1 (sum_i L/d_i = L for L = lcm(d_i)), so mod L they cover L
    distinct residues, i.e. all of them.

    When it fails, the smallest overlap is the least common element of
    some pair with r_i = r_j (mod g), g = gcd(d_i, d_j): by the Chinese
    remainder theorem x = r_i + d_i t with t = (r_j - r_i)/g times the
    inverse of d_i/g mod d_j/g, the least such x >= 0.  The smallest gap
    is searched only below that overlap (below L if there is none), by
    _first_gap.  Like the residue scan it replaces, that search is still
    linear in the worst case, one progression per integer below the first
    overlap, but it skips every progression one class covers whole:
    {2Z, 2Z + 1, (10^9 + 1)Z + 10^9} is decided at once, an overlap at
    10^9, where the scan took 10^9 steps.
    """
    first_overlap = None
    for (d, r), (d2, r2) in itertools.combinations(classes, 2):
        g = math.gcd(d, d2)
        if (r2 - r) % g == 0:
            m = d2 // g
            x = r + d * ((r2 - r) // g * pow(d // g, -1, m) % m)
            if first_overlap is None or x < first_overlap:
                first_overlap = x
    if first_overlap is None:
        lcm = math.lcm(*(d for d, _ in classes))
        if sum(lcm // d for d, _ in classes) == lcm:
            return PartitionVerdict(IS_PARTITION)
    from .zcovering import _first_gap  # local: only a defect searches for a gap

    # disjoint classes of density below 1 leave a gap below L
    gap = _first_gap(classes, lcm if first_overlap is None else first_overlap)
    if gap is not None:
        return PartitionVerdict(GAP, witness=gap)
    assert first_overlap is not None, "disjoint classes of density < 1 leave a gap"
    covering = [i for i, (d, r) in enumerate(classes, start=1) if first_overlap % d == r]
    return PartitionVerdict(
        OVERLAP, witness=first_overlap, overlap_indices=(covering[0], covering[1])
    )


def davenport_rado_check(classes) -> dict:
    """On a verified covering system with maximal modulus > 1: the largest
    modulus occurs at least twice, and every modulus divides another
    (theorem 1 (i) and (iii) on the moduli)."""
    classes = normalize_z_classes(classes)
    verdict = _z_verdict(classes)
    if not verdict.ok:
        raise NotAPartition(verdict)
    return _davenport_rado_clauses(_theorem1_clauses([d for d, _ in classes]))
