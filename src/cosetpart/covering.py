"""Partition records, the theorem clauses and the integer certificate,
on the standard library and words alone.

PartitionVerdict, PartitionSpec and NotAPartition are the records every
checker shares.  The theorem clauses here read only integers (member
periods and indices), so the general checkers in the partition module
and `cosetpart zanalyze` build their reports with the same code.

The covering systems of the integers are the rank-1 specialization of
coset partitions: z_verify decides whether classes {d_i Z + r_i}
partition Z by the O(s^2) certificate of _z_verdict, which rank-1
verify_partition runs too, and davenport_rado_check tests the
Davenport-Rado repetition on a verified system.  What only covering
systems need (the gap search behind a failed certificate, the
Davenport-Rado clauses, generate_z_covering) is the zcovering module,
which these functions import when they reach it, so that analysing a
partition of rank >= 2 never loads it.  The lift of a system to Schreier
graphs (partition.z_lift) is the tests' reference for `cosetpart
zanalyze`.
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


def _non_dividing_periods(periods: list[int]) -> list[int]:
    # periods > 1 that do not properly divide any period in the multiset
    return [
        h
        for h in sorted(set(periods))
        if h > 1 and not any(other > h and other % h == 0 for other in periods)
    ]


def _theorem1_clauses(periods: list[int]) -> dict:
    """partition.theorem1_check on the member periods of a verified
    partition."""
    s = len(periods)
    hmax = max(periods)

    if hmax == 1:
        clause_i = {"status": "vacuous", "max_period": 1, "attainers": []}
    else:
        attainers = [i for i, h in enumerate(periods, start=1) if h == hmax]
        clause_i = {
            "status": "pass" if len(attainers) >= 2 else "fail",
            "max_period": hmax,
            "attainers": attainers,
        }

    entries_ii = []
    for h in _non_dividing_periods(periods):
        members = [i for i, p in enumerate(periods, start=1) if p == h]
        entries_ii.append(
            {"period": h, "attainers": members, "ok": len(members) >= 2}
        )
    clause_ii = {
        "status": "vacuous"
        if not entries_ii
        else ("pass" if all(e["ok"] for e in entries_ii) else "fail"),
        "entries": entries_ii,
    }

    if s == 1:
        clause_iii = {"status": "vacuous", "entries": []}
    else:
        entries_iii = []
        for i, h in enumerate(periods, start=1):
            witness = next(
                (j for j, p in enumerate(periods, start=1) if j != i and p % h == 0),
                None,
            )
            entries_iii.append(
                {"member": i, "period": h, "witness": witness, "ok": witness is not None}
            )
        clause_iii = {
            "status": "pass" if all(e["ok"] for e in entries_iii) else "fail",
            "entries": entries_iii,
        }

    return {
        "periods": periods,
        "clause_i": clause_i,
        "clause_ii": clause_ii,
        "clause_iii": clause_iii,
        "all_pass": all(
            c["status"] != "fail" for c in (clause_i, clause_ii, clause_iii)
        ),
    }


def _theorem2_clauses(periods: list[int], indices: list[int]) -> dict:
    """partition.theorem2_check on the member periods and indices of a
    verified partition."""
    dmax = max(indices)
    attain = [i for i, d in enumerate(indices, start=1) if d == dmax]
    # the theorem assumes every index exceeds 1; a member of index 1 is the
    # whole group, forcing the trivial one-member partition
    triggers = [i for i in attain if dmax > 1 and periods[i - 1] == indices[i - 1]]
    if not triggers:
        clause_i = {
            "status": "not_applicable",
            "max_index": dmax,
            "attainers": attain,
            "period_equals_index_at": [],
        }
    else:
        clause_i = {
            "status": "pass" if len(attain) >= 2 else "fail",
            "max_index": dmax,
            "attainers": attain,
            "period_equals_index_at": triggers,
        }

    candidates = set(_non_dividing_periods(periods))
    if max(periods) > 1:
        candidates.add(max(periods))
    entries = []
    for h in sorted(candidates):
        group = [i for i, p in enumerate(periods, start=1) if p == h]
        dj = max(indices[i - 1] for i in group)
        top = [i for i in group if indices[i - 1] == dj]
        trig = [i for i in top if periods[i - 1] == indices[i - 1]]
        entry = {
            "period": h,
            "attainers": group,
            "max_index_in_group": dj,
            "period_equals_index_at": trig,
            "applicable": bool(trig),
            "ok": (len(top) >= 2) if trig else None,
        }
        entries.append(entry)
    clause_ii = {
        "status": "vacuous"
        if not entries
        else (
            "not_applicable"
            if not any(e["applicable"] for e in entries)
            else ("pass" if all(e["ok"] is not False for e in entries) else "fail")
        ),
        "entries": entries,
    }

    return {
        "periods": periods,
        "indices": indices,
        "clause_i": clause_i,
        "clause_ii": clause_ii,
        "all_pass": clause_i["status"] != "fail" and clause_ii["status"] != "fail",
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
    modulus occurs at least twice, and every modulus divides another."""
    from .zcovering import _davenport_rado_clauses

    classes = normalize_z_classes(classes)
    verdict = _z_verdict(classes)
    if not verdict.ok:
        raise NotAPartition(verdict)
    return _davenport_rado_clauses([d for d, _ in classes])
