"""Coset partitions of a free group: verification and identity checking.

A partition spec is a family of cosets H_i * rep_i, each carried by the
Schreier graph of its subgroup.  verify_partition decides disjoint-cover
exactly by walking the orbit of the tuple of basepoints under the
componentwise letter actions: the family partitions the group iff every
reachable tuple sits on exactly one member's accept vertex, and a
violating tuple yields a certifying witness word.

On genuine partitions the checkers test the consequences the theory
predicts: the generating functions sum to 1/(1-nz) with the counting
identity n^k = sum_i a_{i,k}; the maximal period repeats, as does every
period that does not properly divide another, and every period divides
some other member's period; the residues of the members' generating
functions at each scaled root of unity sum to zero; and when the
largest-index member attains its period as index, the largest index
repeats.  The classical covering systems of the integers are the rank-1
specialization, handled both directly (z_verify) and through the general
machinery (z_to_schreier).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import deque
from dataclasses import dataclass

from .cyclo import CycloNumber, pole_multiplicity, residue_at, residue_numeric
from .poly import IntPolynomial, poly_gcd
from .ratfunc import ZERO, RationalFunction, genfunc, geometric, series_from_matrix
from .schreier import (
    Coset,
    SchreierGraph,
    coset,
    resolve,
    subgroup_coset,
    transversal,
    trivial_graph,
)
from .spectral import char_data, period, transition_matrix
from .words import Word, check_rank, concat

IS_PARTITION = "IsPartition"
OVERLAP = "Overlap"
GAP = "Gap"

MAX_REFINED_INDEX = 20  # keeps every generated member's exact analysis cheap
_MAX_TRIES = 24


class NotAPartition(Exception):
    """A theorem checker was handed a family that is not a partition."""

    def __init__(self, verdict: "PartitionVerdict"):
        self.verdict = verdict
        super().__init__(f"not a coset partition: {verdict.status}")


@dataclass(frozen=True)
class PartitionVerdict:
    """Outcome of a partition check.  For defects the witness is a word
    (or, for integer covering systems, the smallest violating integer)
    certified by membership tests; overlap_indices are the first two
    members containing the witness."""

    status: str
    witness: object = None
    overlap_indices: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.status == IS_PARTITION


@dataclass(frozen=True)
class PartitionSpec:
    """A family of cosets over a common rank, candidates for a partition."""

    rank: int
    members: tuple[Coset, ...]

    def __post_init__(self):
        check_rank(self.rank)
        if not self.members:
            raise ValueError("a partition spec needs at least one member")
        for i, member in enumerate(self.members, start=1):
            if member.graph.rank != self.rank:
                raise ValueError(f"member {i} has rank {member.graph.rank} != {self.rank}")


def verify_partition(spec: PartitionSpec) -> PartitionVerdict:
    """Exact disjoint-cover check by product-orbit BFS.

    The orbit of the basepoint tuple under the componentwise permutation
    actions is finite and every group element realises exactly the tuples
    in it (letter actions are bijections, so the monoid orbit equals the
    group orbit).  Each tuple records only its BFS parent and the letter
    leading from it, so the walk takes time and memory linear in the orbit
    size times the number of members; a witness word is read back along
    the parent pointers only when a defect is found.  Witness words are
    shortest, ties broken shortlex.
    """
    members = spec.members
    # 0-based vertices throughout; rows[a][i] is letter a + 1 acting on member i
    accepts = tuple(m.vertex - 1 for m in members)
    rows = tuple(
        tuple(tuple(v - 1 for v in m.graph.action[a]) for m in members)
        for a in range(spec.rank)
    )
    start = tuple(m.graph.basepoint - 1 for m in members)
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {start: None}
    queue = deque([start])
    while queue:
        tup = queue.popleft()
        if sum(map(operator.eq, tup, accepts)) != 1:
            hits = [i for i, v in enumerate(tup, start=1) if v == accepts[i - 1]]
            witness = _orbit_word(parent, tup)
            if not hits:
                return PartitionVerdict(GAP, witness=witness)
            return PartitionVerdict(
                OVERLAP, witness=witness, overlap_indices=(hits[0], hits[1])
            )
        for letter, row in enumerate(rows, start=1):
            nxt = tuple(map(tuple.__getitem__, row, tup))
            if nxt not in parent:
                parent[nxt] = (tup, letter)
                queue.append(nxt)
    return PartitionVerdict(IS_PARTITION)


def _orbit_word(parent: dict, tup: tuple[int, ...]) -> Word:
    """The BFS word reaching tup: its letters read back along the parent
    pointers, then reversed."""
    letters = []
    while (link := parent[tup]) is not None:
        tup, letter = link
        letters.append(letter)
    return tuple(reversed(letters))


def _require_partition(spec: PartitionSpec) -> None:
    verdict = verify_partition(spec)
    if not verdict.ok:
        raise NotAPartition(verdict)


def member_genfunc(member: Coset) -> RationalFunction:
    return genfunc(member.graph, member.graph.basepoint, member.vertex)


def check_sum_identity(spec: PartitionSpec) -> tuple[bool, RationalFunction]:
    """Exact test of sum_i p_i(z) = 1/(1-nz); returns the residual too."""
    total = ZERO
    for member in spec.members:
        total = total + member_genfunc(member)
    residual = total - geometric(spec.rank)
    return residual.is_zero(), residual


def check_coefficient_identity(spec: PartitionSpec, depth: int) -> bool:
    """sum_i a_{i,k} = n^k for all k <= depth, from exact matrix powers."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    totals = [0] * (depth + 1)
    for member in spec.members:
        counts = series_from_matrix(
            member.graph, member.graph.basepoint, member.vertex, depth
        )
        for k, c in enumerate(counts):
            totals[k] += c
    return all(totals[k] == spec.rank**k for k in range(depth + 1))


def member_periods(spec: PartitionSpec) -> list[int]:
    return [period(m.graph) for m in spec.members]


def _non_dividing_periods(periods: list[int]) -> list[int]:
    # periods > 1 that do not properly divide any period in the multiset
    return [
        h
        for h in sorted(set(periods))
        if h > 1 and not any(other > h and other % h == 0 for other in periods)
    ]


def theorem1_check(spec: PartitionSpec) -> dict:
    """Period repetition clauses on a verified partition:
    (i) the maximal period > 1 is attained at least twice;
    (ii) every period > 1 that does not properly divide another period
         occurs at least twice;
    (iii) every period divides (or equals) some other member's period.
    """
    _require_partition(spec)
    return _theorem1_clauses(member_periods(spec))


def _theorem1_clauses(periods: list[int]) -> dict:
    """theorem1_check on the member periods of a verified partition."""
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


def theorem2_check(spec: PartitionSpec) -> dict:
    """Index repetition clauses on a verified partition:
    (i) if a member of maximal index attains its index as period, the
        maximal index repeats;
    (ii) for the maximal period (and for every period not properly
        dividing another), restrict to its attainers J: if a member of
        maximal index within J attains its index as period, that index
        repeats within J.
    Several members may tie for the maximal index; any of them counts as
    a witness and all attainers are reported.
    """
    _require_partition(spec)
    return _theorem2_clauses(member_periods(spec), [m.graph.d for m in spec.members])


def _theorem2_clauses(periods: list[int], indices: list[int]) -> dict:
    """theorem2_check on the member periods and indices of a verified
    partition."""
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


def residue_sum_check(spec: PartitionSpec, h: int, m: int) -> CycloNumber:
    """Exact sum, over the members whose generating function has a pole at
    z0 = zeta_h^m / n, of the residues there.

    Zero on genuine partitions whenever h > 1; for h = 1 the point 1/n is
    a pole of 1/(1-nz) itself and the sum is its residue -1/n.  The pole
    set is the same for every m coprime to h, so the sum is computed at
    zeta_h / n and carried to z0 by the Galois automorphism sigma_m.
    """
    if h < 1 or math.gcd(m, h) != 1:
        raise ValueError(f"m = {m} must be coprime to h = {h}")
    total = CycloNumber.zero(h)
    for member in spec.members:
        value = residue_at(member_genfunc(member), h, 1, spec.rank)
        if value is not None:
            total = total + value
    return total.conjugate(m)


def _strip_common_factors(g: IntPolynomial, other: IntPolynomial) -> IntPolynomial:
    common = poly_gcd(g, other)
    while common.degree >= 1:
        g = g.exact_div(common)
        common = poly_gcd(g, other)
    return g


def lemma8_diagnostic(spec: PartitionSpec) -> dict:
    """For every pole class attained by exactly two members {j, k}: report
    their zero-eigenvalue multiplicities, and when both vanish or both
    equal the member's period, assert the index equality d_j = d_k that
    the theory predicts for such pairs."""
    _require_partition(spec)
    return _lemma8_clauses([_member_report(m) for m in spec.members])


def _lemma8_clauses(reports: list[MemberReport]) -> dict:
    """lemma8_diagnostic on the member reports of a verified partition."""
    dens = [r.genfunc.den for r in reports]
    s = len(reports)
    entries = []
    for j, k in itertools.combinations(range(s), 2):
        shared = poly_gcd(dens[j], dens[k])
        if shared.degree < 1:
            continue
        exclusive = shared
        for l in range(s):
            if l in (j, k):
                continue
            exclusive = _strip_common_factors(exclusive, dens[l])
            if exclusive.degree < 1:
                break
        if exclusive.degree < 1:
            continue
        n0j, n0k = reports[j].zero_multiplicity, reports[k].zero_multiplicity
        hj, hk = reports[j].period, reports[k].period
        dj, dk = reports[j].index, reports[k].index
        hypothesis = (n0j == 0 and n0k == 0) or (n0j == hj and n0k == hk)
        entries.append(
            {
                "pair": (j + 1, k + 1),
                "zero_multiplicities": (n0j, n0k),
                "periods": (hj, hk),
                "indices": (dj, dk),
                "hypothesis_met": hypothesis,
                "indices_equal": (dj == dk) if hypothesis else None,
                "ok": (dj == dk) if hypothesis else True,
            }
        )
    return {"entries": entries, "all_pass": all(e["ok"] for e in entries)}


# ---------------------------------------------------------------------------
# covering systems of the integers (the rank-1 specialization)


def normalize_z_classes(classes) -> tuple[tuple[int, int], ...]:
    out = []
    for d, r in classes:
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"modulus must be a positive integer, got {d!r}")
        out.append((d, r % d))
    if not out:
        raise ValueError("a covering system needs at least one class")
    return tuple(out)


def z_verify(classes) -> PartitionVerdict:
    """Exact check that residue classes {d_i Z + r_i} partition Z.

    Certificate, O(s^2) in the number of classes: the classes are pairwise
    disjoint (r_i and r_j differ mod gcd(d_i, d_j)) and their densities
    sum to 1 (sum_i L/d_i = L for L = lcm(d_i)), so mod L they cover L
    distinct residues, i.e. all of them.  Only when the certificate fails
    are the residues mod L scanned, to return the smallest violating
    integer as the witness.
    """
    classes = normalize_z_classes(classes)
    lcm = math.lcm(*(d for d, _ in classes))
    if sum(lcm // d for d, _ in classes) == lcm and all(
        (r - r2) % math.gcd(d, d2)
        for (d, r), (d2, r2) in itertools.combinations(classes, 2)
    ):
        return PartitionVerdict(IS_PARTITION)
    for x in range(lcm):
        covering = [i for i, (d, r) in enumerate(classes, start=1) if x % d == r]
        if not covering:
            return PartitionVerdict(GAP, witness=x)
        if len(covering) > 1:
            return PartitionVerdict(
                OVERLAP, witness=x, overlap_indices=(covering[0], covering[1])
            )
    raise AssertionError("residue scan found no defect the certificate missed")


def z_to_schreier(d: int, r: int) -> tuple[SchreierGraph, Coset]:
    """Lift the residue class dZ + r to the rank-1 machinery: the Schreier
    graph of dZ is the directed d-cycle and the coset vertex sits r steps
    past the basepoint.  The transition matrix has period exactly d."""
    if d < 1:
        raise ValueError("modulus must be >= 1")
    r %= d
    cycle = tuple(v % d + 1 for v in range(1, d + 1))
    graph = SchreierGraph((cycle,))
    return graph, coset(graph, (1,) * r)


def z_lift(classes) -> PartitionSpec:
    """The general-machinery view of an integer covering system."""
    classes = normalize_z_classes(classes)
    return PartitionSpec(1, tuple(z_to_schreier(d, r)[1] for d, r in classes))


def davenport_rado_check(classes) -> dict:
    """On a verified covering system with maximal modulus > 1: the largest
    modulus occurs at least twice, and every modulus divides another."""
    classes = normalize_z_classes(classes)
    verdict = z_verify(classes)
    if not verdict.ok:
        raise NotAPartition(verdict)
    return _davenport_rado_clauses([d for d, _ in classes])


def _davenport_rado_clauses(moduli: list[int]) -> dict:
    """davenport_rado_check on the moduli of a verified covering system."""
    dmax = max(moduli)
    if dmax == 1:
        return {
            "applicable": False,
            "max_modulus": 1,
            "max_count": moduli.count(1),
            "largest_repeats": None,
            "divisibility": [],
            "all_pass": True,
        }
    count = moduli.count(dmax)
    divisibility = []
    for i, d in enumerate(moduli, start=1):
        witness = next(
            (j for j, e in enumerate(moduli, start=1) if j != i and e % d == 0),
            None,
        )
        divisibility.append(
            {"member": i, "modulus": d, "divides_member": witness, "ok": witness is not None}
        )
    return {
        "applicable": True,
        "max_modulus": dmax,
        "max_count": count,
        "largest_repeats": count >= 2,
        "divisibility": divisibility,
        "all_pass": count >= 2 and all(e["ok"] for e in divisibility),
    }


def generate_z_covering(depth: int, seed: int) -> tuple[tuple[int, int], ...]:
    """A covering system of Z by iterated refinement: replace a class
    (d, r) by the m classes (m*d, r + d*t).  Deterministic in the seed."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    rng = random.Random(seed)
    classes: list[tuple[int, int]] = [(1, 0)]
    for _ in range(depth):
        idx = rng.randrange(len(classes))
        d, r = classes[idx]
        mult = rng.choice([2, 3, 4, 5, 6])
        classes[idx : idx + 1] = [(mult * d, r + d * t) for t in range(mult)]
    return normalize_z_classes(classes)


# ---------------------------------------------------------------------------
# corpus generation by iterated coset refinement

# Finite permutation groups whose kernels (of letter-image assignments)
# supply the refinement subgroups.  Fixed and versioned here: the corpus
# is part of the test surface, so the family must stay stable.


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply p first, then q
    return tuple(q[x] for x in p)


def _cyclic_elements(m: int) -> tuple[tuple[int, ...], ...]:
    step = tuple((i + 1) % m for i in range(m))
    elems = [tuple(range(m))]
    for _ in range(m - 1):
        elems.append(_perm_mul(elems[-1], step))
    return tuple(elems)


CATALOG: tuple[tuple[tuple[int, ...], ...], ...] = (
    _cyclic_elements(2),
    _cyclic_elements(3),
    _cyclic_elements(4),
    _cyclic_elements(5),
    _cyclic_elements(6),
    tuple(sorted(itertools.permutations(range(3)))),  # S3
)


def _kernel_graph(rank: int, images) -> SchreierGraph:
    """Schreier graph of the kernel of the homomorphism sending the i-th
    generator to images[i]: vertices are the elements of the image
    subgroup, letters act by right multiplication."""
    ident = tuple(range(len(images[0])))
    number = {ident: 1}
    order = [ident]
    queue = deque([ident])
    while queue:
        g = queue.popleft()
        for img in images:
            nxt = _perm_mul(g, img)
            if nxt not in number:
                number[nxt] = len(number) + 1
                order.append(nxt)
                queue.append(nxt)
    action = tuple(
        tuple(number[_perm_mul(g, img)] for g in order) for img in images
    )
    return SchreierGraph(action)


def _meet(g1: SchreierGraph, g2: SchreierGraph) -> SchreierGraph:
    """Schreier graph of the intersection of the two subgroups: basepoint
    orbit of the pair of basepoints under the componentwise actions.
    Internal plumbing for corpus refinement only."""
    if g1.rank != g2.rank:
        raise ValueError("rank mismatch")
    start = (g1.basepoint, g2.basepoint)
    number = {start: 1}
    order = [start]
    queue = deque([start])
    while queue:
        u, v = queue.popleft()
        for a in range(g1.rank):
            nxt = (g1.action[a][u - 1], g2.action[a][v - 1])
            if nxt not in number:
                number[nxt] = len(number) + 1
                order.append(nxt)
                queue.append(nxt)
    action = tuple(
        tuple(number[(g1.action[a][u - 1], g2.action[a][v - 1])] for (u, v) in order)
        for a in range(g1.rank)
    )
    return SchreierGraph(action)


def refine_member(member: Coset, subgroup: SchreierGraph) -> list[Coset]:
    """Replace the coset H*rep by the cosets of K = H meet subgroup inside
    it: one member K*t*rep per transversal word t of K lying in H."""
    refined = _meet(member.graph, subgroup)
    reps = transversal(refined)
    inside = [
        v
        for v in range(1, refined.d + 1)
        if resolve(member.graph, reps[v - 1]) == member.graph.basepoint
    ]
    assert len(inside) * member.graph.d == refined.d
    return [coset(refined, concat(reps[v - 1], member.rep)) for v in inside]


def generate_partition(rank: int, depth: int, seed: int) -> PartitionSpec:
    """A valid coset partition of the rank-n free group, built by depth
    rounds of refining one member by a catalogued kernel.  Deterministic
    in the seed; every output satisfies verify_partition by construction.
    """
    check_rank(rank)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    rng = random.Random(seed)
    members: list[Coset] = [subgroup_coset(trivial_graph(rank))]
    for _ in range(depth):
        idx = rng.randrange(len(members))
        member = members[idx]
        kernel = None
        for _ in range(_MAX_TRIES):
            group = CATALOG[rng.randrange(len(CATALOG))]
            images = tuple(group[rng.randrange(len(group))] for _ in range(rank))
            candidate = _kernel_graph(rank, images)
            if candidate.d == 1:
                continue
            refined = _meet(member.graph, candidate)
            if refined.d == member.graph.d or refined.d > MAX_REFINED_INDEX:
                continue
            kernel = candidate
            break
        if kernel is None:
            continue
        members[idx : idx + 1] = refine_member(member, kernel)
    return PartitionSpec(rank, tuple(members))


# ---------------------------------------------------------------------------
# full analysis


@dataclass(frozen=True)
class MemberReport:
    """Everything computed for one member."""

    index: int
    period: int
    zero_multiplicity: int
    reciprocal_charpoly: IntPolynomial
    genfunc: RationalFunction
    vertex: int
    rep: Word


@dataclass(frozen=True)
class AnalysisReport:
    """All verdicts for a partition spec; reproducible from the inputs."""

    spec: PartitionSpec
    series_depth: int
    members: tuple[MemberReport, ...]
    verdict: PartitionVerdict
    sum_identity_holds: bool
    sum_residual: RationalFunction
    coefficient_identity_holds: bool
    theorem1: dict | None
    theorem2: dict | None
    residue_sums: tuple[dict, ...]
    lemma8: dict | None
    oracle: dict | None = None
    numeric_residues: tuple[dict, ...] | None = None

    @property
    def all_checks_pass(self) -> bool:
        if not self.verdict.ok:
            return False
        core = (
            self.sum_identity_holds
            and self.coefficient_identity_holds
            and all(entry["is_zero"] for entry in self.residue_sums)
            and self.theorem1["all_pass"]
            and self.theorem2["all_pass"]
            and self.lemma8["all_pass"]
        )
        if self.oracle is not None:
            core = core and self.oracle["all_agree"]
        return core


def _member_report(member: Coset) -> MemberReport:
    summary = char_data(transition_matrix(member.graph))
    return MemberReport(
        index=member.graph.d,
        period=summary.period,
        zero_multiplicity=summary.zero_multiplicity,
        reciprocal_charpoly=summary.reciprocal_charpoly,
        genfunc=member_genfunc(member),
        vertex=member.vertex,
        rep=member.rep,
    )


def _oracle_section(spec: PartitionSpec, verdict: PartitionVerdict) -> dict:
    from . import oracle as _oracle  # local: oracle imports this module

    words_depth = 5
    by_words = _oracle.partition_by_words(spec, words_depth)
    if by_words.ok:
        # the word oracle can only refute up to its length bound
        words_agree = verdict.ok or len(verdict.witness) > words_depth
    else:
        # defect kinds may differ (the oracle scans signed words, the orbit
        # walk positive ones); agreement means both refute
        words_agree = not verdict.ok

    counts_agree = True
    count_depth = 8
    for member in spec.members:
        counts = _oracle.count_by_enumeration(member, count_depth)
        if counts != member_genfunc(member).series(count_depth):
            counts_agree = False
            break

    periods_agree = True
    checked = 0
    for member in spec.members:
        if member.graph.d <= _oracle.CYCLES_MAX_VERTICES:
            checked += 1
            if _oracle.period_by_cycles(member.graph) != period(member.graph):
                periods_agree = False
                break

    return {
        "words_depth": words_depth,
        "words_agree": words_agree,
        "count_depth": count_depth,
        "counts_agree": counts_agree,
        "periods_checked": checked,
        "periods_agree": periods_agree,
        "all_agree": words_agree and counts_agree and periods_agree,
    }


def _numeric_residue_section(spec: PartitionSpec, pairs) -> tuple[dict, ...]:
    tol = 1e-9
    genfuncs = [member_genfunc(member) for member in spec.members]
    poles = {
        h: [f for f in genfuncs if pole_multiplicity(f.den, h, spec.rank)]
        for h in {h for h, _ in pairs}
    }
    out = []
    for h, m in pairs:
        total = 0j
        for f in poles[h]:
            total += residue_numeric(f, h, m, spec.rank)
        out.append(
            {
                "period": h,
                "m": m,
                "real": total.real,
                "imag": total.imag,
                "within_tolerance": abs(total) <= tol,
            }
        )
    return tuple(out)


def analyze(
    spec: PartitionSpec,
    series_depth: int = 20,
    with_oracle: bool = False,
    with_numeric_residues: bool = False,
) -> AnalysisReport:
    """Run every check on the spec and collect the full report.

    The sum and coefficient identities run diagnostically even when the
    family fails to be a partition; the theorem checkers only apply to
    genuine partitions and are skipped (None) otherwise.
    """
    verdict = verify_partition(spec)
    members = [_member_report(member) for member in spec.members]

    sum_ok, residual = check_sum_identity(spec)
    coeff_ok = check_coefficient_identity(spec, series_depth)

    theorem1 = theorem2 = lemma8 = None
    residue_entries: list[dict] = []
    pairs: list[tuple[int, int]] = []
    if verdict.ok:
        periods = [r.period for r in members]
        theorem1 = _theorem1_clauses(periods)
        theorem2 = _theorem2_clauses(periods, [r.index for r in members])
        lemma8 = _lemma8_clauses(members)
        for h in sorted({p for p in periods if p > 1}):
            # the other coprime m are Galois conjugates of m = 1
            base = residue_sum_check(spec, h, 1)
            for m in range(1, h):
                if math.gcd(m, h) == 1:
                    pairs.append((h, m))
                    value = base.conjugate(m)
                    residue_entries.append(
                        {"period": h, "m": m, "value": value, "is_zero": value.is_zero()}
                    )

    return AnalysisReport(
        spec=spec,
        series_depth=series_depth,
        members=tuple(members),
        verdict=verdict,
        sum_identity_holds=sum_ok,
        sum_residual=residual,
        coefficient_identity_holds=coeff_ok,
        theorem1=theorem1,
        theorem2=theorem2,
        residue_sums=tuple(residue_entries),
        lemma8=lemma8,
        oracle=_oracle_section(spec, verdict) if with_oracle else None,
        numeric_residues=_numeric_residue_section(spec, pairs)
        if with_numeric_residues
        else None,
    )
