"""Coset partitions of a free group: verification and identity checking.

A partition spec is a family of cosets H_i * rep_i, each carried by the
Schreier graph of its subgroup.  verify_partition decides disjoint-cover
exactly by walking the orbit of the tuple of basepoints under the
componentwise letter actions: the family partitions the group iff every
reachable tuple sits on exactly one member's accept vertex, and a
violating tuple yields a certifying witness word.  A tuple holds one
coordinate per distinct Schreier graph, so the walk's time and memory are
linear in the orbit size times the number of distinct graphs, not members.
In rank 1 the orbit is one cycle of lcm(d_i) tuples and the walk is the
residue scan of a covering system of Z, so verify_partition decides it
with z_verify's certificate instead, on the residues read off each cycle.

On genuine partitions the checkers test the consequences the theory
predicts: the generating functions sum to 1/(1-nz) with the counting
identity n^k = sum_i a_{i,k}; the maximal period repeats, as does every
period that does not properly divide another, and every period divides
some other member's period; the residues of the members' generating
functions at each scaled root of unity sum to zero; and when the
largest-index member attains its period as index, the largest index
repeats.  The identities run once per distinct Schreier graph or
denominator, not per member.  Residues and lemma 8 come in closed form
from each member's index d_i, period h_i and cyclic class l_i (see
_residue_sum): at zeta_h / n the check reads
sum_{i: h | h_i} zeta_h^(l_i) / d_i = 0, the Davenport-Rado sum for Z made
literal.  The covering systems of the integers are the rank-1
specialization, decided by z_verify; z_lift (one shared d-cycle per modulus
d) gives them to the general machinery, with z_verify's verdict and the
moduli as periods, and is the tests' reference for `cosetpart zanalyze`.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque, namedtuple

from .cyclo import CycloNumber
from .poly import IntPolynomial
from .ratfunc import ZERO, RationalFunction, genfunc, walk_counts
from .schreier import (
    Coset,
    SchreierGraph,
    _tuple_new,
    coset,
    resolve,
    subgroup_coset,
    transversal,
    trivial_graph,
)
from .spectral import SpectralSummary, char_data, cyclic_structure, period
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
        return _tuple_new(cls, (rank, members))


def verify_partition(spec: PartitionSpec) -> PartitionVerdict:
    """Exact disjoint-cover check by product-orbit BFS.

    The orbit of the basepoint tuple under the componentwise permutation
    actions is finite and every group element realises exactly the tuples
    in it (letter actions are bijections, so the monoid orbit equals the
    group orbit).  Members with equal Schreier graphs always sit at the
    same vertex of it, so a tuple holds one coordinate per distinct graph
    and a table counts the members accepting at each (graph, vertex).
    Each tuple records only its BFS parent and the letter leading from it,
    so the walk takes time and memory linear in the orbit size times the
    number of distinct graphs; a witness word is read back along the
    parent pointers only when a defect is found.  Witness words are
    shortest, ties broken shortlex.

    Rank 1 skips the walk.  Each graph is one d-cycle, and after k steps
    the single letter has moved the basepoint onto member i's vertex iff
    k = r_i (mod d_i), r_i being the member's cyclic class: the number of
    steps from the basepoint to its vertex, read from the memoised
    cyclic_structure of its graph.  The walk would scan k = 0, 1, 2, ...
    for the first tuple not on exactly one member, which is z_verify's
    scan of the classes d_i Z + r_i; so the certificate decides, and a
    defect x becomes the witness a^x, the same verdict the walk returns.
    """
    members = spec.members
    if spec.rank == 1:
        classes = []
        for m in members:
            d, levels = cyclic_structure(m.graph)
            classes.append((d, _cyclic_class(m, d, levels)))
        verdict = _z_verdict(classes)
        if verdict.ok:
            return verdict
        return PartitionVerdict(
            verdict.status, (1,) * verdict.witness, verdict.overlap_indices
        )
    # 0-based vertices throughout; graphs keyed by value in first-appearance
    # order, slot[g] is the coordinate of every member carried by g
    slot: dict[SchreierGraph, int] = {}
    for m in members:
        slot.setdefault(m.graph, len(slot))
    hits_at = [[0] * g.d for g in slot]
    for m in members:
        hits_at[slot[m.graph]][m.vertex - 1] += 1
    # rows[a][c] is letter a + 1 acting on coordinate c
    rows = tuple(
        tuple(tuple(v - 1 for v in g.action[a]) for g in slot)
        for a in range(spec.rank)
    )
    start = tuple(g.basepoint - 1 for g in slot)
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {start: None}
    queue = deque([start])
    while queue:
        tup = queue.popleft()
        if sum(map(list.__getitem__, hits_at, tup)) != 1:
            hits = [
                i
                for i, m in enumerate(members, start=1)
                if tup[slot[m.graph]] == m.vertex - 1
            ]
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
    """Exact test of sum_i p_i(z) = 1/(1-nz); returns the residual too.
    Numerators over one denominator are added before one normalisation."""
    nums = {IntPolynomial([1, -spec.rank]): IntPolynomial([-1])}  # -1/(1-nz)
    for f in map(member_genfunc, spec.members):
        nums[f.den] = nums.get(f.den, ZERO.num) + f.num
    residual = sum((RationalFunction(num, den) for den, num in nums.items()), ZERO)
    return residual.is_zero(), residual


def check_coefficient_identity(spec: PartitionSpec, depth: int) -> bool:
    """sum_i a_{i,k} = n^k for all k <= depth, from one sparse walk of depth
    steps per distinct Schreier graph, out of the basepoint its members share."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ends: dict[SchreierGraph, list[int]] = {}
    for member in spec.members:
        ends.setdefault(member.graph, []).append(member.vertex)
    counts = [walk_counts(g, g.basepoint, vs, depth) for g, vs in ends.items()]
    return list(map(sum, zip(*counts))) == [spec.rank**k for k in range(depth + 1)]


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


class CyclicRecord(namedtuple("CyclicRecord", "index period cyclic_class")):
    """What the closed-form residues and lemma 8 read of a member: its
    index, its period and its cyclic class (the level of its vertex from
    the basepoint, mod the period).  A MemberReport carries the same three
    fields.  A named tuple, equal to the plain tuple of its fields."""

    __slots__ = ()


def _cyclic_class(member: Coset, h: int, classes: tuple[int, ...]) -> int:
    return (classes[member.vertex - 1] - classes[member.graph.basepoint - 1]) % h


def _cyclic_records(members) -> list[CyclicRecord]:
    """Index, period and cyclic class of every member, from the memoised
    BFS of its graph: no characteristic polynomial, no generating function."""
    records = []
    for member in members:
        h, classes = cyclic_structure(member.graph)
        records.append(CyclicRecord(member.graph.d, h, _cyclic_class(member, h, classes)))
    return records


def residue_sum_check(spec: PartitionSpec, h: int, m: int) -> CycloNumber:
    """Exact sum, over the members whose generating function has a pole at
    z0 = zeta_h^m / n, of the residues there.

    Zero on genuine partitions whenever h > 1; for h = 1 the point 1/n is
    a pole of 1/(1-nz) itself and the sum is its residue -1/n.  Each
    residue comes in closed form from the member's index, period and
    cyclic class (see _residue_sum), read from one memoised BFS per graph.
    """
    if h < 1 or math.gcd(m, h) != 1:
        raise ValueError(f"m = {m} must be coprime to h = {h}")
    return _residue_sum(_cyclic_records(spec.members), spec.rank, h, m)


def _residue_sum(reports: list[CyclicRecord], n: int, h: int, m: int) -> CycloNumber:
    """residue_sum_check on member records.  Over the members with
    h | h_i and L = lcm(n d_i) among them, the integers -L/(n d_i) are
    bucketed at the exponent m (l_i + 1) mod h, then reduced once modulo
    Phi_h and divided by L once (CycloNumber.from_integers).  analyze calls
    this at m = 1 only, once per period h, and reads the other m coprime to
    h as sigma_m conjugates of that sum (CycloNumber.conjugate).

    Member i, of index d_i, period h_i and cyclic class l_i (the level of
    its vertex from the basepoint, mod h_i), has p_i = e_b (I - zA)^-1 e_v.
    A is irreducible with every row and column summing to n, so by
    Perron-Frobenius its eigenvalues of modulus n are the n w with
    w^(h_i) = 1, each simple, with right eigenvector w^c(u) and left
    eigenvector w^-c(u), c the cyclic class of vertex u.  So
    z0 = zeta_h^m / n is a pole iff n / zeta_h^m is such an eigenvalue,
    i.e. iff h | h_i; it is simple, and near it (I - zA)^-1 is
    P / (1 - z/z0) plus a part analytic at z0, with
    P = (w^(c(u) - c(u')))_(u, u') / d_i and w = zeta_h^-m.  The residue is
    -z0 P_(b, v) = -zeta_h^(m (l_i + 1)) / (n d_i).
    """
    poles = [r for r in reports if r.period % h == 0]
    den = math.lcm(*(n * r.index for r in poles))
    buckets = [0] * h
    for r in poles:
        buckets[m * (r.cyclic_class + 1) % h] -= den // (n * r.index)
    return CycloNumber.from_integers(h, buckets, den)


def lemma8_diagnostic(spec: PartitionSpec) -> dict:
    """For every h > 1 that divides the periods of exactly two members j
    and k: assert d_j = d_k, h even and l_j - l_k = h/2 (mod h), where l
    is the member's cyclic class.

    Proof.  On a partition the residues at zeta_h / n sum to zero, because
    sum_i p_i = 1/(1-nz) is analytic there.  Only j and k have a pole
    there, with residues -zeta_h^(l + 1) / (n d) (see _residue_sum), so
    these cancel.  Both have modulus 1/(n d), hence d_j = d_k, and
    zeta_h^(l_j - l_k) = -1, hence h is even and l_j - l_k = h/2 (mod h).

    The source paper's statement of the lemma is not in this repository
    (PAPER.md holds only its abstract), so its exact hypothesis could not
    be consulted; the checker asserts the statement proved here.
    """
    _require_partition(spec)
    return _lemma8_clauses(_cyclic_records(spec.members))


def _lemma8_clauses(reports: list[CyclicRecord]) -> dict:
    """lemma8_diagnostic on the member records of a verified partition;
    entries in increasing h, classes reduced mod h."""
    periods = {r.period for r in reports}
    entries = []
    for h in sorted({h for p in periods for h in range(2, p + 1) if p % h == 0}):
        pair = [i for i, r in enumerate(reports) if r.period % h == 0]
        if len(pair) != 2:
            continue
        rj, rk = (reports[i] for i in pair)
        classes = (rj.cyclic_class % h, rk.cyclic_class % h)
        entries.append(
            {
                "period": h,
                "pair": (pair[0] + 1, pair[1] + 1),
                "indices": (rj.index, rk.index),
                "classes": classes,
                "ok": rj.index == rk.index
                and h % 2 == 0
                and (classes[0] - classes[1]) % h == h // 2,
            }
        )
    return {"entries": entries, "all_pass": all(e["ok"] for e in entries)}


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
        # disjoint classes of density below 1: a gap lies below L
        gap = _first_gap(classes, lcm)
        assert gap is not None, "disjoint classes of density < 1 leave a gap"
        return PartitionVerdict(GAP, witness=gap)
    gap = _first_gap(classes, first_overlap)
    if gap is not None:
        return PartitionVerdict(GAP, witness=gap)
    covering = [i for i, (d, r) in enumerate(classes, start=1) if first_overlap % d == r]
    return PartitionVerdict(
        OVERLAP, witness=first_overlap, overlap_indices=(covering[0], covering[1])
    )


def _first_gap(classes, bound: int) -> int | None:
    """The least x in [0, bound) in none of the classes, or None.

    Depth-first over progressions a + mZ (0 <= a < m, so a is the least
    element >= 0), from Z itself: a progression that no class meets is a
    gap from a on; one that a class contains is covered; otherwise it
    splits into q progressions mod m q, q = d / gcd(d, m) for the meeting
    class that needs the fewest, in increasing a.  Every split puts one
    more class's modulus into m, so m divides L = lcm(d_i), the leaves are
    disjoint residues mod L, and a branch whose a is not below the best
    gap so far is pruned.
    """
    best = bound
    stack = [(iter((0,)), 1)]  # per depth: the next progressions' a, and m
    while stack:
        starts, m = stack[-1]
        a = next(starts, bound)
        if a >= best:
            # the remaining siblings start later still
            stack.pop()
            continue
        meeting = [d for d, r in classes if (a - r) % math.gcd(d, m) == 0]
        if not meeting:
            best = a
            stack.pop()
        elif all(m % d for d in meeting):
            q = min(d // math.gcd(d, m) for d in meeting)
            stack.append((iter(range(a, a + m * q, m)), m * q))
    return best if best < bound else None


def _z_cycle(d: int) -> SchreierGraph:
    # the Schreier graph of dZ: the directed d-cycle
    return SchreierGraph((tuple(v % d + 1 for v in range(1, d + 1)),))


def z_to_schreier(d: int, r: int) -> tuple[SchreierGraph, Coset]:
    """Lift the residue class dZ + r to the rank-1 machinery: the Schreier
    graph of dZ is the directed d-cycle and the coset vertex sits r steps
    past the basepoint.  The transition matrix has period exactly d."""
    ((d, r),) = normalize_z_classes([(d, r)])
    graph = _z_cycle(d)
    return graph, Coset(graph, r + 1, (1,) * r)


def z_lift(classes) -> PartitionSpec:
    """The general-machinery view of an integer covering system.  Each
    modulus's cycle is built once and shared by all its classes."""
    classes = normalize_z_classes(classes)
    cycles = {d: _z_cycle(d) for d in {d for d, _ in classes}}
    return PartitionSpec(
        1, tuple(Coset(cycles[d], r + 1, (1,) * r) for d, r in classes)
    )


def davenport_rado_check(classes) -> dict:
    """On a verified covering system with maximal modulus > 1: the largest
    modulus occurs at least twice, and every modulus divides another."""
    classes = normalize_z_classes(classes)
    verdict = _z_verdict(classes)
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


class MemberReport(
    namedtuple(
        "MemberReport",
        "index period cyclic_class zero_multiplicity reciprocal_charpoly "
        "genfunc vertex rep",
    )
):
    """Everything computed for one member: as in CyclicRecord, then the
    spectral data of its graph, its generating function, and the vertex
    and representative word of its coset.  An immutable named tuple, equal
    to the plain tuple of its fields."""

    __slots__ = ()


class AnalysisReport(
    namedtuple(
        "AnalysisReport",
        "spec series_depth members verdict sum_identity_holds sum_residual "
        "coefficient_identity_holds theorem1 theorem2 residue_sums lemma8 oracle",
        defaults=(None,),
    )
):
    """All verdicts for a partition spec; reproducible from the inputs.
    theorem1, theorem2 and lemma8 are None when the spec is not a
    partition, oracle unless asked for.  An immutable named tuple, equal to
    the plain tuple of its fields."""

    __slots__ = ()

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


def _member_report(member: Coset, summary: SpectralSummary) -> MemberReport:
    return MemberReport(
        index=member.graph.d,
        period=summary.period,
        cyclic_class=_cyclic_class(member, summary.period, summary.cyclic_classes),
        zero_multiplicity=summary.zero_multiplicity,
        reciprocal_charpoly=summary.reciprocal_charpoly,
        genfunc=member_genfunc(member),
        vertex=member.vertex,
        rep=member.rep,
    )


def _member_reports(members) -> list[MemberReport]:
    """One report per member; the spectral data is looked up once per
    distinct graph, not per member."""
    summaries = {g: char_data(g) for g in dict.fromkeys(m.graph for m in members)}
    return [_member_report(m, summaries[m.graph]) for m in members]


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


def analyze(
    spec: PartitionSpec,
    series_depth: int = 20,
    with_oracle: bool = False,
) -> AnalysisReport:
    """Run every check on the spec and collect the full report.

    The sum and coefficient identities run diagnostically even when the
    family fails to be a partition; the theorem checkers only apply to
    genuine partitions and are skipped (None) otherwise.
    """
    verdict = verify_partition(spec)
    members = _member_reports(spec.members)

    sum_ok, residual = check_sum_identity(spec)
    coeff_ok = check_coefficient_identity(spec, series_depth)

    theorem1 = theorem2 = lemma8 = None
    residue_entries: list[dict] = []
    if verdict.ok:
        periods = [r.period for r in members]
        theorem1 = _theorem1_clauses(periods)
        theorem2 = _theorem2_clauses(periods, [r.index for r in members])
        lemma8 = _lemma8_clauses(members)
        for h in sorted({p for p in periods if p > 1}):
            # sigma_m: zeta_h -> zeta_h^m carries the sum at m = 1 to the sum at m
            first = _residue_sum(members, spec.rank, h, 1)
            for m in range(1, h):
                if math.gcd(m, h) == 1:
                    value = first.conjugate(m)
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
    )
