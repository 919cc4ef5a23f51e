"""Coset partitions of a free group: verification and identity checking.

A partition spec is a family of cosets H_i * rep_i, each carried by the
Schreier graph of its subgroup.  verify_partition decides disjoint-cover
exactly by walking the orbit of the tuple of basepoints under the
componentwise letter actions: the family partitions the group iff every
reachable tuple sits on exactly one member's accept vertex, and a
violating tuple yields a certifying witness word.  A tuple holds one
coordinate per distinct Schreier graph, packed into a str and stepped by
str.translate, so the walk's time and memory are linear in the orbit
size times the number of distinct graphs, not members.  When every graph
has period equal to its index (always in rank 1) all letters act as one
cycle on each, the orbit is one cycle of lcm(d_i) tuples and the walk is
the residue scan of a covering system of Z, so verify_partition decides
it with the covering module's certificate instead, on the residues read
off each cycle.

On genuine partitions the checkers test the consequences the theory
predicts: the generating functions sum to 1/(1-nz) with the counting
identity n^k = sum_i a_{i,k}; the maximal period repeats, as does every
period that does not properly divide another, and every period divides
some other member's period; the residues of the members' generating
functions at each scaled root of unity sum to zero; and when the
largest-index member attains its period as index, the largest index
repeats.  The sum and coefficient identities are decided together, by
cross-multiplying over the distinct denominators, with no gcd and no
walk, at one power-of-two point: an L1 bound on the cross-multiplied
identity's coefficients puts the point beyond every nonzero residual's
reach, so one big-integer comparison decides the identity in Z[z].  The
residual is put in normal form only when it is nonzero, and the
coefficient identity is then read off its series (see _identities).
Residues and lemma 8 come in closed form from each member's index d_i,
period h_i and cyclic class l_i, the BFS level of its vertex mod h_i
(see _residue_sum and _cyclic_class): at zeta_h / n the check reads
sum_{i: h | h_i} zeta_h^(l_i) / d_i = 0, the Davenport-Rado sum for Z made
literal.  The exponent sum, which is l_i mod h_i on the whole coset,
pushes a coset partition forward to a fractional exact cover of Z,
sum_i (h_i/d_i) [x = l_i (mod h_i)] = 1 for every x, and by Fourier
inversion that one integer condition holds iff sum_i 1/d_i = 1 and
every such residue sum vanishes (see _pushforward_holds, with the
proof).  So analyze decides all residue entries by stride sums over
Z/lcm(h_i), and reports each as a zero of Q(zeta_h) built without the
cyclo module; the check's steps are bounded by the orbit
verify_partition has already walked.  Only when the cover fails, which
contradicts the theory, does it evaluate them in Q(zeta_h).

z_lift (one shared d-cycle per modulus d) gives a covering system of Z
to the general machinery, with the certificate's verdict and the moduli
as periods, and is the tests' reference for `cosetpart zanalyze`.

The records, the integer theorem clauses and the rank-1 certificate
live in the covering module; z_verify and davenport_rado_check are
importable from here as well.  The gap search and generator of covering
systems of Z are the zcovering module, the corpus generator the corpus
module, and the --oracle section oracle._oracle_section.
"""

from __future__ import annotations

import math
import sys
from collections import deque, namedtuple

from .covering import (
    GAP,
    IS_PARTITION,
    OVERLAP,
    NotAPartition,
    PartitionSpec,
    PartitionVerdict,
    _theorem1_clauses,
    _theorem2_clauses,
    _z_verdict,
    normalize_z_classes,
)
# the rank-1 checks, also read under this module's name
from .covering import davenport_rado_check, z_verify  # noqa: F401
from .poly import IntPolynomial
from .ratfunc import ZERO, RationalFunction, genfunc
from .schreier import Coset, SchreierGraph
from .spectral import SpectralSummary, char_data, period
from .words import Word

# the code points of a str, one per vertex of the distinct graphs in the walk
PACKED_VERTICES = sys.maxunicode + 1


def verify_partition(spec: PartitionSpec) -> PartitionVerdict:
    """Exact disjoint-cover check by product-orbit BFS.

    The orbit of the basepoint tuple under the componentwise permutation
    actions is finite and every group element realises exactly the tuples
    in it (letter actions are bijections, so the monoid orbit equals the
    group orbit).  Members with equal Schreier graphs always sit at the
    same vertex of it, so a tuple holds one coordinate per distinct graph.
    It is packed into a str, one character per distinct graph g at code
    point offset_g + vertex (0-based, the offsets running over the graphs'
    vertex counts), so a letter acts on a tuple by one str.translate
    through its table, in C.  The tuple lies on exactly one member's
    vertex iff translating it through the table that maps each code point
    to chr(the number of members there), and deletes it where that is 0,
    gives "\\x01".  Each tuple records only the letter leading to it, and a
    witness word is read back through the inverse letters' tables only
    when a defect is found, so the walk takes time and memory linear in
    the orbit size times the number of distinct graphs.  Witness words are
    shortest, ties broken shortlex.  The graphs' vertices must number at
    most PACKED_VERTICES, the code points of a str, or ValueError is
    raised before any walk.

    Cyclic families skip the walk.  If every graph has period = index d
    (always so in rank 1), each of its d cyclic classes is one vertex and
    every letter raises the class by 1 (spectral.period), so all letters
    act as one d-cycle.  After k letters the basepoint has moved onto
    member i's vertex iff k = r_i (mod d_i), r_i being the member's cyclic
    class: the BFS level of its vertex (see _cyclic_class).  The walk
    would reach the tuples in that order, each first by the word a^k,
    and stop at the first k not on exactly one member, which is
    z_verify's scan of the classes d_i Z + r_i; so the certificate
    decides, and a defect x becomes the witness a^x, the same verdict the
    walk returns.
    """
    members = spec.members
    if spec.rank == 1 or all(period(m.graph) == m.graph.d for m in members):
        verdict = _z_verdict([(m.graph.d, _cyclic_class(m, m.graph.d)) for m in members])
        if verdict.ok:
            return verdict
        return PartitionVerdict(
            verdict.status, (1,) * verdict.witness, verdict.overlap_indices
        )
    # distinct graphs by value, in first-appearance order, each at its offset
    offset: dict[SchreierGraph, int] = {}
    total = 0
    for m in members:
        if m.graph not in offset:
            offset[m.graph] = total
            total += m.graph.d
    if total > PACKED_VERTICES:
        raise ValueError(
            f"the distinct member graphs have {total} vertices in all; "
            f"the orbit walk packs at most {PACKED_VERTICES}"
        )
    # the code point of each member's vertex; a graph's code points are its
    # own, so a member is hit iff its code point occurs in the state
    codes = [chr(offset[m.graph] + m.vertex - 1) for m in members]
    accepting = [0] * total
    for c in codes:
        accepting[ord(c)] += 1
    accept = {c: chr(k) if k else None for c, k in enumerate(accepting)}
    letters = tuple(
        {o + v: o + w - 1 for g, o in offset.items() for v, w in enumerate(g.action[a])}
        for a in range(spec.rank)
    )
    start = "".join(chr(o + g.basepoint - 1) for g, o in offset.items())
    parent = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state.translate(accept) != "\x01":
            witness = _orbit_word(parent, letters, state)
            hits = [i for i, c in enumerate(codes, start=1) if c in state]
            if not hits:
                return PartitionVerdict(GAP, witness=witness)
            return PartitionVerdict(
                OVERLAP, witness=witness, overlap_indices=(hits[0], hits[1])
            )
        for letter, table in enumerate(letters, start=1):
            nxt = state.translate(table)
            if nxt not in parent:
                parent[nxt] = letter
                queue.append(nxt)
    return PartitionVerdict(IS_PARTITION)


def _orbit_word(parent: dict[str, int], letters: tuple[dict, ...], state: str) -> Word:
    """The BFS word reaching state: its letters read back, each undone
    through the inverse of its table, then reversed."""
    inverses = [{w: v for v, w in table.items()} for table in letters]
    word = []
    while letter := parent[state]:
        word.append(letter)
        state = state.translate(inverses[letter - 1])
    return tuple(reversed(word))


def _require_partition(spec: PartitionSpec) -> None:
    verdict = verify_partition(spec)
    if not verdict.ok:
        raise NotAPartition(verdict)


def check_sum_identity(spec: PartitionSpec) -> tuple[bool, RationalFunction]:
    """Exact test of sum_i p_i(z) = 1/(1-nz); returns the residual
    sum_i p_i - 1/(1-nz) in normal form too (see _identities)."""
    sum_ok, residual, _ = _identities(spec.rank, _member_genfuncs(spec), 0)
    return sum_ok, residual


def check_coefficient_identity(spec: PartitionSpec, depth: int) -> bool:
    """sum_i a_{i,k} = n^k for all k <= depth (see _identities)."""
    return _identities(spec.rank, _member_genfuncs(spec), depth)[2]


def _member_genfuncs(spec: PartitionSpec) -> list[RationalFunction]:
    return [genfunc(m.graph, m.vertex) for m in spec.members]


def _identities(
    n: int, genfuncs: list[RationalFunction], depth: int
) -> tuple[bool, RationalFunction, bool]:
    """The sum identity sum_i p_i = 1/(1-nz) for the members' generating
    functions p_i in rank n, its residual, and the coefficient identity up
    to depth, decided together.

    The numerators over one denominator are added first, giving pairs
    (M_j, D_j), and lhs/rhs = sum_j M_j/D_j stands for the
    cross-multiplication lhs <- lhs D_j + M_j rhs, rhs <- rhs D_j (from
    0/1), with no gcd.  The sum identity holds iff F = (1 - nz) lhs - rhs
    is 0 in Z[z], and that is decided at one point.  The same recurrence
    on L1 norms, with |f g|_1 <= |f|_1 |g|_1 and |f + g|_1 <= |f|_1 +
    |g|_1, bounds |lhs|_1 and |rhs|_1, so every coefficient of F is at
    most b = (1 + n) |lhs|_1 + |rhs|_1 in absolute value.  Take
    X = 2^k with 2^(k-1) > b and run the recurrence on the values
    M_j(X), D_j(X); evaluation is a ring homomorphism, so this gives
    lhs(X), rhs(X) and F(X) = (1 - nX) lhs(X) - rhs(X) exactly.  If
    F != 0, let c z^i be its lowest term: F(X) = X^i (c + X r) for an
    integer r, and 0 < |c| < X/2, so X does not divide c and F(X) != 0.
    So the integer test (1 - nX) lhs(X) == rhs(X) is the identity in Z[z];
    a residual vanishing at a small point (8 - z at z = 8) cannot pass.

    Coefficient k of sum_i p_i - 1/(1-nz) is sum_i a_{i,k} - n^k, so the
    coefficient identity up to depth holds iff the residual's first
    depth + 1 series terms vanish: at every depth when the sum identity
    holds.  Only when it fails is the residual put in normal form, one gcd
    per denominator group and per addition, and its series read.

    Cost: with S = sum_j deg D_j and k the bound's bit length plus one,
    every value is an integer of at most (S + 1) k bits, and each
    denominator group costs three big-integer products, against O(S^2)
    coefficient products for the cross-multiplication in Z[z].  The norms
    are small integer sums.  No graph is walked and no gcd is taken.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    nums: dict[IntPolynomial, IntPolynomial] = {}
    for f in genfuncs:
        nums[f.den] = nums.get(f.den, ZERO.num) + f.num
    lhs_norm, rhs_norm = 0, 1
    for den, num in nums.items():
        den_norm = sum(map(abs, den.coeffs))
        lhs_norm = lhs_norm * den_norm + sum(map(abs, num.coeffs)) * rhs_norm
        rhs_norm *= den_norm
    k = ((1 + n) * lhs_norm + rhs_norm).bit_length() + 1
    lhs, rhs = 0, 1
    for den, num in nums.items():
        den_value = den.at_power_of_two(k)
        lhs, rhs = lhs * den_value + num.at_power_of_two(k) * rhs, rhs * den_value
    if (1 - (n << k)) * lhs == rhs:
        return True, ZERO, True
    # -1/(1-nz), merged into a member's denominator 1 - nz if there is one
    geometric_den = IntPolynomial([1, -n])
    nums[geometric_den] = nums.get(geometric_den, ZERO.num) - 1
    residual = sum((RationalFunction(num, den) for den, num in nums.items()), ZERO)
    return False, residual, not any(residual.series(depth))


def member_periods(spec: PartitionSpec) -> list[int]:
    return [period(m.graph) for m in spec.members]


def theorem1_check(spec: PartitionSpec) -> dict:
    """Period repetition clauses on a verified partition:
    (i) the maximal period > 1 is attained at least twice;
    (ii) every period > 1 that does not properly divide another period
         occurs at least twice;
    (iii) every period divides (or equals) some other member's period.
    """
    _require_partition(spec)
    return _theorem1_clauses(member_periods(spec))


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


class CyclicRecord(namedtuple("CyclicRecord", "index period cyclic_class")):
    """What the closed-form residues and lemma 8 read of a member: its
    index, its period and its cyclic class (the level of its vertex from
    the basepoint, mod the period; see _cyclic_class).  A MemberReport
    begins with the same fields.  A named tuple, equal to the plain tuple
    of its fields."""

    __slots__ = ()


def _cyclic_class(member: Coset, h: int) -> int:
    """The member's cyclic class for its graph's period h: the BFS level
    of its vertex from the basepoint, mod h (SchreierGraph.levels, kept
    by the walk that built the graph)."""
    return member.graph.levels[member.vertex - 1] % h


def _cyclic_record(member: Coset, h: int) -> CyclicRecord:
    return CyclicRecord(member.graph.d, h, _cyclic_class(member, h))


def _cyclic_records(members) -> list[CyclicRecord]:
    """Index, period and cyclic class of every member: no characteristic
    polynomial, no generating function."""
    return [_cyclic_record(member, period(member.graph)) for member in members]


def residue_sum_check(spec: PartitionSpec, h: int, m: int) -> "CycloNumber":
    """Exact sum, over the members whose generating function has a pole at
    z0 = zeta_h^m / n, of the residues there.

    Zero on genuine partitions whenever h > 1; for h = 1 the point 1/n is
    a pole of 1/(1-nz) itself and the sum is its residue -1/n (a
    CycloNumber equal to Fraction(-1, n)).  Each residue comes in closed
    form from the member's index, period and cyclic class (see
    _residue_sum), with one memoised period per graph.
    """
    if h < 1 or math.gcd(m, h) != 1:
        raise ValueError(f"m = {m} must be coprime to h = {h}")
    return _residue_sum(_cyclic_records(spec.members), spec.rank, h, m)


def _residue_sum(reports: list[CyclicRecord], n: int, h: int, m: int) -> "CycloNumber":
    """residue_sum_check on member records.  Over the members with
    h | h_i and L = lcm(n d_i) among them, the integers -L/(n d_i) are
    bucketed at the exponent m (l_i + 1) mod h, then reduced once modulo
    Phi_h and divided by L once (CycloNumber.from_integers), so the
    coefficients are ints wherever L divides them, as on every zero sum.
    analyze calls this only on a verified partition whose pushforward
    cover fails (_pushforward_holds), which contradicts the theory: at
    m = 1 once per period h, reading the other m coprime to h as sigma_m
    conjugates of that sum (CycloNumber.conjugate).

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
    from .cyclo import CycloNumber  # local: analyze needs it only on a failed cover

    poles = [r for r in reports if r.period % h == 0]
    den = math.lcm(*(n * r.index for r in poles))
    buckets = [0] * h
    for r in poles:
        buckets[m * (r.cyclic_class + 1) % h] -= den // (n * r.index)
    return CycloNumber.from_integers(h, buckets, den)


def _pushforward_holds(records) -> bool:
    """Whether the member records (index d_i, period h_i, cyclic class l_i)
    form a fractional exact cover of Z,

        sum_i (h_i/d_i) [x = l_i (mod h_i)] = 1 for every integer x.

    Lemma.  The records of a coset partition of F_n form such a cover.
    Proof.  Let l: F_n -> Z be the exponent sum (letters +1, inverses -1).
    l(H_i) = h_i Z: every letter raises the cyclic class by 1, so a closed
    walk at the basepoint has l in h_i Z, and the lengths of the positive
    closed walks there have gcd h_i (spectral.period).  Let N be the
    normal core of the intersection of the H_i, so G = F_n/N is finite and
    each coset H_i x_i is a union of cosets of N.  l(N) lies in every
    h_i Z, so l mod M, M = lcm(h_i), factors through G, onto Z/M (a letter
    maps to 1).  With the uniform probability on G, H_i x_i has mass
    1/d_i, and l mod M maps H_i/N homomorphically onto h_i Z/M Z, with
    fibres of equal size; so H_i x_i pushes forward to mass (1/d_i)(h_i/M)
    on each of the M/h_i residues x = l_i (mod h_i), as l(x_i) = l_i
    (mod h_i): x_i walks from the basepoint, of class 0, to the member's
    vertex, of class l_i, and each letter of it moves the class by its
    sign.  The cosets partition G, which pushes forward to mass 1/M
    on every residue; multiply by M.

    The residue sums.  For h > 1 dividing M and m coprime to h, weight
    both sides by zeta_h^(-m x) and sum over x mod M.  A progression
    x = l_i (mod h_i) sums to 0 unless h | h_i, so the left side gives
    M sum_{i: h | h_i} zeta_h^(-m l_i) / d_i and the constant right side 0.
    Conjugating, sum_{i: h | h_i} zeta_h^(m l_i) / d_i = 0, and that times
    -zeta_h^m / n is the residue sum at zeta_h^m / n (_residue_sum).  So
    where the cover holds every residue sum analyze reports is zero;
    conversely, by Fourier inversion, the cover holds iff sum_i 1/d_i = 1
    and every residue sum at every h | M vanishes.

    The check runs over Z/M with the integer weights L h_i/d_i,
    L = lcm(d_i): one stride sum per member, M + sum_i M/h_i steps, and no
    number of Q(zeta_h).

    Its cost is bounded by the walk verify_partition has already run.  Let
    K be the intersection of the H_i.  The tuple (H_g x)_g over the
    distinct member graphs g determines Kx, so on a verified partition
    that is not cyclic (some period below its index) verify_partition has
    walked all of K\\F_n, with #graphs coordinates per point.  Claim: that orbit has at least M
    points, and at least d_g M/h_g for every graph g (index d_g, period
    h_g).  Proof.  l(K) lies in every h_i Z, so in M Z, and
    Kx -> (l(x) mod M, H_g x) is well defined, into the d_g M/h_g pairs
    (r, v) with r = the class of v (mod h_g).  It is onto them: for
    v = H_g y and r = l(y) (mod h_g), some k in H_g has l(k) = r - l(y)
    (mod M), as l(H_g) = h_g Z, and k y maps to (r, v).  The first
    coordinate alone is onto Z/M.  The members carried by g sit at
    distinct vertices, or two would overlap, so sum_i M/h_i <= #graphs x
    orbit, and the check's M + sum_i M/h_i steps are at most
    (1 + #graphs) x orbit.  On a cyclic family, rank 1 among them,
    analyze takes the verdict as the certificate and does not call this.
    """
    M = math.lcm(*(r.period for r in records))
    L = math.lcm(*(r.index for r in records))
    cover = [0] * M
    for r in records:
        stride = slice(r.cyclic_class, M, r.period)
        cover[stride] = map((L // r.index * r.period).__add__, cover[stride])
    return cover.count(L) == M


class CycloZero(namedtuple("CycloZero", "h coeffs")):
    """The zero of Q(zeta_h) as analyze reports a residue sum of a
    partition whose cover holds: h and phi(h) int zeros, the fields a
    zero cyclo.CycloNumber serializes with, built without that module.  A
    record, not a field element: it compares as the tuple (h, coeffs), so
    never equal to a CycloNumber (nor to 0), is false, and has no field
    operations and no conjugate."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return True

    def __bool__(self):
        return False


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
# covering systems of the integers, lifted to the rank-1 machinery


def _z_cycle(d: int) -> SchreierGraph:
    # the Schreier graph of dZ: the directed d-cycle
    return SchreierGraph((tuple(v % d + 1 for v in range(1, d + 1)),))


def z_lift(classes) -> PartitionSpec:
    """The general-machinery view of an integer covering system.  Each
    modulus's cycle is built once and shared by all its classes."""
    classes = normalize_z_classes(classes)
    cycles = {d: _z_cycle(d) for d in {d for d, _ in classes}}
    return PartitionSpec(
        1, tuple(Coset(cycles[d], r + 1, (1,) * r) for d, r in classes)
    )


# ---------------------------------------------------------------------------
# full analysis


class MemberReport(
    namedtuple(
        "MemberReport",
        CyclicRecord._fields
        + ("zero_multiplicity", "reciprocal_charpoly", "genfunc", "vertex", "rep"),
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
        *_cyclic_record(member, summary.period),
        zero_multiplicity=summary.zero_multiplicity,
        reciprocal_charpoly=summary.reciprocal_charpoly,
        genfunc=genfunc(member.graph, member.vertex),
        vertex=member.vertex,
        rep=member.rep,
    )


def _member_reports(members) -> list[MemberReport]:
    """One report per member; the spectral data is looked up once per
    distinct graph, not per member."""
    summaries = {g: char_data(g) for g in dict.fromkeys(m.graph for m in members)}
    return [_member_report(m, summaries[m.graph]) for m in members]


def analyze(
    spec: PartitionSpec,
    series_depth: int = 20,
    with_oracle: bool = False,
) -> AnalysisReport:
    """Run every check on the spec and collect the full report.

    The sum and coefficient identities run diagnostically even when the
    family fails to be a partition; the theorem checkers only apply to
    genuine partitions and are skipped (None) otherwise.

    The residue sums at every scaled root zeta_h^m / n, h a period > 1 and
    m coprime to h, are decided together by the pushforward certificate
    (_pushforward_holds): where it holds each is the zero of Q(zeta_h), a
    CycloZero.  Where every member's period is its index, as in rank 1,
    every weight h_i/d_i is 1 and the classes l_i are the residues
    verify_partition read off the cycles, so the cover is the covering
    system the verdict already certified.  Otherwise the check costs a
    small multiple of the orbit walk verify_partition has just run (see
    _pushforward_holds).  Only
    where the cover fails, contradicting the theory, are the sums
    evaluated (_residue_sum).

    So an entry's "value" is a CycloZero where the certificate decided it
    and a cyclo.CycloNumber where the sum was evaluated.  The two share h,
    coeffs, is_zero(), bool() and the JSON form (formats.cyclo_to_json),
    but a CycloZero is a named tuple: it is not equal to the zero
    CycloNumber of its order, nor to 0, and has no field operations;
    rebuild one with CycloNumber(value.h, value.coeffs) where a field
    element is needed.
    """
    verdict = verify_partition(spec)
    members = _member_reports(spec.members)

    sum_ok, residual, coeff_ok = _identities(
        spec.rank, [r.genfunc for r in members], series_depth
    )

    theorem1 = theorem2 = lemma8 = None
    residue_entries: list[dict] = []
    if verdict.ok:
        periods = [r.period for r in members]
        theorem1 = _theorem1_clauses(periods)
        theorem2 = _theorem2_clauses(periods, [r.index for r in members])
        lemma8 = _lemma8_clauses(members)
        units = {
            h: [m for m in range(1, h) if math.gcd(m, h) == 1]
            for h in sorted({p for p in periods if p > 1})
        }
        cyclic = all(r.period == r.index for r in members)
        certified = bool(units) and (cyclic or _pushforward_holds(members))
        for h, ms in units.items():
            if certified:
                values = [CycloZero(h, (0,) * len(ms))] * len(ms)
            else:
                # sigma_m: zeta_h -> zeta_h^m carries the sum at m = 1 to the sum at m
                first = _residue_sum(members, spec.rank, h, 1)
                values = [first.conjugate(m) for m in ms]
            for m, value in zip(ms, values):
                residue_entries.append(
                    {"period": h, "m": m, "value": value, "is_zero": value.is_zero()}
                )

    oracle = None
    if with_oracle:
        from .oracle import _oracle_section  # local: only --oracle loads the references

        oracle = _oracle_section(spec, verdict, members)

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
        oracle=oracle,
    )
