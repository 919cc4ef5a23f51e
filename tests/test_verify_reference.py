"""Partition verdicts against independent references.

`verify_by_word_labels` is the product-orbit BFS that stores every orbit
tuple's whole witness word.  `verify_by_member_coordinates` keeps parent
pointers but gives each orbit tuple one coordinate per member.
`verify_partition` packs one coordinate per distinct Schreier graph into
a str, keeps only the letter reaching each, and must return the same
verdict (status, witness and overlap indices) as both on valid and
defective families.  `orbit_size`
counts the orbit such a walk visits.  Short witnesses are also checked
from first principles: no shorter positive word, and no shortlex-earlier
one of the same length, is a defect.  `z_verify` is
checked against a membership count over the residues mod lcm.

On a cyclic family (every period equal to its index, as in rank 1)
`verify_partition` reads residues off the cycles and decides with the
covering certificate, so the references are the only walks over such
orbits here; the rank-2 lift of a covering with the second letter acting
trivially keeps the product-orbit walk checked against the certificate.
"""

import itertools
import math
import operator
import random
import time
import tracemalloc
from collections import deque

import pytest
from conftest import relabelled_cycle_family

from cosetpart import partition
from cosetpart.corpus import generate_partition
from cosetpart.covering import (
    GAP,
    IS_PARTITION,
    OVERLAP,
    PartitionSpec,
    PartitionVerdict,
    _z_verdict,
    z_verify,
)
from cosetpart.oracle import enumerate_positive
from cosetpart.partition import verify_partition, z_lift
from cosetpart.schreier import SchreierGraph, coset, from_permutations, membership
from cosetpart.zcovering import generate_z_covering

SHORT_WITNESS = 6


def verify_by_word_labels(spec):
    members = spec.members
    accepts = tuple(m.vertex for m in members)
    actions = tuple(m.graph.action for m in members)
    start = tuple(m.graph.basepoint for m in members)
    label = {start: ()}
    queue = deque([start])
    while queue:
        tup = queue.popleft()
        hits = [i for i, (v, acc) in enumerate(zip(tup, accepts), start=1) if v == acc]
        if not hits:
            return PartitionVerdict(GAP, witness=label[tup])
        if len(hits) > 1:
            return PartitionVerdict(
                OVERLAP, witness=label[tup], overlap_indices=(hits[0], hits[1])
            )
        for a in range(spec.rank):
            nxt = tuple(actions[i][a][tup[i] - 1] for i in range(len(members)))
            if nxt not in label:
                label[nxt] = label[tup] + (a + 1,)
                queue.append(nxt)
    return PartitionVerdict(IS_PARTITION)


def tuple_word(parent, tup):
    """The BFS word reaching tup: its letters read back along the parent
    pointers, then reversed."""
    letters = []
    while (link := parent[tup]) is not None:
        tup, letter = link
        letters.append(letter)
    return tuple(reversed(letters))


def verify_by_member_coordinates(spec):
    """Parent-pointer walk whose tuples hold one vertex per member."""
    members = spec.members
    accepts = tuple(m.vertex - 1 for m in members)
    rows = tuple(
        tuple(tuple(v - 1 for v in m.graph.action[a]) for m in members)
        for a in range(spec.rank)
    )
    start = tuple(m.graph.basepoint - 1 for m in members)
    parent = {start: None}
    queue = deque([start])
    while queue:
        tup = queue.popleft()
        if sum(map(operator.eq, tup, accepts)) != 1:
            hits = [i for i, v in enumerate(tup, start=1) if v == accepts[i - 1]]
            witness = tuple_word(parent, tup)
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


def orbit_size(spec) -> int:
    """The points of the orbit K\\F_n, K the intersection of the members'
    subgroups: the basepoint tuples the letters reach, one coordinate per
    distinct graph, walked breadth first as the reference walks above
    walk them."""
    graphs = list(dict.fromkeys(m.graph for m in spec.members))
    rows = [[g.action[a] for g in graphs] for a in range(spec.rank)]
    start = tuple(g.basepoint for g in graphs)
    seen = {start}
    queue = deque([start])
    while queue:
        tup = queue.popleft()
        for row in rows:
            nxt = tuple(action[v - 1] for action, v in zip(row, tup))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


def hits(spec, word):
    return [i for i, m in enumerate(spec.members, start=1) if membership(m, word)]


def check_short_witness(spec, verdict):
    """The witness is a defect of the stated kind, and it is the first
    defect among positive words in shortlex order."""
    word = verdict.witness
    found = hits(spec, word)
    if verdict.status == GAP:
        assert found == []
    else:
        assert found[:2] == list(verdict.overlap_indices)
    for length in range(len(word) + 1):
        for earlier in enumerate_positive(spec.rank, length):
            if earlier == word:
                return
            assert len(hits(spec, earlier)) == 1, (earlier, word)


def assert_same_verdict(spec):
    verdict = verify_partition(spec)
    assert verdict == verify_by_word_labels(spec)
    assert verdict == verify_by_member_coordinates(spec)
    if not verdict.ok and len(verdict.witness) <= SHORT_WITNESS:
        check_short_witness(spec, verdict)
        return True
    return False


def test_verdicts_match_reference_on_corpus_mutants(corpus, mutants):
    statuses = set()
    short = 0
    for spec in corpus.values():
        assert_same_verdict(spec)
        for members in mutants(spec.members):
            mutant = PartitionSpec(spec.rank, members)
            short += assert_same_verdict(mutant)
            statuses.add(verify_partition(mutant).status)
    assert statuses == {GAP, OVERLAP}
    assert short > 0


def z_families(mutants):
    """Small coverings and their defective variants: one class dropped,
    duplicated, or shifted by one."""
    families = []
    for depth in range(1, 5):
        for seed in range(1, 7):
            classes = generate_z_covering(depth, seed)
            if math.lcm(*(d for d, _ in classes)) > 720:
                continue
            families.append(classes)
            families.extend(mutants(classes))
            for i, (d, r) in enumerate(classes):
                families.append(classes[:i] + ((d, r + 1),) + classes[i + 1 :])
    return families


def z_by_count(classes):
    lcm = math.lcm(*(d for d, _ in classes))
    for x in range(lcm):
        covering = [i for i, (d, r) in enumerate(classes, start=1) if (x - r) % d == 0]
        if len(covering) != 1:
            if not covering:
                return PartitionVerdict(GAP, witness=x)
            return PartitionVerdict(
                OVERLAP, witness=x, overlap_indices=tuple(covering[:2])
            )
    return PartitionVerdict(IS_PARTITION)


def test_lifted_verdicts_match_reference_and_z_verify(mutants):
    statuses = set()
    for classes in z_families(mutants):
        spec = z_lift(classes)
        assert_same_verdict(spec)
        verdict = z_verify(classes)
        assert verdict == z_by_count(classes), classes
        statuses.add(verdict.status)
        # on the rank-1 lift the witness a^x is the smallest defect x
        lifted = verify_partition(spec)
        if verdict.ok:
            assert lifted.ok
        else:
            assert (lifted.status, lifted.witness, lifted.overlap_indices) == (
                verdict.status,
                (1,) * verdict.witness,
                verdict.overlap_indices,
            )
    assert statuses == {IS_PARTITION, GAP, OVERLAP}


def shifted(members):
    """Every member moved one step along its cycle."""
    return [
        members[:i] + (coset(m.graph, m.rep + (1,)),) + members[i + 1 :]
        for i, m in enumerate(members)
    ]


def test_rank1_verdicts_on_relabelled_cycles(mutants):
    rng = random.Random(10)
    statuses = set()
    basepoints = set()
    for _ in range(40):
        members = relabelled_cycle_family(rng)
        basepoints.update(m.graph.basepoint for m in members)
        for family in [members, *mutants(members), *shifted(members)]:
            spec = PartitionSpec(1, family)
            assert_same_verdict(spec)
            statuses.add(verify_partition(spec).status)
    assert statuses == {IS_PARTITION, GAP, OVERLAP}
    assert len(basepoints) > 1


def z_lift_to_f2(classes, b_trivial=False):
    """The covering lifted to F_2, the letter a acting as the d-cycle and b
    as the d-cycle too, or trivially.  Either way the product orbit is the
    rank-1 chain of lcm tuples.  With b = a the family is cyclic (period =
    index) and the certificate decides it; with b trivial every period is
    1 and the orbit is walked by BFS."""
    graphs = {}
    for d, _ in classes:
        cycle = tuple(v % d + 1 for v in range(1, d + 1))
        b = tuple(range(1, d + 1)) if b_trivial else cycle
        graphs.setdefault(d, SchreierGraph((cycle, b)))
    return PartitionSpec(
        2, tuple(coset(graphs[d], (1,) * (r % d)) for d, r in classes)
    )


def assert_f2_lift_matches_certificate(classes, b_trivial=False):
    verdict = z_verify(classes)
    lifted = verify_partition(z_lift_to_f2(classes, b_trivial))
    if verdict.ok:
        assert lifted == verdict
    else:
        assert lifted == PartitionVerdict(
            verdict.status, (1,) * verdict.witness, verdict.overlap_indices
        ), classes
    return verdict.status


def test_f2_lift_walk_matches_z_verify(mutants):
    for b_trivial in (False, True):
        statuses = {
            assert_f2_lift_matches_certificate(c, b_trivial) for c in z_families(mutants)
        }
        assert statuses == {IS_PARTITION, GAP, OVERLAP}


# the coprime rank-2 lift of the CI workflow: periods 6, 10, 42, 78, 110
# and 170, so an orbit of M = 510 510 tuples
COPRIME_CLASSES = [(6, 4), (10, 5), (10, 7), (10, 9)] + [
    (d * p, r + d * t)
    for p, d, r in ((7, 6, 0), (13, 6, 2), (11, 10, 1), (17, 10, 3))
    for t in range(p)
]


def test_cyclic_lift_is_decided_by_the_certificate(monkeypatch):
    decided = []

    def counted(classes):
        decided.append(classes)
        return _z_verdict(classes)

    monkeypatch.setattr(partition, "_z_verdict", counted)
    assert verify_partition(z_lift_to_f2(COPRIME_CLASSES)).ok
    # the residues are read off the cycles: the classes themselves
    assert decided == [COPRIME_CLASSES]
    for mutant in (COPRIME_CLASSES[1:], COPRIME_CLASSES + COPRIME_CLASSES[-1:]):
        assert assert_f2_lift_matches_certificate(mutant) != IS_PARTITION
    assert len(decided) == 3
    # one graph of period below its index, and the family is walked
    classes = generate_z_covering(4, 1)
    assert assert_f2_lift_matches_certificate(classes, b_trivial=True) == IS_PARTITION
    assert len(decided) == 3


def test_packed_states_have_a_code_point_bound():
    # distinct graphs of 1..1493 vertices, a acting as the cycle and b
    # trivially: 1 115 271 vertices in all, past the 0x110000 code points
    labels = tuple(range(1, 1494))
    graphs = [SchreierGraph((labels[1:d] + labels[:1], labels[:d])) for d in range(1, 1494)]
    spec = PartitionSpec(2, tuple(coset(g, ()) for g in graphs))
    with pytest.raises(ValueError, match=f"1115271 vertices in all; the orbit walk packs at most {0x110000}"):
        verify_partition(spec)


def test_z_verify_matches_count_on_all_small_families():
    # every ordered family of one to three classes with moduli up to 6
    classes = [(d, r) for d in range(1, 7) for r in range(d)]
    statuses = set()
    for size in (1, 2, 3):
        for family in itertools.product(classes, repeat=size):
            verdict = z_verify(family)
            assert verdict == z_by_count(family), family
            statuses.add(verdict.status)
    assert statuses == {IS_PARTITION, GAP, OVERLAP}
    # the gap search meets 3 first in the subtree of 0 mod 3, yet 1 is smaller
    assert z_verify(((3, 2), (6, 0))) == PartitionVerdict(GAP, witness=1)


def test_z_verify_late_overlap_is_fast():
    # 2Z and 2Z + 1 cover Z, so no gap precedes the first overlap at 10^9
    n = 10**9 + 1
    classes = ((2, 0), (2, 1), (n, n - 1))
    start = time.perf_counter()
    verdict = z_verify(classes)
    assert time.perf_counter() - start < 1.0
    assert verdict == PartitionVerdict(OVERLAP, witness=10**9, overlap_indices=(1, 3))
    # without 2Z + 1 the gap at 1 comes first
    assert z_verify(((2, 0), (n, n - 1))) == PartitionVerdict(GAP, witness=1)


def copy_graph(graph):
    """An equal graph that is a distinct object, with distinct tuples."""
    return SchreierGraph(tuple(tuple(list(p)) for p in graph.action), graph.basepoint)


def with_copied_member(members):
    """The family with one member repeated on an equal but distinct graph
    object, for every member: an overlap in every case."""
    return [members + (coset(copy_graph(m.graph), m.rep),) for m in members]


def test_equal_but_distinct_graph_objects():
    checked = 0
    for key in ((1, 3, 1), (2, 2, 1), (2, 3, 2), (3, 2, 2), (2, 3, 7)):
        spec = generate_partition(*key)
        # every other member moves to a copy of its graph
        copies = {}
        members = tuple(
            coset(copies.setdefault(m.graph, copy_graph(m.graph)), m.rep) if i % 2 else m
            for i, m in enumerate(spec.members)
        )
        assert any(
            a.graph == b.graph and a.graph is not b.graph
            for a in members
            for b in members
        )
        base = PartitionSpec(spec.rank, members)
        assert_same_verdict(base)
        assert verify_partition(base).ok
        for family in with_copied_member(members):
            mutant = PartitionSpec(spec.rank, family)
            assert_same_verdict(mutant)
            assert verify_partition(mutant).status == OVERLAP
            checked += 1
    assert checked > 20


def test_two_members_at_one_vertex_of_one_graph():
    graph = from_permutations(2, [(2, 3, 1), (3, 1, 2)])
    a, b, c = (coset(graph, w) for w in ((), (1,), (1, 1)))
    same = coset(graph, (2,))  # the letter b also reaches c's vertex 3
    assert same.vertex == c.vertex and same.rep != c.rep
    for family, status in (
        ((a, b, c), IS_PARTITION),
        ((a, c, same), GAP),
        ((a, b, c, same), OVERLAP),
        ((same, a, b, c), OVERLAP),
    ):
        spec = PartitionSpec(2, family)
        assert_same_verdict(spec)
        assert verify_partition(spec).status == status
    overlap = verify_partition(PartitionSpec(2, (a, b, c, same)))
    assert overlap.overlap_indices == (3, 4)


def test_overlap_indices_follow_member_order():
    # member 2 sits on the graph that first appears second, member 3 on the
    # first one; the overlap still names them in member order
    classes = ((2, 0), (4, 1), (2, 1))
    spec = z_lift(classes)
    assert_same_verdict(spec)
    assert verify_partition(spec) == PartitionVerdict(
        OVERLAP, witness=(1,), overlap_indices=(2, 3)
    )
    assert z_verify(classes) == PartitionVerdict(OVERLAP, witness=1, overlap_indices=(2, 3))


def test_z_verify_certificate_boundary():
    # pairwise disjoint, densities sum to 3/4: not a cover
    disjoint_gap = ((2, 0), (4, 1))
    # densities sum to 1, yet 0 lies in the first two classes
    overlap_sum_one = ((2, 0), (4, 0), (4, 3))
    # residues given outside 0..d-1
    shifted_partition = ((2, 7), (4, -4), (4, 2))
    assert z_verify(disjoint_gap) == z_by_count(disjoint_gap)
    assert z_verify(disjoint_gap) == PartitionVerdict(GAP, witness=3)
    assert z_verify(overlap_sum_one) == z_by_count(overlap_sum_one)
    assert z_verify(overlap_sum_one) == PartitionVerdict(
        OVERLAP, witness=0, overlap_indices=(1, 2)
    )
    assert z_verify(shifted_partition) == PartitionVerdict(IS_PARTITION)
    assert z_verify([(1, 5)]) == PartitionVerdict(IS_PARTITION)


def test_verify_partition_memory_is_linear_in_the_orbit():
    classes = next(
        c
        for c in (generate_z_covering(10, seed) for seed in range(1, 100))
        if math.lcm(*(d for d, _ in c)) == 7200
    )
    # rank 2 with b trivial, so the product-orbit walk runs: the orbit is
    # the rank-1 chain of 7200 tuples
    spec = z_lift_to_f2(classes, b_trivial=True)
    tracemalloc.start()
    try:
        verdict = verify_partition(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == IS_PARTITION
    # storing each tuple's whole witness word took about 200 MB on this input
    assert peak < 32 * 2**20, peak
    for b_trivial in (False, True):
        assert assert_f2_lift_matches_certificate(classes, b_trivial) == IS_PARTITION
        for mutant in (classes[1:], classes + classes[-1:]):
            assert assert_f2_lift_matches_certificate(mutant, b_trivial) != IS_PARTITION
