"""Partition verdicts against independent references.

`verify_by_word_labels` is the product-orbit BFS that stores every orbit
tuple's whole witness word.  `verify_partition` keeps parent pointers
instead and must return the same verdict (status, witness and overlap
indices) on valid and defective families.  Short witnesses are also
checked from first principles: no shorter positive word, and no
shortlex-earlier one of the same length, is a defect.  `z_verify` is
checked against a membership count over the residues mod lcm.
"""

import math
import tracemalloc
from collections import deque

from cosetpart.partition import (
    GAP,
    IS_PARTITION,
    OVERLAP,
    PartitionSpec,
    PartitionVerdict,
    generate_z_covering,
    verify_partition,
    z_lift,
    z_verify,
)
from cosetpart.schreier import membership
from cosetpart.words import enumerate_positive

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


def mutants(members):
    """The family with one member dropped, and with one member duplicated,
    for every member."""
    out = []
    for i in range(len(members)):
        if len(members) > 1:
            out.append(members[:i] + members[i + 1 :])
        out.append(members[: i + 1] + members[i:])
    return out


def assert_same_verdict(spec):
    verdict = verify_partition(spec)
    assert verdict == verify_by_word_labels(spec)
    if not verdict.ok and len(verdict.witness) <= SHORT_WITNESS:
        check_short_witness(spec, verdict)
        return True
    return False


def test_verdicts_match_reference_on_corpus_mutants(corpus):
    statuses = set()
    short = 0
    for spec in corpus.values():
        assert verify_partition(spec) == verify_by_word_labels(spec)
        for members in mutants(spec.members):
            mutant = PartitionSpec(spec.rank, members)
            short += assert_same_verdict(mutant)
            statuses.add(verify_partition(mutant).status)
    assert statuses == {GAP, OVERLAP}
    assert short > 0


def z_families():
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


def test_lifted_verdicts_match_reference_and_z_verify():
    statuses = set()
    for classes in z_families():
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
    spec = z_lift(classes)
    tracemalloc.start()
    try:
        verdict = verify_partition(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == IS_PARTITION
    # the orbit is a chain of 7200 tuples; storing each tuple's whole
    # witness word took about 200 MB on this input
    assert peak < 32 * 2**20, peak
