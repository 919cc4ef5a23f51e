import math
import time

import pytest

from cosetpart.covering import GAP, IS_PARTITION, OVERLAP, PartitionSpec
from cosetpart.oracle import (
    COUNT_WORDS_BUDGET,
    BudgetExceeded,
    NotSimple,
    count_by_enumeration,
    count_depth,
    enumerate_positive,
    enumerate_reduced,
    partition_by_words,
    period_by_cycles,
    pole_order,
    residue_at,
    series_from_matrix,
    words_depth,
)
from cosetpart.corpus import generate_partition
from cosetpart.partition import (
    _cyclic_records,
    _residue_sum,
    analyze,
    member_periods,
    residue_sum_check,
    z_lift,
)
from cosetpart.ratfunc import genfunc, rational
from cosetpart.schreier import coset, from_permutations, subgroup_coset, transversal
from cosetpart.spectral import period
from cosetpart.words import reduce_word


def test_enumerate_positive_counts_and_order():
    assert enumerate_positive(2, 0) == [()]
    assert enumerate_positive(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(enumerate_positive(3, 3)) == 27
    for rank in (1, 2, 3):
        for k in range(0, 9):
            words = enumerate_positive(rank, k)
            assert len(words) == rank**k
            assert len(set(words)) == len(words)
            assert words == sorted(words)


def test_enumerate_reduced_counts():
    assert len(enumerate_reduced(2, 1)) == 5
    assert len(enumerate_reduced(2, 2)) == 17
    assert len(enumerate_reduced(1, 3)) == 7
    for rank in (1, 2, 3):
        for max_len in range(0, 6):
            words = enumerate_reduced(rank, max_len)
            expected = 1 + sum(
                2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, max_len + 1)
            )
            assert len(words) == expected
            assert len(set(words)) == len(words)
            for w in words:
                assert reduce_word(w, rank) == w


def test_count_examples(fig1_graph, mod2_graph):
    assert count_by_enumeration(subgroup_coset(fig1_graph), 4) == [1, 0, 0, 0, 16]
    assert count_by_enumeration(coset(fig1_graph, (1,)), 1) == [0, 2]
    assert count_by_enumeration(subgroup_coset(mod2_graph), 2) == [1, 0, 4]


def test_count_budget():
    g = from_permutations(2, [(1,), (1,)])
    with pytest.raises(BudgetExceeded):
        count_by_enumeration(subgroup_coset(g), 15)


def test_count_depth_fits_the_word_budget():
    # ranks up to 4 keep depth 8, so every rank-<=4 report is unchanged
    assert [count_depth(n) for n in range(1, 9)] == [8, 8, 8, 8, 7, 6, 5, 5]
    for n in range(1, 9):
        k = count_depth(n)
        assert sum(n**j for j in range(k + 1)) <= COUNT_WORDS_BUDGET
        assert k == 8 or sum(n**j for j in range(k + 2)) > COUNT_WORDS_BUDGET


def reduced_count(n, length):
    return 1 + sum(2 * n * (2 * n - 1) ** (k - 1) for k in range(1, length + 1))


def test_words_depth_fits_the_word_budget():
    for n in (1, 2, 3):
        for length in range(5):
            assert reduced_count(n, length) == len(enumerate_reduced(n, length))
    # ranks up to 5 keep length 5, so every rank-<=5 report is unchanged
    assert [words_depth(n) for n in range(1, 11)] == [5, 5, 5, 5, 5, 4, 4, 4, 4, 3]
    for n in range(1, 11):
        length = words_depth(n)
        assert reduced_count(n, length) <= COUNT_WORDS_BUDGET
        assert length == 5 or reduced_count(n, length + 1) > COUNT_WORDS_BUDGET


def test_oracle_at_rank_9_is_bounded():
    # length 5 would classify 1 + 18 (1 + 17 + ... + 17^4) = 1 597 321 words
    spec = generate_partition(9, 1, 1)
    start = time.perf_counter()
    report = analyze(spec, with_oracle=True)
    assert time.perf_counter() - start < 2.5
    assert report.oracle["words_depth"] == 4 and report.all_checks_pass


def test_period_by_cycles_examples(fig1_graph, mod2_graph):
    assert period_by_cycles(fig1_graph) == 4
    assert period_by_cycles(from_permutations(2, [(1,), (1,)])) == 1
    assert period_by_cycles(mod2_graph) == 2


def test_period_budget():
    g = from_permutations(1, [tuple(v % 9 + 1 for v in range(1, 10))])
    with pytest.raises(BudgetExceeded):
        period_by_cycles(g)


def test_partition_by_words_examples(mod2_partition, mod2_graph):
    assert partition_by_words(mod2_partition, 5).status == IS_PARTITION
    dup = PartitionSpec(2, (subgroup_coset(mod2_graph), subgroup_coset(mod2_graph)))
    v = partition_by_words(dup, 0)
    assert v.status == OVERLAP and v.witness == ()
    lone = PartitionSpec(2, (subgroup_coset(mod2_graph),))
    v = partition_by_words(lone, 1)
    assert v.status == GAP and v.witness == (1,)
    with pytest.raises(BudgetExceeded):
        partition_by_words(mod2_partition, 8)


def test_counts_match_fast_paths(graph_family):
    from cosetpart.schreier import transversal

    for graph in graph_family.values():
        depth = 10 if graph.rank <= 2 else 8
        reps = transversal(graph)
        for end in range(1, graph.d + 1):
            counts = count_by_enumeration(coset(graph, reps[end - 1]), depth)
            assert counts == genfunc(graph, end).series(depth)
            assert counts == series_from_matrix(graph, 1, end, depth)


def test_period_oracle_agrees(graph_family):
    for graph in graph_family.values():
        if graph.d <= 8:
            assert period_by_cycles(graph) == period(graph)


def test_period_by_cycles_on_random_graphs(random_graph):
    for d in (4, 6, 8):
        for seed in range(1, 6):
            for want in (1, 2):
                graph = random_graph(d, seed, want)
                assert period_by_cycles(graph) == period(graph) == want


def _check_residues_against_reference(spec, h):
    """Compare the closed-form residues, member by member and summed, with
    the residues of the members' generating functions at every
    zeta_h^m / n with m coprime to h; returns the number of member residues
    compared."""
    n = spec.rank
    compared = 0
    genfuncs = [genfunc(member.graph, member.vertex) for member in spec.members]
    records = _cyclic_records(spec.members)
    for m in range(1, h):
        if math.gcd(m, h) != 1:
            continue
        reference = 0
        for f, record in zip(genfuncs, records):
            if pole_order(f, h, m, n):
                value = residue_at(f, h, m, n)
                assert residue_at(f, h, 1, n).conjugate(m) == value, (h, m, f)
                # on a partition the sums vanish whatever their common
                # factor, so each member's closed form is compared too
                assert _residue_sum([record], n, h, m) == value, (h, m, f)
                reference = value + reference
                compared += 1
        assert residue_sum_check(spec, h, m) == reference, (h, m)
    return compared


def test_residues_match_reference_on_corpus(corpus, random_graph):
    compared = 0
    for key, spec in corpus.items():
        for h in sorted({p for p in member_periods(spec) if p > 1}):
            compared += _check_residues_against_reference(spec, h)
    assert compared > 0
    # every coset of a period-2 subgroup of index 40 has a pole at -1/2
    graph = random_graph(40, 1, 2)
    spec = PartitionSpec(2, tuple(coset(graph, t) for t in transversal(graph)))
    assert _check_residues_against_reference(spec, 2) == 40


def test_nonzero_residue_sums_match_reference(fig1_graph):
    # neither family is a partition, so the sums do not vanish and the
    # Galois conjugation acts on nonzero values
    families = [
        (PartitionSpec(2, (coset(fig1_graph, ()), coset(fig1_graph, (1,)))), 4),
        (z_lift([(5, 0), (5, 1)]), 5),
    ]
    for spec, h in families:
        assert _check_residues_against_reference(spec, h) > 0
        values = [residue_sum_check(spec, h, m) for m in range(1, h) if math.gcd(m, h) == 1]
        assert all(not v.is_zero() for v in values)
        assert len(set(values)) == len(values)


def test_residue_errors_match_reference():
    multiple = [
        (rational([1], [1, -4, 4]), 1, 0, 2),  # (1 - 2z)^2
        (rational([1], [1, 0, -8, 0, 16]), 2, 1, 2),  # (1 - 4z^2)^2
    ]
    for f, h, m, n in multiple:
        assert pole_order(f, h, m, n) == 2
        with pytest.raises(NotSimple):
            residue_at(f, h, m, n)
    f = rational([1], [1, -2])
    assert pole_order(f, 4, 1, 2) == 0
    assert residue_at(f, 4, 1, 2) is None
