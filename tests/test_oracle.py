import math

import pytest

from cosetpart.cyclo import (
    NotAPole,
    NotSimple,
    eval_at_root,
    pole_order,
    residue_at,
    residue_simple,
)
from cosetpart.oracle import (
    BudgetExceeded,
    count_by_enumeration,
    eval_at_root_by_horner,
    genfunc_by_cofactors,
    partition_by_words,
    period_by_cycles,
    pole_order_by_derivatives,
    residue_by_horner,
)
from cosetpart.partition import (
    GAP,
    IS_PARTITION,
    OVERLAP,
    PartitionSpec,
    member_genfunc,
    member_periods,
    residue_sum_check,
    z_to_schreier,
)
from cosetpart.ratfunc import genfunc, rational, series_from_matrix
from cosetpart.schreier import coset, from_permutations, subgroup_coset, transversal
from cosetpart.spectral import period


def test_count_examples(fig1_graph, mod2_graph):
    assert count_by_enumeration(subgroup_coset(fig1_graph), 4) == [1, 0, 0, 0, 16]
    assert count_by_enumeration(coset(fig1_graph, (1,)), 1) == [0, 2]
    assert count_by_enumeration(subgroup_coset(mod2_graph), 2) == [1, 0, 4]


def test_count_budget():
    g = from_permutations(2, [(1,), (1,)])
    with pytest.raises(BudgetExceeded):
        count_by_enumeration(subgroup_coset(g), 15)


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
            assert counts == genfunc(graph, 1, end).series(depth)
            assert counts == series_from_matrix(graph, 1, end, depth)


def test_genfunc_matches_cofactors_on_zoo(graph_family):
    for graph in graph_family.values():
        for start in range(1, graph.d + 1):
            for end in range(1, graph.d + 1):
                assert genfunc(graph, start, end) == genfunc_by_cofactors(graph, start, end)


@pytest.mark.parametrize("d, seed, want_period", [(8, 1, 1), (16, 2, 2), (24, 3, 1)])
def test_genfunc_matches_cofactors_on_random_graphs(random_graph, d, seed, want_period):
    graph = random_graph(d, seed, want_period)
    for start in range(1, d + 1):
        for end in range(1, d + 1):
            f = genfunc(graph, start, end)
            # the numerator is built from a_0..a_{d-1}; the terms up to 2d
            # check the denominator as well
            assert f.series(2 * d) == series_from_matrix(graph, start, end, 2 * d)
            # at d = 24 every pair would take about 25 s of Bareiss minors
            # and interpolation, so there one row and one column are
            # compared; they cover both parities of the cofactor sign
            if d < 24 or start == 1 or end == d:
                assert f == genfunc_by_cofactors(graph, start, end), (start, end)


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
    """Compare the kernel with the Horner route at every zeta_h^m / n with
    m coprime to h; returns the number of member residues compared."""
    n = spec.rank
    compared = 0
    genfuncs = [member_genfunc(member) for member in spec.members]
    for m in range(1, h):
        if math.gcd(m, h) != 1:
            continue
        reference = 0
        for f in genfuncs:
            order = pole_order(f, h, m, n)
            assert order == pole_order_by_derivatives(f, h, m, n), (h, m, f)
            if order:
                value = residue_by_horner(f, h, m, n)
                assert residue_simple(f, h, m, n) == value, (h, m, f)
                assert residue_at(f, h, 1, n).conjugate(m) == value, (h, m, f)
                reference = value + reference
                compared += 1
        assert residue_sum_check(spec, h, m) == reference, (h, m)
    return compared


def test_evaluation_matches_reference(graph_family):
    # every m, including those sharing a factor with h
    for graph in graph_family.values():
        n, h = graph.rank, period(graph)
        for end in range(1, graph.d + 1):
            f = genfunc(graph, 1, end)
            for m in range(h + 1):
                for p in (f.num, f.den, f.den.derivative()):
                    assert eval_at_root(p, h, m, n) == eval_at_root_by_horner(p, h, m, n)
                assert pole_order(f, h, m, n) == pole_order_by_derivatives(f, h, m, n)


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
        (PartitionSpec(1, (z_to_schreier(5, 0)[1], z_to_schreier(5, 1)[1])), 5),
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
        assert pole_order(f, h, m, n) == pole_order_by_derivatives(f, h, m, n) == 2
        for route in (residue_simple, residue_by_horner):
            with pytest.raises(NotSimple):
                route(f, h, m, n)
    f = rational([1], [1, -2])
    assert pole_order(f, 4, 1, 2) == pole_order_by_derivatives(f, 4, 1, 2) == 0
    for route in (residue_simple, residue_by_horner):
        with pytest.raises(NotAPole):
            route(f, 4, 1, 2)
