import random

import numpy as np

from cosetpart.oracle import divides, reciprocal_charpoly_by_faddeev
from cosetpart.poly import IntPolynomial
from cosetpart.partition import _cyclic_class
from cosetpart.schreier import SchreierGraph, coset, from_permutations, trivial_graph
from cosetpart import spectral
from cosetpart.spectral import char_data, period, transition_matrix


def test_transition_matrix_examples(fig1_graph, mod2_graph):
    assert transition_matrix(fig1_graph) == (
        (0, 2, 0, 0),
        (0, 0, 2, 0),
        (0, 0, 0, 2),
        (2, 0, 0, 0),
    )
    assert transition_matrix(from_permutations(2, [(1,), (1,)])) == ((2,),)
    assert transition_matrix(mod2_graph) == ((0, 2), (2, 0))


def test_period_examples(fig1_graph, mod2_graph):
    assert period(fig1_graph) == 4
    assert period(from_permutations(2, [(1,), (1,)])) == 1
    assert period(mod2_graph) == 2


def test_char_data_examples(fig1_graph, mod2_graph):
    cd = char_data(fig1_graph)
    assert cd.reciprocal_charpoly == IntPolynomial([1, 0, 0, 0, -16])
    assert cd.period == 4
    assert cd.zero_multiplicity == 0
    for n in (1, 2, 3):
        cd = char_data(trivial_graph(n))
        assert cd.reciprocal_charpoly == IntPolynomial([1, -n])
    cd = char_data(mod2_graph)
    assert cd.reciprocal_charpoly == IntPolynomial([1, 0, -4])


def test_row_and_column_sums(graph_family):
    for graph in graph_family.values():
        matrix = transition_matrix(graph)
        n = graph.rank
        for row in matrix:
            assert sum(row) == n
        for j in range(graph.d):
            assert sum(matrix[i][j] for i in range(graph.d)) == n
        # strongly connected: the reversed letter edges are a Schreier graph
        # too, so every vertex also reaches the basepoint
        SchreierGraph(graph.inverse_action, graph.basepoint)


def test_spectral_divisibility(graph_family):
    for graph in graph_family.values():
        n = graph.rank
        cd = char_data(graph)
        q = cd.reciprocal_charpoly
        h = cd.period
        assert q.coeffs[0] == 1
        assert divides(IntPolynomial([1, -n]), q)
        assert divides(IntPolynomial([1] + [0] * (h - 1) + [-(n**h)]), q)
        assert cd.zero_multiplicity + q.degree == graph.d


def test_divisibility_over_corpus(corpus):
    for spec in corpus.values():
        n = spec.rank
        for member in {m.graph for m in spec.members}:
            cd = char_data(member)
            q, h = cd.reciprocal_charpoly, cd.period
            assert divides(IntPolynomial([1, -n]), q)
            assert divides(IntPolynomial([1] + [0] * (h - 1) + [-(n**h)]), q)
            assert cd.zero_multiplicity + q.degree == member.d


def test_period_agrees_with_cycle_oracle(graph_family, corpus):
    from cosetpart.oracle import period_by_cycles

    graphs = [g for g in graph_family.values() if g.d <= 8]
    for spec in corpus.values():
        graphs.extend(m.graph for m in spec.members if m.graph.d <= 8)
    # rank 1 reads the period off the index: relabelled d-cycles, moved basepoints
    rng = random.Random(1)
    for d in range(1, 9):
        order = rng.sample(range(1, d + 1), d)
        perm = [0] * d
        for v, w in zip(order, order[1:] + order[:1]):
            perm[v - 1] = w
        graphs.append(from_permutations(1, [perm], basepoint=order[-1]))
    for graph in graphs:
        assert period_by_cycles(graph) == period(graph)


def test_no_root_inside_radius(graph_family):
    # numeric advisory check: 1/n is the pole of minimal absolute value
    for graph in graph_family.values():
        q = char_data(graph).reciprocal_charpoly
        roots = np.roots(list(reversed(q.coeffs)))
        assert min(abs(roots)) >= 1 / graph.rank - 1e-9


def _reference_graphs(graph_family, corpus, random_graph):
    graphs = list(graph_family.values())
    graphs += [random_graph(d, 1, h) for d in (16, 24, 32, 80) for h in (1, 2)]
    # the block form at every period p | d
    graphs += [
        random_graph(d, seed, p)
        for d in (12, 36, 48)
        for p in range(3, d + 1)
        if d % p == 0
        for seed in (1, 2)
    ]
    # small random graphs often have two equal rows, so deg q < d
    graphs += [random_graph(d, seed) for d in range(3, 9) for seed in range(1, 6)]
    # rank 3, two equal letters: entries 2, and 3 where c agrees with a
    graphs.append(from_permutations(3, [(2, 3, 4, 5, 6, 7, 1)] * 2 + [(2, 1, 3, 5, 4, 7, 6)]))
    for spec in corpus.values():
        graphs.extend(m.graph for m in spec.members)
    # rank-2 lifts of d-cycles: b = a (period d), and b trivial (period 1)
    for d in (2, 6, 15, 40):
        a = tuple(range(2, d + 1)) + (1,)
        graphs += [from_permutations(2, [a, a]), from_permutations(2, [a, range(1, d + 1)])]
    # moved basepoints: the same matrices keyed by other graphs, and every
    # periodic graph re-based at one vertex of each class, so the block
    # form's class 0 is each class in turn
    graphs += [SchreierGraph(g.action, g.d) for g in graphs]
    for g in list(graphs):
        h = period(g)
        if h > 1:
            by_class = {level % h: v for v, level in enumerate(g.levels, start=1)}
            graphs += [SchreierGraph(g.action, v) for v in by_class.values()]
    return list(dict.fromkeys(graphs))


def test_charpoly_matches_faddeev_reference(graph_family, corpus, random_graph):
    graphs = _reference_graphs(graph_family, corpus, random_graph)
    # a re-based graph has the same matrix: one reference per matrix
    references = {}
    degree_drops = 0
    for graph in graphs:
        q = char_data(graph).reciprocal_charpoly
        matrix = transition_matrix(graph)
        if matrix not in references:
            references[matrix] = reciprocal_charpoly_by_faddeev(matrix)
        assert q == references[matrix], graph
        degree_drops += q.degree < graph.d
    assert degree_drops >= 50


def test_charpoly_at_the_packing_bound():
    # every letter is one d-cycle c, so A = nP: the entries of A^k reach
    # n^k, and n^d, the packing bound, at k = d
    for n in (2, 3, 5):
        for d in (2, 5, 12, 40):
            c = tuple(range(2, d + 1)) + (1,)
            graph = from_permutations(n, [c] * n)
            cd = char_data(graph)
            q = IntPolynomial([1] + [0] * (d - 1) + [-(n**d)])
            assert cd.reciprocal_charpoly == q
            assert reciprocal_charpoly_by_faddeev(transition_matrix(graph)) == q
            assert cd.period == d
            classes = [_cyclic_class(coset(graph, (1,) * k), d) for k in range(d)]
            assert classes == list(range(d))


def test_block_form_power_step_count(monkeypatch, random_graph):
    # C is (d/h)-square, so Newton takes d/h - 1 power steps: none on a
    # d-cycle, where C = (n^d)
    steps = []

    def counted(terms, rows):
        steps.append(len(terms))
        return power_step(terms, rows)

    power_step = spectral._power_step
    monkeypatch.setattr(spectral, "_power_step", counted)
    a = tuple(range(2, 513)) + (1,)
    cycle = from_permutations(2, [a, a])
    assert spectral._reciprocal_charpoly(cycle) == IntPolynomial([1] + [0] * 511 + [-(2**512)])
    assert steps == []
    for d, h in ((16, 1), (16, 4), (48, 16)):
        steps.clear()
        graph = random_graph(d, 1, h)
        q = spectral._reciprocal_charpoly(graph)
        assert q == reciprocal_charpoly_by_faddeev(transition_matrix(graph))
        assert steps == [d // h] * (d // h - 1)
