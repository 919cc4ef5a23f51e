import numpy as np
import pytest

from cosetpart.poly import IntPolynomial
from cosetpart.schreier import from_permutations
from cosetpart.spectral import char_data, is_irreducible, period, transition_matrix


def laplace_det_i_minus_za(matrix):
    """Independent route for q(z): cofactor expansion of det(I - zA) over
    polynomial entries.  Exponential, for d <= 5 only."""
    d = len(matrix)
    entries = [
        [
            IntPolynomial([1 if i == j else 0, -matrix[i][j]])
            for j in range(d)
        ]
        for i in range(d)
    ]

    def det(rows, cols):
        if not rows:
            return IntPolynomial([1])
        i = rows[0]
        total = IntPolynomial()
        for pos, j in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1 :])
            term = entries[i][j] * minor
            total = total + (term if pos % 2 == 0 else -term)
        return total

    return det(tuple(range(d)), tuple(range(d)))


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
    cd = char_data(transition_matrix(fig1_graph))
    assert cd.reciprocal_charpoly == IntPolynomial([1, 0, 0, 0, -16])
    assert cd.period == 4
    assert cd.zero_multiplicity == 0
    for n in (0, 1, 2, 3):
        cd = char_data(((n,),))
        assert cd.reciprocal_charpoly == IntPolynomial([1, -n])
    cd = char_data(transition_matrix(mod2_graph))
    assert cd.reciprocal_charpoly == IntPolynomial([1, 0, -4])


def test_is_irreducible():
    assert is_irreducible(transition_matrix_from([(0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (2, 0, 0, 0)]))
    assert not is_irreducible(((1, 0), (0, 1)))
    assert is_irreducible(((0, 1), (1, 0)))


def transition_matrix_from(rows):
    return tuple(tuple(r) for r in rows)


def test_char_data_rejects_reducible():
    with pytest.raises(ValueError):
        char_data(((1, 0), (0, 1)))


def test_row_and_column_sums(graph_family):
    for graph in graph_family.values():
        matrix = transition_matrix(graph)
        n = graph.rank
        for row in matrix:
            assert sum(row) == n
        for j in range(graph.d):
            assert sum(matrix[i][j] for i in range(graph.d)) == n
        assert is_irreducible(matrix)


def test_charpoly_matches_laplace_cofactors(graph_family):
    for graph in graph_family.values():
        if graph.d > 5:
            continue
        matrix = transition_matrix(graph)
        assert char_data(matrix).reciprocal_charpoly == laplace_det_i_minus_za(matrix)


def test_spectral_divisibility(graph_family):
    for graph in graph_family.values():
        n = graph.rank
        cd = char_data(transition_matrix(graph))
        q = cd.reciprocal_charpoly
        h = cd.period
        assert q.coeffs[0] == 1
        assert IntPolynomial([1, -n]).divides(q)
        assert IntPolynomial([1] + [0] * (h - 1) + [-(n**h)]).divides(q)
        assert cd.zero_multiplicity + q.degree == graph.d


def test_divisibility_over_corpus(corpus):
    for spec in corpus.values():
        n = spec.rank
        for member in {m.graph for m in spec.members}:
            cd = char_data(transition_matrix(member))
            q, h = cd.reciprocal_charpoly, cd.period
            assert IntPolynomial([1, -n]).divides(q)
            assert IntPolynomial([1] + [0] * (h - 1) + [-(n**h)]).divides(q)
            assert cd.zero_multiplicity + q.degree == member.d


def test_period_agrees_with_cycle_oracle(graph_family, corpus):
    from cosetpart.oracle import period_by_cycles

    graphs = [g for g in graph_family.values() if g.d <= 8]
    for spec in corpus.values():
        graphs.extend(m.graph for m in spec.members if m.graph.d <= 8)
    for graph in graphs:
        assert period_by_cycles(graph) == period(graph)


def test_no_root_inside_radius(graph_family):
    # numeric advisory check: 1/n is the pole of minimal absolute value
    for graph in graph_family.values():
        q = char_data(transition_matrix(graph)).reciprocal_charpoly
        roots = np.roots(list(reversed(q.coeffs)))
        assert min(abs(roots)) >= 1 / graph.rank - 1e-9
