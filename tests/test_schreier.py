import random

import pytest
from conftest import bfs_relabelled, relabelled_cycle_family

from cosetpart.folding import fold
from cosetpart.oracle import enumerate_reduced
from cosetpart.schreier import (
    Coset,
    InfiniteIndex,
    NotTransitive,
    SchreierGraph,
    coset,
    from_permutations,
    membership,
    resolve,
    subgroup_coset,
    transversal,
)
from cosetpart.words import inverse, parse_word, reduce_word

FIG1_GENERATORS = ["aaaa", "bbbb", "aB", "aaBB", "aaaBBB"]


def words(texts, rank=2):
    return [parse_word(t, rank) for t in texts]


def test_fold_whole_group():
    g = fold(2, words(["a", "b"]))
    assert g.d == 1
    assert g.action == ((1,), (1,))


def test_fold_golden_index_four():
    g = fold(2, words(FIG1_GENERATORS))
    assert g.d == 4
    # both letters advance the cycle H -> Ha -> Ha^2 -> Ha^3 -> H
    assert g.action == ((2, 3, 4, 1), (2, 3, 4, 1))


def test_fold_infinite_index():
    with pytest.raises(InfiniteIndex):
        fold(2, words(["a"]))
    with pytest.raises(InfiniteIndex):
        fold(2, words(["abA"]))  # conjugate loop, still infinite index
    # no generators, or only the empty word: the trivial subgroup
    for gens in ([], words([""])):
        with pytest.raises(InfiniteIndex):
            fold(2, gens)


def test_fold_mod2_kernel():
    g = fold(2, words(["aa", "ab", "bA"]))
    assert g.d == 2
    assert g.action == ((2, 1), (2, 1))


def test_from_permutations_examples():
    g = from_permutations(1, [(2, 3, 1)])
    assert g.d == 3
    g = from_permutations(2, [(2, 3, 4, 1), (2, 3, 4, 1)])
    assert g.d == 4
    with pytest.raises(NotTransitive):
        from_permutations(2, [(2, 1, 4, 3), (1, 2, 3, 4)])


def test_from_permutations_rejects_non_bijections():
    with pytest.raises(ValueError):
        from_permutations(1, [(1, 1)])
    with pytest.raises(ValueError):
        from_permutations(2, [(2, 1)])  # wrong count


def test_resolve(fig1_graph):
    assert resolve(fig1_graph, parse_word("a", 2)) == 2
    assert resolve(fig1_graph, parse_word("aaaa", 2)) == 1
    assert resolve(fig1_graph, ()) == 1
    # inverse letters walk the permutation backwards
    assert resolve(fig1_graph, parse_word("A", 2)) == 4


def test_membership_golden(fig1_graph):
    h = subgroup_coset(fig1_graph)
    assert membership(h, parse_word("aB", 2))
    assert not membership(h, parse_word("a", 2))
    ha = coset(fig1_graph, parse_word("a", 2))
    assert membership(ha, parse_word("b", 2))


def test_membership_vs_exponent_sum_oracle():
    # Example-1 subgroup is the kernel of exponent-sum mod 4; the mod-2
    # kernel is the kernel of exponent-sum mod 2 (= reduced length parity)
    g4 = fold(2, words(FIG1_GENERATORS))
    g2 = fold(2, words(["aa", "ab", "bA"]))
    h4, h2 = subgroup_coset(g4), subgroup_coset(g2)
    for w in enumerate_reduced(2, 8):
        expsum = sum(1 if x > 0 else -1 for x in w)
        assert membership(h4, w) == (expsum % 4 == 0)
        assert membership(h2, w) == (expsum % 2 == 0)


def test_generators_are_members():
    gens = words(FIG1_GENERATORS)
    h = subgroup_coset(fold(2, gens))
    for g in gens:
        assert membership(h, g)


def test_resolve_action_compatibility(fig1_graph, mod2_graph, s3_kernel_graph):
    from cosetpart.words import concat

    for graph in (fig1_graph, mod2_graph, s3_kernel_graph):
        ws = enumerate_reduced(2, 3)
        for w1 in ws:
            v1 = resolve(graph, w1)
            for w2 in enumerate_reduced(2, 2):
                target = resolve(graph, concat(w1, w2))
                # walking w2 from the coset of w1
                v = v1
                for x in w2:
                    v = (
                        graph.action[x - 1][v - 1]
                        if x > 0
                        else graph.inverse_action[-x - 1][v - 1]
                    )
                assert v == target


def test_transversal_examples(fig1_graph):
    assert transversal(fig1_graph) == ((), (1,), (1, 1), (1, 1, 1))
    assert transversal(from_permutations(2, [(1,), (1,)])) == ((),)
    assert transversal(from_permutations(1, [(2, 3, 1)])) == ((), (1,), (1, 1))


def test_transversal_resolves_to_own_vertex(graph_family):
    for graph in graph_family.values():
        reps = transversal(graph)
        assert reps[graph.basepoint - 1] == ()
        for v, t in enumerate(reps, start=1):
            assert all(x > 0 for x in t)
            assert resolve(graph, t) == v


def test_levels_are_transversal_lengths(graph_family, random_graph):
    # the construction walk is breadth first from the basepoint, as is the
    # transversal's, so a vertex's level is the length of its word
    graphs = list(graph_family.values())
    graphs += [random_graph(d, seed, h) for h in (1, 2, 3, 4) for d in (12, 24) for seed in (1, 2)]
    rng = random.Random(3)
    graphs += [m.graph for _ in range(10) for m in relabelled_cycle_family(rng)]
    graphs += [SchreierGraph(g.action, v) for g in graphs if g.d <= 12 for v in range(1, g.d + 1)]
    assert len({g.basepoint for g in graphs if g.rank == 1}) > 1
    for graph in graphs:
        reps = transversal(graph)
        assert graph.levels == tuple(len(t) for t in reps), graph


def test_positive_reachability_everywhere(graph_family):
    # constructing the graph validates transitivity over positive letters;
    # re-check explicitly
    for graph in graph_family.values():
        seen = {graph.basepoint}
        frontier = [graph.basepoint]
        while frontier:
            v = frontier.pop()
            for perm in graph.action:
                w = perm[v - 1]
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert len(seen) == graph.d


def test_actions_are_bijections(graph_family):
    for graph in graph_family.values():
        for perm in graph.action:
            assert sorted(perm) == list(range(1, graph.d + 1))


def test_coset_validates_vertex(fig1_graph):
    with pytest.raises(ValueError):
        Coset(fig1_graph, 2, ())  # epsilon resolves to 1, not 2
    with pytest.raises(ValueError):
        Coset(fig1_graph, 9, ())


def test_fold_membership_agrees_with_from_permutations():
    # same subgroup through both construction paths
    folded = fold(2, words(FIG1_GENERATORS))
    direct = from_permutations(2, [(2, 3, 4, 1), (2, 3, 4, 1)])
    assert folded == direct


def test_fold_recovers_known_kernels():
    # Schreier generators of the kernel of a -> 1, b -> 0 in Z/2
    assert fold(2, words(["b", "aa", "abA"])) == from_permutations(
        2, [(2, 1), (1, 2)]
    )
    # Schreier generators of the kernel of a, b -> 1 in Z/3
    assert fold(2, words(["bA", "abAA", "aaa", "aab"])) == from_permutations(
        2, [(2, 3, 1), (2, 3, 1)]
    )
    # generator order and redundant generators do not matter
    assert fold(2, words(["bA", "aaaa", "aaBB", "bbbb", "aaaBBB", "aB"])) == fold(
        2, words(FIG1_GENERATORS)
    )


def _random_transitive(rng, rank, d):
    while True:
        perms = [rng.sample(range(1, d + 1), d) for _ in range(rank)]
        try:
            return from_permutations(rank, perms)
        except NotTransitive:
            continue


def _schreier_generators(graph):
    """t_v a t_(va)^-1 for every vertex v and letter a, with t the BFS
    transversal: they generate H, and the nontrivial ones are a free basis."""
    reps = transversal(graph)
    return [
        reps[v - 1] + (a,) + inverse(reps[perm[v - 1] - 1])
        for v in range(1, graph.d + 1)
        for a, perm in enumerate(graph.action, start=1)
    ]


def _closed_walk(rng, graph, length):
    """A random signed walk from the basepoint, closed back to it by the
    inverse transversal word of its end: a word of H."""
    walk = tuple(rng.choice((1, -1)) * rng.randint(1, graph.rank) for _ in range(length))
    return walk + inverse(transversal(graph)[resolve(graph, walk) - 1])


@pytest.mark.parametrize("d", [5, 12, 40, 160])
def test_fold_round_trips_schreier_generators(d):
    rng = random.Random(d)
    for rank in (2, 3):
        graph = _random_transitive(rng, rank, d)
        gens = _schreier_generators(graph)
        padded = gens + [_closed_walk(rng, graph, 4 * d) for _ in range(d)]
        rng.shuffle(padded)
        assert fold(rank, padded) == bfs_relabelled(graph)
        # dropping a basis element leaves a free factor of H: infinite index
        basis = [g for g in gens if reduce_word(g, rank)]
        assert len(basis) == (rank - 1) * d + 1
        drop = rng.randrange(len(basis))
        with pytest.raises(InfiniteIndex):
            fold(rank, basis[:drop] + basis[drop + 1 :])


def test_orbit_graph_numbers_by_bfs(fig1_graph):
    # a graph already numbered by BFS is its own relabelling
    assert bfs_relabelled(fig1_graph) == fig1_graph
    # 3 -> 1 -> 2 under the 3-cycle: discovery order renumbers 3, 1, 2 as 1, 2, 3
    assert bfs_relabelled(from_permutations(1, [(2, 3, 1)], basepoint=3)) == (
        ((2, 3, 1),),
        1,
    )
    # b reaches 3 before a reaches 2, so vertices 2 and 3 trade numbers
    swapped = from_permutations(2, [(1, 3, 2), (3, 2, 1)])
    assert bfs_relabelled(swapped) == from_permutations(2, [(1, 3, 2), (2, 1, 3)])
