"""Shared fixtures: the hand-built golden graphs, the generated corpus
and the generated covering systems of Z.

The corpus is the fixed family the property suites run over: one
partition per (rank, depth, seed) combination with ranks 1..3 and depths
0..3, all valid by construction.
"""

import random

import pytest

from cosetpart.corpus import _kernel_graph, generate_partition
from cosetpart.covering import PartitionSpec
from cosetpart.folding import _orbit_graph
from cosetpart.schreier import (
    NotTransitive,
    SchreierGraph,
    coset,
    from_permutations,
    subgroup_coset,
)
from cosetpart.spectral import period
from cosetpart.zcovering import generate_z_covering

CORPUS_KEYS = [
    (rank, depth, seed)
    for rank in (1, 2, 3)
    for depth in (0, 1, 2, 3)
    for seed in (1, 2)
]


def bfs_relabelled(graph):
    """The graph renumbered by the orbit walk: vertex numbers in BFS
    discovery order from the basepoint, which becomes 1."""
    return _orbit_graph(graph.rank, graph.basepoint, lambda v, a: graph.action[a][v - 1])


def relabelled_cycle_family(rng):
    """A rank-1 family on randomly relabelled d-cycles with random
    basepoints: a covering of Z, each class (d, r) carried by a fresh
    labelling of the d-cycle, its coset r steps past the basepoint, with
    the representative a^r or the negative power a^(r - d)."""
    classes = generate_z_covering(rng.randrange(1, 6), rng.randrange(1000))
    members = []
    for d, r in classes:
        labels = rng.sample(range(1, d + 1), d)  # labels[k]: k steps past the basepoint
        perm = [0] * d
        for k in range(d):
            perm[labels[k] - 1] = labels[(k + 1) % d]
        graph = SchreierGraph((tuple(perm),), labels[0])
        members.append(coset(graph, (1,) * r if rng.randrange(2) else (-1,) * (d - r)))
    return tuple(members)


@pytest.fixture(scope="session")
def corpus():
    return {key: generate_partition(*key) for key in CORPUS_KEYS}


@pytest.fixture(scope="session")
def fig1_graph():
    # both generators advance the 4-cycle H -> Ha -> Ha^2 -> Ha^3 -> H
    return from_permutations(2, [(2, 3, 4, 1), (2, 3, 4, 1)])


@pytest.fixture(scope="session")
def mod2_graph():
    # kernel of F_2 ->> Z/2 (both generators to the nontrivial element)
    return from_permutations(2, [(2, 1), (2, 1)])


@pytest.fixture(scope="session")
def s3_kernel_graph():
    # kernel of F_2 ->> S_3 with a -> (1 2), b -> (1 2 3): index 6, aperiodic
    return _kernel_graph(2, ((1, 0, 2), (1, 2, 0)))


@pytest.fixture(scope="session")
def mod2_partition(mod2_graph):
    return PartitionSpec(2, (subgroup_coset(mod2_graph), coset(mod2_graph, (1,))))


@pytest.fixture(scope="session")
def fig1_transversal_partition(fig1_graph):
    members = tuple(coset(fig1_graph, (1,) * r) for r in range(4))
    return PartitionSpec(2, members)


@pytest.fixture(scope="session")
def graph_family(fig1_graph, mod2_graph, s3_kernel_graph):
    """Small zoo of structurally different graphs for invariant sweeps."""
    from cosetpart.partition import z_lift

    return {
        "trivial_f2": from_permutations(2, [(1,), (1,)]),
        "fig1": fig1_graph,
        "mod2": mod2_graph,
        "s3_kernel": s3_kernel_graph,
        "cycle3_z": z_lift([(3, 0)]).members[0].graph,
        "cycle5_z": z_lift([(5, 0)]).members[0].graph,
        "mod4_f3": from_permutations(3, [(2, 3, 4, 1), (2, 3, 4, 1), (2, 3, 4, 1)]),
    }


def _random_graph(d: int, seed: int, want_period: int = 1):
    """The first transitive pair of permutations of 1..d drawn from the seed
    whose transition matrix has the wanted period p, which divides d.  For
    p > 1 the vertices fall into p blocks of d/p consecutive vertices, and
    every letter maps block j onto block j + 1 mod p (for p = 2 it swaps
    the halves 1..d/2 and d/2+1..d)."""
    rng = random.Random(seed)
    size = d // want_period
    blocks = [list(range(j * size + 1, (j + 1) * size + 1)) for j in range(want_period)]
    while True:
        if want_period > 1:
            perms = [
                [
                    v
                    for j in range(want_period)
                    for v in rng.sample(blocks[(j + 1) % want_period], size)
                ]
                for _ in range(2)
            ]
        else:
            perms = [rng.sample(range(1, d + 1), d) for _ in range(2)]
        try:
            graph = from_permutations(2, perms)
        except NotTransitive:
            continue
        if period(graph) == want_period:
            return graph


@pytest.fixture(scope="session")
def z_coverings():
    """21 covering systems of Z: generate_z_covering at depths 1-7, seeds 1-3."""
    return [generate_z_covering(depth, seed) for depth in range(1, 8) for seed in (1, 2, 3)]


@pytest.fixture(scope="session")
def random_graph():
    """random_graph(d, seed, want_period=1): a fixed-seed index-d subgroup
    of F_2 whose transition matrix has the wanted period (see
    _random_graph)."""
    return _random_graph


def _mutants(members):
    """The family with one member dropped, and with one member duplicated,
    for every member."""
    out = []
    for i in range(len(members)):
        if len(members) > 1:
            out.append(members[:i] + members[i + 1 :])
        out.append(members[: i + 1] + members[i:])
    return out


@pytest.fixture(scope="session")
def mutants():
    """mutants(members): every drop-one and duplicate-one variant of a
    family of members or classes (see _mutants)."""
    return _mutants
