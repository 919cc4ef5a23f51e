"""Corpus generation by iterated coset refinement.

generate_partition starts from the whole free group and, round by round,
refines one member coset by the kernel of a map onto a small catalogued
permutation group.  Every output is a coset partition by construction;
the corpus it yields is part of the test surface, so CATALOG and the
generator's draws must stay stable.
"""

from __future__ import annotations

import itertools
import random

from .covering import PartitionSpec
from .folding import _orbit_graph
from .schreier import (
    Coset,
    SchreierGraph,
    coset,
    resolve,
    subgroup_coset,
    transversal,
    trivial_graph,
)
from .words import check_rank, concat

MAX_REFINED_INDEX = 20  # keeps every generated member's exact analysis cheap
_MAX_TRIES = 24

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
    return _orbit_graph(rank, ident, lambda g, a: _perm_mul(g, images[a]))


def _meet(g1: SchreierGraph, g2: SchreierGraph) -> SchreierGraph:
    """Schreier graph of the intersection of the two subgroups: basepoint
    orbit of the pair of basepoints under the componentwise actions.
    Internal plumbing for corpus refinement only."""
    if g1.rank != g2.rank:
        raise ValueError("rank mismatch")
    act1, act2 = g1.action, g2.action
    return _orbit_graph(
        g1.rank,
        (g1.basepoint, g2.basepoint),
        lambda s, a: (act1[a][s[0] - 1], act2[a][s[1] - 1]),
    )


def _split(member: Coset, refined: SchreierGraph) -> list[Coset]:
    """Replace the coset H*rep by the cosets of the meet K = H meet subgroup
    (refined, built by _meet) inside it: one member K*t*rep per
    transversal word t of K lying in H."""
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
        for _ in range(_MAX_TRIES):
            group = CATALOG[rng.randrange(len(CATALOG))]
            images = tuple(group[rng.randrange(len(group))] for _ in range(rank))
            candidate = _kernel_graph(rank, images)
            if candidate.d == 1:
                continue
            refined = _meet(member.graph, candidate)
            if refined.d == member.graph.d or refined.d > MAX_REFINED_INDEX:
                continue
            # split by the meet already built, not a second one
            members[idx : idx + 1] = _split(member, refined)
            break
    return PartitionSpec(rank, tuple(members))
