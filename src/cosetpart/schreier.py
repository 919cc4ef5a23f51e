"""Schreier graphs of finite-index subgroups of a free group.

A graph is the complete deterministic co-deterministic labelled graph
on the d right cosets of a subgroup H: one permutation of {1..d} per
generator, with a basepoint representing H itself.  Construction is
either from explicit permutations (from_permutations) or by folding a
wedge of generator loops (folding.fold).  Vertices are numbered 1..d,
with the basepoint 1 unless the permutations name another.

Every graph read off an action (fold's folded core, the corpus's kernels
and meets) is built by one orbit walk, folding._orbit_graph.  Both live
in the folding module, which a command loads only for a subgroup given
by generators or to generate a corpus partition.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import cached_property

from .words import InvalidLetter, Word, check_rank, reduce_word


# The records of the package are named tuples whose __new__ runs their
# checks.  They build the instance with tuple.__new__, looked up once here
# (as namedtuple itself does): the lookup costs as much as the call.
_tuple_new = tuple.__new__


class InfiniteIndex(Exception):
    """The folded core graph is not complete: the subgroup has infinite index."""


class NotTransitive(ValueError):
    """The permutation data does not define a connected coset space."""


class SchreierGraph(namedtuple("SchreierGraph", "action basepoint")):
    """Labelled coset graph: action[a-1][v-1] is the vertex reached from v by
    the a-th generator.  Each letter acts as a permutation of 1..d and the
    action is transitive from the basepoint over positive letters alone.

    Construction walks the graph once, breadth first from the basepoint,
    to check transitivity, and keeps what the walk finds as levels: mod
    the period (spectral.period reads it) a vertex's level is its cyclic
    class, so the block form of q(z) and every member's class read it too.

    An immutable named tuple (action, basepoint), basepoint 1 by default:
    equality and hash are those of the field tuple, so a graph also
    compares equal to the plain tuple of its fields."""

    def __new__(cls, action, basepoint=1):
        if not action:
            raise ValueError("need at least one generator letter")
        d = len(action[0])
        if d < 1:
            raise ValueError("need at least one vertex")
        for a, perm in enumerate(action, start=1):
            if len(perm) != d or sorted(perm) != list(range(1, d + 1)):
                raise ValueError(f"letter {a}: action is not a permutation of 1..{d}")
        if not 1 <= basepoint <= d:
            raise ValueError(f"basepoint {basepoint} not in 1..{d}")
        graph = _tuple_new(cls, (action, basepoint))
        graph.levels  # the one walk of the graph, which raises NotTransitive
        return graph

    # instances keep a __dict__ only for the cached levels and inverse_action,
    # which cached_property writes there directly; every other assignment fails
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: SchreierGraph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: SchreierGraph is immutable")

    @cached_property
    def levels(self) -> tuple[int, ...]:
        """BFS level of every vertex from the basepoint over the letter
        edges, indexed by vertex - 1.  Its walk is the transitivity check:
        it raises NotTransitive if some vertex is not reached."""
        action, d = self.action, self.d
        level = [-1] * d
        level[self.basepoint - 1] = 0
        order = [self.basepoint - 1]
        for v in order:  # breadth first: order grows behind the cursor
            up = level[v] + 1
            for perm in action:
                w = perm[v] - 1
                if level[w] < 0:
                    level[w] = up
                    order.append(w)
        if len(order) != d:
            raise NotTransitive(
                f"only {len(order)} of {d} vertices reachable from the basepoint"
            )
        return tuple(level)

    @property
    def rank(self) -> int:
        return len(self.action)

    @property
    def d(self) -> int:
        """Number of vertices = index of the subgroup."""
        return len(self.action[0])

    @cached_property
    def inverse_action(self) -> tuple[tuple[int, ...], ...]:
        inv = []
        for perm in self.action:
            back = [0] * len(perm)
            for v, w in enumerate(perm, start=1):
                back[w - 1] = v
            inv.append(tuple(back))
        return tuple(inv)


class Coset(namedtuple("Coset", "graph vertex rep")):
    """A right coset H*rep, identified with a vertex of the Schreier graph.

    An immutable named tuple (graph, vertex, rep), equal to the plain tuple
    of its fields."""

    __slots__ = ()

    def __new__(cls, graph, vertex, rep):
        if not 1 <= vertex <= graph.d:
            raise ValueError(f"vertex {vertex} out of range")
        if resolve(graph, rep) != vertex:
            raise ValueError("representative word does not resolve to the vertex")
        return _tuple_new(cls, (graph, vertex, rep))


def from_permutations(rank: int, perms, basepoint: int = 1) -> SchreierGraph:
    """Build a graph from one permutation of 1..d per generator.

    Raises NotTransitive if the data does not define a connected coset
    space, ValueError if some list is not a permutation.
    """
    check_rank(rank)
    if len(perms) != rank:
        raise ValueError(f"expected {rank} permutations, got {len(perms)}")
    return SchreierGraph(tuple(tuple(p) for p in perms), basepoint)


def trivial_graph(rank: int) -> SchreierGraph:
    """The one-vertex graph of the whole group (every letter a loop)."""
    check_rank(rank)
    return SchreierGraph(((1,),) * rank)


def resolve(graph: SchreierGraph, word: Word) -> int:
    """Vertex of the coset H*word; inverse letters walk permutations
    backwards.  The inverse permutations are read only at an inverse
    letter, so a positive word never builds them."""
    v = graph.basepoint
    act = graph.action
    rank = graph.rank
    for x in word:
        if not 1 <= abs(x) <= rank:
            raise InvalidLetter(f"letter {x} not in range 1..{rank} (signed)")
        v = act[x - 1][v - 1] if x > 0 else graph.inverse_action[-x - 1][v - 1]
    return v


def coset(graph: SchreierGraph, rep) -> Coset:
    """The coset of the (reduced) representative word."""
    rep = reduce_word(rep, graph.rank)
    return Coset(graph, resolve(graph, rep), rep)


def subgroup_coset(graph: SchreierGraph) -> Coset:
    return Coset(graph, graph.basepoint, ())


def membership(cst: Coset, word: Word) -> bool:
    """True iff the word lies in the coset, i.e. resolves to its vertex."""
    return resolve(cst.graph, word) == cst.vertex


def transversal(graph: SchreierGraph) -> tuple[Word, ...]:
    """Positive coset representatives t_v, indexed by vertex - 1.

    BFS from the basepoint with letters scanned in index order, so each
    t_v is the shortlex-least label of a tree path; t_basepoint is empty.
    """
    reps: dict[int, Word] = {graph.basepoint: ()}
    queue = deque([graph.basepoint])
    while queue:
        v = queue.popleft()
        for a in range(1, graph.rank + 1):
            w = graph.action[a - 1][v - 1]
            if w not in reps:
                reps[w] = reps[v] + (a,)
                queue.append(w)
    return tuple(reps[v] for v in range(1, graph.d + 1))
