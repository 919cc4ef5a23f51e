"""Schreier graphs built by walking an action: Stallings folding and orbit
walks.

fold turns generators of a subgroup into its Schreier graph; _orbit_graph
numbers the orbit of a state under a letter action, breadth first over
positive letters so that outputs are stable, and builds every graph read
off an action (fold's folded core, the corpus's kernels and meets).  fold
identifies vertices through a worklist and union-find, at a cost
near-linear in the total length of the generators.  A command loads this
module only for a subgroup given by generators (formats.parse_subgroup)
or to generate a corpus partition.
"""

from __future__ import annotations

from .schreier import InfiniteIndex, SchreierGraph
from .words import check_rank, reduce_word


def _orbit_graph(rank: int, start, step) -> SchreierGraph:
    """Schreier graph of the orbit of start under step(state, a), the
    action of the (0-based) a-th letter.  States are numbered 1, 2, ... in
    breadth-first discovery order over the letters in index order, and each
    edge's target number is recorded during the walk; start is vertex 1."""
    number = {start: 1}
    order = [start]
    rows: list[list[int]] = [[] for _ in range(rank)]
    # order grows behind the cursor
    for state in order:
        for a, row in enumerate(rows):
            nxt = step(state, a)
            n = number.get(nxt)
            if n is None:
                n = number[nxt] = len(order) + 1
                order.append(nxt)
            row.append(n)
    return SchreierGraph(tuple(map(tuple, rows)))


def fold(rank: int, generators) -> SchreierGraph:
    """Fold the wedge of generator loops into the Schreier graph of
    H = <generators>.

    Stallings folding by a worklist: each generator is laid out as a loop
    at the basepoint, each vertex keeps one edge per signed letter, and
    adding an edge whose label is already taken there queues its two ends
    for identification.  Identifying keeps the smaller id (so the basepoint
    survives) and moves the absorbed vertex's edges over, where a clash
    queues another pair.  The folded core recognises exactly H; it is the
    Schreier graph iff every vertex has an outgoing edge for every letter.
    Raises InfiniteIndex otherwise.  Each identification moves at most 2n
    edges, so the cost is near-linear in the total length of the
    generators.  Vertices are numbered by BFS from the basepoint.
    """
    check_rank(rank)
    gens = [reduce_word(g, rank) for g in generators]

    parent = [0]
    edges: list[dict[int, int]] = [{}]  # signed letter -> end of that edge
    pending: list[tuple[int, int]] = []  # pairs of vertices to identify

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def attach(v: int, x: int, w: int) -> None:
        # the edge v -x-> w, at a live vertex v
        out = edges[v]
        if x in out:
            pending.append((out[x], w))
        else:
            out[x] = w

    for g in gens:
        # the loop spelling g: from 0 through len(g) - 1 new vertices to 0
        path = [0, *range(len(parent), len(parent) + len(g) - 1), 0]
        parent.extend(path[1:-1])
        edges.extend({} for _ in path[1:-1])
        for x, v, w in zip(g, path, path[1:]):
            attach(v, x, w)
            attach(w, -x, v)

    while pending:
        u, v = pending.pop()
        u, v = find(u), find(v)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        parent[v] = u
        for x, w in edges[v].items():
            attach(u, x, w)
        edges[v] = {}

    for v, out in enumerate(edges):
        if parent[v] == v:
            for x in range(1, rank + 1):
                if x not in out:
                    raise InfiniteIndex(
                        f"folded core is incomplete (no letter-{x} edge at some "
                        f"vertex): the subgroup has infinite index"
                    )
    return _orbit_graph(rank, 0, lambda v, a: find(edges[v][a + 1]))
