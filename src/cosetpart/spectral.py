"""Exact spectra of Schreier graphs over the positive alphabet.

The transition matrix A of a Schreier graph counts positive-letter edges
between cosets; rows and columns all sum to the rank n, and n is the
Perron-Frobenius eigenvalue.  A is irreducible.  Lemma: the digraph of
letter edges is strongly connected.  SchreierGraph admits only
permutations transitive from the basepoint, so every vertex is reached
from it; and an edge v -> pi(v) closes into a cycle through the powers
of the letter's permutation pi (pi^k(v) = v for some k >= 1), so every
edge can be walked back and the basepoint is reached from every vertex.
The period and q(z) = det(I - zA) are therefore properties of the
graph, and each is computed from the graph itself: no matrix is built,
hashed or checked for them.

One BFS over the letter permutations gives the period h (in rank 1 it
is d, with no BFS); it is memoised per graph, so each distinct graph
runs it once.  A vertex's cyclic class
is its BFS level mod h; a coset's is read off its representative
(partition._cyclic_class), so no per-vertex table is kept.  The
eigenvalues of modulus n are n * omega for the h-th roots of unity
omega, each simple, with eigenvectors omega^class (Perron-Frobenius).
q(z) is kept exact, as an integer polynomial, from the power sums
p_k = tr(A^k), k = 1..d, and Newton's identities (all divisions are
exact over the integers).  Each row of A^k is packed into one Python
integer, a fixed-width bit field per entry, starting from the rows of A
read off the letter permutations; a row of A^k is the sum of at most n
scaled packed rows of A^(k-1), so every step is O(n d) big-integer
additions, done in C, instead of O(n d^2) interpreted additions of
single entries.  The dense matrix
(transition_matrix) is built only for the subgroup report and the
references in oracle.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import lru_cache

from .poly import IntPolynomial
from .schreier import SchreierGraph

Matrix = tuple[tuple[int, ...], ...]


def transition_matrix(graph: SchreierGraph) -> Matrix:
    """a_ij = number of generators stepping vertex i to vertex j."""
    d = graph.d
    rows = [[0] * d for _ in range(d)]
    for perm in graph.action:
        for v, w in enumerate(perm, start=1):
            rows[v - 1][w - 1] += 1
    return tuple(tuple(r) for r in rows)


# The bound keeps a long-running process from growing without limit.  Both
# caches are keyed by graph, of d entries per letter; an analysis of up to
# this many distinct subgroups never evicts one.
SPECTRAL_CACHE_SIZE = 256


@lru_cache(maxsize=SPECTRAL_CACHE_SIZE)
def period(graph: SchreierGraph) -> int:
    """Period of the transition matrix: the gcd over all edges u->v of
    level(u) + 1 - level(v), level being the BFS level from vertex 1 over
    the letter edges.  This equals the gcd of all closed-walk lengths as
    the digraph is strongly connected (module docstring).  Memoised per
    graph, so members sharing a graph run one BFS.

    Rank 1 runs none: the single letter's permutation is transitive, so it
    is one d-cycle, whose only closed walks are the multiples of d."""
    if graph.rank == 1:
        return graph.d
    action = graph.action
    level = [-1] * graph.d
    level[0] = 0
    order = [0]
    for u in order:  # breadth first: order grows behind the cursor
        for perm in action:
            v = perm[u] - 1
            if level[v] < 0:
                level[v] = level[u] + 1
                order.append(v)
    g = 0
    for perm in action:
        for u, w in enumerate(perm):
            g = math.gcd(g, level[u] + 1 - level[w - 1])
    return g


class SpectralSummary(
    namedtuple("SpectralSummary", "period reciprocal_charpoly zero_multiplicity")
):
    """Exact characteristic data of a Schreier graph's transition matrix:
    the period, the reciprocal characteristic polynomial q(z) = det(I - zA)
    with q(0) = 1, and the algebraic multiplicity of eigenvalue 0.  An
    immutable named tuple, equal to the plain tuple of its fields."""

    __slots__ = ()


def _reciprocal_charpoly(graph: SchreierGraph) -> IntPolynomial:
    """q(z) = det(I - zA) = 1 + c_1 z + ... + c_d z^d for the transition
    matrix A of the graph, from the power sums p_k = tr(A^k) by Newton's
    identities k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1).

    Row i of A^k is held as one integer, the sum of (A^k)_ij << (bits * j);
    row i of A holds a_it, the number of letters taking vertex i to t.
    Every row of A sums to the rank n, so the entries of A^k are at most
    n^k: with 1 the all-ones vector, A^k 1 = n^k 1, and an entry of the
    nonnegative A^k is at most its row sum.  For k <= d every entry is
    thus below 2^(bits - 1), and so is every partial sum while a row of
    A^k = A A^(k-1) is accumulated (its terms are nonnegative), so no field
    ever carries into the next and every entry is read back by a shift and
    a mask.
    """
    d = graph.d
    bits = (graph.rank**d).bit_length() + 1
    mask = (1 << bits) - 1
    counts = [{} for _ in range(d)]
    for perm in graph.action:
        for i, w in enumerate(perm):
            counts[i][w - 1] = counts[i].get(w - 1, 0) + 1
    terms = [list(row.items()) for row in counts]
    rows = [sum(a << (bits * t) for t, a in row) for row in terms]
    coeffs = [1]
    power_sums: list[int] = []
    for k in range(1, d + 1):
        if k > 1:
            # row i of A^k = sum over the nonzeros a_it of a_it * row t of A^(k-1)
            product = []
            for row in terms:
                acc = 0
                for t, a in row:
                    acc += rows[t] if a == 1 else a * rows[t]
                product.append(acc)
            rows = product
        power_sums.append(sum((row >> (bits * i)) & mask for i, row in enumerate(rows)))
        # c_0 p_k + c_1 p_(k-1) + ... + c_(k-1) p_1, with c_0 = 1
        c, rem = divmod(-sum(map(operator.mul, coeffs, reversed(power_sums))), k)
        assert rem == 0, "Newton's identities: division by k must be exact"
        coeffs.append(c)
    return IntPolynomial(coeffs)


@lru_cache(maxsize=SPECTRAL_CACHE_SIZE)
def char_data(graph: SchreierGraph) -> SpectralSummary:
    """Period, q(z) = det(I - zA) and the multiplicity of eigenvalue 0 of
    a Schreier graph: the period from its memoised BFS, q from the packed
    powers A, A^2, ..., A^d.  Memoised per graph.  A is irreducible by the
    lemma of the module docstring, so there is nothing to check."""
    q = _reciprocal_charpoly(graph)
    return SpectralSummary(
        period=period(graph),
        reciprocal_charpoly=q,
        zero_multiplicity=graph.d - q.degree,
    )
