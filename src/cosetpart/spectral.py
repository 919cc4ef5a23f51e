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

No graph is walked here.  The walk that built the graph kept each
vertex's BFS level from the basepoint (SchreierGraph.levels), and one
gcd sweep over the letter edges reads the period h off it (in rank 1 it
is d, with no sweep), memoised per graph.  A vertex's cyclic class is
its level mod h, and so is a coset's (partition._cyclic_class).  The
eigenvalues of modulus n are n * omega for the h-th roots of unity
omega, each simple, with eigenvectors omega^class (Perron-Frobenius).

q(z) is kept exact, as an integer polynomial.  Ordered by cyclic class,
A is block-cyclic, and q(z) = q_C(z^h) for the (d/h)-square matrix C of
length-h walks from class 0 back to class 0 (_reciprocal_charpoly, with
the proof).  q_C comes from the power sums p_k = tr(C^k), k = 1..d/h,
and Newton's identities (all divisions are exact over the integers).
Each row of C^k is packed into one Python integer, a fixed-width bit
field per entry; a row of C^k is the sum of scaled packed rows of
C^(k-1), one per nonzero of the row of C, so every step is big-integer
additions done in C instead of interpreted additions of single entries.
A d-cycle, of period d, gives the 1-square C = (n^d) and no power step;
an aperiodic graph has C = A.  The dense matrix (transition_matrix) is
built only for the subgroup report and the references in oracle.
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
    level(u) + 1 - level(v), level being the BFS level from the basepoint
    over the letter edges (graph.levels, from the walk that built the
    graph).  This equals the gcd of all closed-walk lengths as the digraph
    is strongly connected (module docstring).  Memoised per graph, so
    members sharing a graph run one gcd sweep.

    Rank 1 runs none: the single letter's permutation is transitive, so it
    is one d-cycle, whose only closed walks are the multiples of d."""
    if graph.rank == 1:
        return graph.d
    level = graph.levels
    g = 0
    for perm in graph.action:
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
    """q(z) = det(I - zA) for the transition matrix A of the graph, as
    q_C(z^h), where h is the period and q_C(y) = det(I - yC) for the
    (d/h)-square matrix C of length-h walks from class 0 back to class 0.

    Block form.  Number the cyclic classes 0..h-1 by BFS level mod h
    (graph.levels; the basepoint is in class 0).  Every letter raises the
    class by 1 mod h (period), so A maps class c into class c + 1 only:
    ordered by class, A is block-cyclic with blocks A_(c,c+1).  The classes
    have equal sizes m = d/h, since the n m_c letter edges leaving class c
    are the n m_(c+1) entering class c + 1.  C = A_(0,1) A_(1,2) ...
    A_(h-1,0) is m-square, and its row for a class-0 vertex u is e_u A^h,
    which lies on class 0: h sparse steps from e_u.  For h = 1, C is A.
    Which class is numbered 0 does not change q, as det(I - zA) does not
    depend on the order of the vertices.

    Lemma.  det(I - zA) = det(I - z^h C).  Proof.  A closed walk raises
    the class by its length, so tr(A^k) = 0 unless h | k.  A^(hj) maps
    every class into itself, and its block on class c is P^j for the
    product P = YX of the blocks taken round from class c, where
    C = XY (X the blocks from class 0 to class c, Y the rest), so
    tr(P^j) = tr(Y (XY)^(j-1) X) = tr(C^j), and tr(A^(hj)) = h tr(C^j).
    As formal power series over Q, log det(I - zA) = -sum_k tr(A^k) z^k / k
    = -sum_j h tr(C^j) z^(hj) / (hj) = log det(I - z^h C), and both
    determinants are 1 at z = 0.

    q_C comes from the power sums p_k = tr(C^k), k = 1..m, by Newton's
    identities k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1).  Row i of
    C^k is held as one integer, the sum of (C^k)_ij << (bits * j).  Entry
    (u, v) of C^k counts the walks of length hk from u to v, of which there
    are at most n^(hk) <= n^d for k <= m, as n letters leave every vertex.
    So every entry is below 2^(bits - 1), and so is every partial sum while
    a row of C^k = C C^(k-1) is accumulated (its terms are nonnegative): no
    field ever carries into the next, and every entry is read back by a
    shift and a mask.  A d-cycle (h = d) gives the 1-square C = (n^d) and
    no power step at all.
    """
    d, h = graph.d, period(graph)
    base = [u for u, level in enumerate(graph.levels) if level % h == 0]
    index = [0] * d
    for i, u in enumerate(base):
        index[u] = i
    # h sparse steps from each class-0 vertex u give row u of A^h, which is
    # row u of C
    action = graph.action
    walks = [{u: 1} for u in base]
    for _ in range(h):
        steps = []
        for walk in walks:
            step: dict[int, int] = {}
            for v, count in walk.items():
                for perm in action:
                    w = perm[v] - 1
                    step[w] = step.get(w, 0) + count
            steps.append(step)
        walks = steps
    terms = [[(index[w], c) for w, c in walk.items()] for walk in walks]
    bits = (graph.rank**d).bit_length() + 1
    mask = (1 << bits) - 1
    rows = [sum(c << (bits * t) for t, c in row) for row in terms]
    coeffs = [1]
    power_sums: list[int] = []
    for k in range(1, len(terms) + 1):
        if k > 1:
            rows = _power_step(terms, rows)
        power_sums.append(sum((row >> (bits * i)) & mask for i, row in enumerate(rows)))
        # c_0 p_k + c_1 p_(k-1) + ... + c_(k-1) p_1, with c_0 = 1
        c, rem = divmod(-sum(map(operator.mul, coeffs, reversed(power_sums))), k)
        assert rem == 0, "Newton's identities: division by k must be exact"
        coeffs.append(c)
    spread = [0] * (h * len(terms) + 1)
    spread[::h] = coeffs
    return IntPolynomial(spread)


def _power_step(terms: list[list[tuple[int, int]]], rows: list[int]) -> list[int]:
    """The packed rows of C^k from those of C^(k-1): row i is the sum over
    the nonzeros c_it of row i of C of c_it * row t."""
    product = []
    for row in terms:
        acc = 0
        for t, c in row:
            acc += rows[t] if c == 1 else c * rows[t]
        product.append(acc)
    return product


@lru_cache(maxsize=SPECTRAL_CACHE_SIZE)
def char_data(graph: SchreierGraph) -> SpectralSummary:
    """Period, q(z) = det(I - zA) and the multiplicity of eigenvalue 0 of
    a Schreier graph: the period from its memoised gcd sweep, q from the
    packed powers C, C^2, ..., C^(d/h) of its block form.  Memoised per
    graph.  A is irreducible by the lemma of the module docstring, so
    there is nothing to check."""
    q = _reciprocal_charpoly(graph)
    return SpectralSummary(
        period=period(graph),
        reciprocal_charpoly=q,
        zero_multiplicity=graph.d - q.degree,
    )
