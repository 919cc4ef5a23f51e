"""Transition matrices over the positive alphabet and their exact spectra.

The transition matrix A of a Schreier graph counts positive-letter edges
between cosets; rows and columns all sum to the rank n, the digraph is
strongly connected, and n is the Perron-Frobenius eigenvalue.  The
characteristic data is kept exact: q(z) = det(I - zA) as an integer
polynomial, from the power sums p_k = tr(A^k), k = 1..d, and Newton's
identities (all divisions are exact over the integers).  Each row of A^k
is packed into one Python integer, a fixed-width bit field per entry, so
a row of A^k is the sum of at most n scaled packed rows of A^(k-1): every
step is O(n d) big-integer additions, done in C, instead of O(n d^2)
interpreted additions of single entries.  One BFS gives the period h and
each vertex's cyclic class, its BFS level mod h; the eigenvalues of
modulus n are n * omega for the h-th roots of unity omega, each simple,
with eigenvectors omega^class (Perron-Frobenius).
"""

from __future__ import annotations

import math
import operator
from collections import deque, namedtuple
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


def is_irreducible(matrix: Matrix) -> bool:
    """True iff the digraph of nonzero entries is strongly connected."""
    d = len(matrix)
    fwd = [[j for j in range(d) if matrix[i][j]] for i in range(d)]
    bwd = [[j for j in range(d) if matrix[j][i]] for i in range(d)]
    for adj in (fwd, bwd):
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) != d:
            return False
    return True


# The bounds keep a long-running process from growing without limit.  The
# char_data key is a whole d x d matrix, hence a smaller bound than
# genfunc's; period's key is a graph, of d entries per letter.  An analysis
# of up to this many distinct subgroups never evicts one.
CHAR_DATA_CACHE_SIZE = 256
PERIOD_CACHE_SIZE = 256


def _digraph_period(succ: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """Period h and the cyclic class of every vertex: its BFS level from
    vertex 0, mod h.  h is the gcd over all edges u->v of
    level(u) + 1 - level(v), which equals the gcd of all closed-walk lengths
    when the digraph is strongly connected; then every walk from u to v has
    length class(v) - class(u) mod h."""
    level = [-1] * len(succ)
    level[0] = 0
    queue = deque([0])
    order = [0]
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                order.append(v)
                queue.append(v)
    g = 0
    for u in order:
        for v in succ[u]:
            g = math.gcd(g, level[u] + 1 - level[v])
    # g = 0 only for the edgeless one-vertex digraph, which has no closed walk
    return g, tuple(x % g for x in level) if g else tuple(level)


@lru_cache(maxsize=PERIOD_CACHE_SIZE)
def cyclic_structure(graph: SchreierGraph) -> tuple[int, tuple[int, ...]]:
    """Period of the transition matrix and the cyclic class of every vertex
    (0-based tuple, classes measured from vertex 1), from one BFS over the
    letter edges.  Memoised per graph, so members sharing a graph run one
    BFS; the classes equal char_data's, with no characteristic polynomial."""
    succ = [[] for _ in range(graph.d)]
    for perm in graph.action:
        for v, w in enumerate(perm, start=1):
            succ[v - 1].append(w - 1)
    return _digraph_period(succ)


def period(graph: SchreierGraph) -> int:
    """Period of the transition matrix: gcd of all closed-walk lengths."""
    return cyclic_structure(graph)[0]


class SpectralSummary(
    namedtuple(
        "SpectralSummary",
        "period reciprocal_charpoly zero_multiplicity cyclic_classes",
    )
):
    """Exact characteristic data of a transition matrix: the period, the
    reciprocal characteristic polynomial q(z) = det(I - zA) with q(0) = 1,
    the algebraic multiplicity of eigenvalue 0, and per vertex its BFS
    level from vertex 1 mod the period.  An immutable named tuple, equal
    to the plain tuple of its fields."""

    __slots__ = ()


def _reciprocal_charpoly(matrix: Matrix) -> IntPolynomial:
    """q(z) = det(I - zA) = 1 + c_1 z + ... + c_d z^d for a nonnegative
    integer matrix A, from the power sums p_k = tr(A^k) by Newton's
    identities k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1).

    Row i of A^k is held as one integer, the sum of (A^k)_ij << (bits * j).
    Let r be the largest row sum of A.  The entries of A^k are at most r^k:
    with 1 the all-ones vector, A^k 1 <= r^k 1 entrywise by induction
    (A^k 1 = A (A^(k-1) 1) <= r^(k-1) A 1 <= r^k 1, as A >= 0), and an
    entry of the nonnegative A^k is at most its row sum.  For k <= d
    every entry is thus below 2^(bits - 1), and so is every partial sum
    while a row of A^k = A A^(k-1) is accumulated (its terms are
    nonnegative), so no field ever carries into the next and every entry
    is read back by a shift and a mask.
    """
    d = len(matrix)
    bits = (max(map(sum, matrix)) ** d).bit_length() + 1
    mask = (1 << bits) - 1
    terms = [[(t, a) for t, a in enumerate(row) if a] for row in matrix]
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


@lru_cache(maxsize=CHAR_DATA_CACHE_SIZE)
def char_data(matrix: Matrix) -> SpectralSummary:
    """Period, q(z) = det(I - zA), the multiplicity of eigenvalue 0, and
    the cyclic classes of the vertices, all from one BFS and the packed
    powers A, A^2, ..., A^d.

    Requires an irreducible nonnegative integer matrix (every transition
    matrix of a Schreier graph qualifies).
    """
    d = len(matrix)
    for row in matrix:
        if len(row) != d or any(e < 0 for e in row):
            raise ValueError("square nonnegative integer matrix expected")
    if not is_irreducible(matrix):
        raise ValueError("matrix is not irreducible")
    q = _reciprocal_charpoly(matrix)
    succ = [[j for j in range(d) if matrix[i][j]] for i in range(d)]
    h, classes = _digraph_period(succ)
    return SpectralSummary(
        period=h,
        reciprocal_charpoly=q,
        zero_multiplicity=d - q.degree,
        cyclic_classes=classes,
    )
