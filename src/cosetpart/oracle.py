"""Brute-force ground truth for cross-validating every fast path.

Everything here enumerates: positive words one by one for counting,
simple cycles by depth-first search for the period, reduced words for
partition defects.  The budgets are hard caps with loud errors, never
silent truncation.
Generating functions are recomputed from cofactors: the numerator is a
signed minor of I - zA, evaluated at integer points by fraction-free
Bareiss elimination and interpolated.
The reciprocal characteristic polynomial det(I - zA) is recomputed by
the Faddeev-LeVerrier recurrence on the whole matrix, entry by entry
(reciprocal_charpoly_by_faddeev), the reference for spectral's packed
power sums.
Polynomial gcds are recomputed by primitive-PRS Euclid alone, without
poly_gcd's GCDHEU evaluation points.
Residues at the scaled roots of unity are recomputed the direct way:
Horner's rule in Q(zeta_h) at the point itself, with the pole order read
off successive derivatives.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclo import CycloNumber, NotAPole, NotSimple
from .partition import (
    GAP,
    IS_PARTITION,
    OVERLAP,
    PartitionSpec,
    PartitionVerdict,
)
from .poly import IntPolynomial, _prs_gcd, content, primitive_part
from .ratfunc import RationalFunction
from .schreier import Coset, SchreierGraph, membership, resolve
from .spectral import char_data, transition_matrix
from .words import enumerate_positive, enumerate_reduced

COUNT_MAX_DEPTH = 14
CYCLES_MAX_VERTICES = 8
WORDS_MAX_LEN = 7


class BudgetExceeded(Exception):
    """The requested enumeration is over the hard budget cap."""


def count_by_enumeration(cst: Coset, depth: int) -> list[int]:
    """Counts of positive words of each length 0..depth lying in the coset,
    by classifying every word individually."""
    if depth > COUNT_MAX_DEPTH:
        raise BudgetExceeded(f"depth {depth} exceeds cap {COUNT_MAX_DEPTH}")
    rank = cst.graph.rank
    counts = []
    for k in range(depth + 1):
        counts.append(
            sum(1 for w in enumerate_positive(rank, k) if membership(cst, w))
        )
    return counts


def period_by_cycles(graph: SchreierGraph) -> int:
    """Gcd of the lengths of all simple directed cycles, enumerated
    exhaustively.  Equals the matrix period on strongly connected graphs."""
    if graph.d > CYCLES_MAX_VERTICES:
        raise BudgetExceeded(f"{graph.d} vertices exceed cap {CYCLES_MAX_VERTICES}")
    succ = {
        v: sorted({perm[v - 1] for perm in graph.action}) for v in range(1, graph.d + 1)
    }
    g = 0

    def extend(root: int, v: int, length: int, on_path: set[int]) -> None:
        # each simple cycle is walked once, from its least vertex root
        nonlocal g
        for w in succ[v]:
            if w == root:
                g = math.gcd(g, length)
            elif w > root and w not in on_path:
                on_path.add(w)
                extend(root, w, length + 1, on_path)
                on_path.remove(w)

    for root in succ:
        extend(root, root, 1, {root})
    return g


def partition_by_words(spec: PartitionSpec, max_len: int) -> PartitionVerdict:
    """Classify every reduced word of length <= max_len into the members
    and report the first defect in shortlex order.

    An IS_PARTITION verdict here certifies only the absence of defects up
    to the length bound; verify_partition gives the complete answer.
    """
    if max_len > WORDS_MAX_LEN:
        raise BudgetExceeded(f"length {max_len} exceeds cap {WORDS_MAX_LEN}")
    for word in enumerate_reduced(spec.rank, max_len):
        hits = [
            i
            for i, member in enumerate(spec.members, start=1)
            if resolve(member.graph, word) == member.vertex
        ]
        if len(hits) != 1:
            if not hits:
                return PartitionVerdict(GAP, witness=word)
            return PartitionVerdict(
                OVERLAP, witness=word, overlap_indices=(hits[0], hits[1])
            )
    return PartitionVerdict(IS_PARTITION)


def eval_at_root_by_horner(p: IntPolynomial, h: int, m: int, n: int) -> CycloNumber:
    """p(zeta_h^m / n) by Horner's rule at the point itself, one field
    operation per coefficient."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    acc = p(CycloNumber.zeta_power(h, m) * Fraction(1, n))
    if isinstance(acc, int):
        acc = CycloNumber.from_rational(h, acc)
    return acc


def pole_order_by_derivatives(f: RationalFunction, h: int, m: int, n: int) -> int:
    """Multiplicity of zeta_h^m / n as a root of the denominator: the number
    of successive derivatives that vanish there."""
    den = f.den
    order = 0
    while eval_at_root_by_horner(den, h, m, n).is_zero():
        order += 1
        den = den.derivative()
    return order


def residue_by_horner(f: RationalFunction, h: int, m: int, n: int) -> CycloNumber:
    """N(z0)/D'(z0) at the simple pole z0 = zeta_h^m / n, each factor
    evaluated at z0 itself; raises NotAPole or NotSimple."""
    if not eval_at_root_by_horner(f.den, h, m, n).is_zero():
        raise NotAPole(f"zeta_{h}^{m}/{n} is not a pole")
    dprime = eval_at_root_by_horner(f.den.derivative(), h, m, n)
    if dprime.is_zero():
        raise NotSimple(f"zeta_{h}^{m}/{n} is a multiple pole")
    return eval_at_root_by_horner(f.num, h, m, n) / dprime


def lagrange_interpolate(values) -> IntPolynomial:
    """The unique integer polynomial of degree < len(values) taking
    values[t] at t = 0, 1, 2, ...; raises if it is not integral."""
    pts = len(values)
    acc = [Fraction(0)] * pts
    for i, v in enumerate(values):
        if v == 0:
            continue
        basis = [Fraction(1)]
        denom = 1
        for j in range(pts):
            if j == i:
                continue
            # multiply basis by (z - j)
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= j * basis[k + 1]
            denom *= i - j
        scale = Fraction(v, denom)
        for k, c in enumerate(basis):
            acc[k] += scale * c
    if any(c.denominator != 1 for c in acc):
        raise ValueError("interpolated polynomial is not integral")
    return IntPolynomial([int(c) for c in acc])


def _det_int(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    m = [row[:] for row in rows]
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[size - 1][size - 1]


def _minor_poly(matrix, drop_row: int, drop_col: int) -> IntPolynomial:
    # det(I - zA : drop_row, drop_col) via evaluation at z = 0..d-1 and
    # Lagrange interpolation (degree <= d-1)
    d = len(matrix)
    rows = [i for i in range(d) if i != drop_row]
    cols = [j for j in range(d) if j != drop_col]
    values = []
    for t in range(d):
        m = [
            [(1 if i == j else 0) - t * matrix[i][j] for j in cols]
            for i in rows
        ]
        values.append(_det_int(m))
    return lagrange_interpolate(values)


def genfunc_by_cofactors(graph: SchreierGraph, start: int, end: int) -> RationalFunction:
    """(-1)^(start+end) det(I - zA : end, start) / det(I - zA), where
    (B : f, i) removes row f and column i, in normal form."""
    d = graph.d
    if not (1 <= start <= d and 1 <= end <= d):
        raise ValueError(f"start/end must lie in 1..{d}")
    matrix = transition_matrix(graph)
    den = char_data(matrix).reciprocal_charpoly
    minor = _minor_poly(matrix, end - 1, start - 1)
    sign = -1 if (start + end) % 2 else 1
    return RationalFunction(minor * sign, den)


def poly_gcd_by_prs(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Gcd over Z[z] by content and primitive-PRS Euclid, leading
    coefficient positive: the reference for poly.poly_gcd."""
    if f.is_zero() or g.is_zero():
        p = f + g
        return -p if p and p.coeffs[-1] < 0 else p
    a = _prs_gcd(primitive_part(f), primitive_part(g)) * math.gcd(content(f), content(g))
    return a if a.coeffs[-1] > 0 else -a


def reciprocal_charpoly_by_faddeev(matrix) -> IntPolynomial:
    """det(I - zA) for any square integer matrix by the Faddeev-LeVerrier
    recurrence M_k = A (M_(k-1) + c_(k-1) I), c_k = -tr(M_k) / k: the
    reference for spectral.char_data's packed power sums.

    det(lambda I - A) = lambda^d + c_1 lambda^(d-1) + ... + c_d, hence
    det(I - zA) = 1 + c_1 z + ... + c_d z^d.  Each product A M is a sum of
    scaled rows of M, one per nonzero of the row of A.
    """
    d = len(matrix)
    nonzeros = [[(t, a) for t, a in enumerate(row) if a] for row in matrix]
    coeffs = [1]
    m = [list(row) for row in matrix]
    for k in range(1, d + 1):
        tr = sum(m[i][i] for i in range(d))
        c, rem = divmod(-tr, k)
        assert rem == 0, "Faddeev-LeVerrier trace division must be exact"
        coeffs.append(c)
        if k == d:
            break
        for i in range(d):
            m[i][i] += c
        product = []
        for row in nonzeros:
            acc = [0] * d
            for t, a in row:
                acc = [x + a * y for x, y in zip(acc, m[t])]
            product.append(acc)
        m = product
    return IntPolynomial(coeffs)
