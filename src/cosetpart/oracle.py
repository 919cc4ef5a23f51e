"""Independent references, one per production route.

Each production route has its reference here or in the tests, and the
tests require the same answers:

- verify_partition and z_verify: the complete orbit walks and the count
  over residues mod lcm in tests/test_verify_reference.py;
  partition_by_words here classifies every reduced word up to a length
  bound, for analyze --oracle.
- The word counts (genfunc's series, from which the coefficient
  identity is read): count_by_enumeration classifies every positive word
  one by one.  walk_counts counts them by sparse steps along the letter
  permutations, one end set at a time; the tests rebuild genfunc's
  numerators from it (tests/test_ratfunc.py).
- genfunc: series_from_matrix, exact matrix powers.  The normal form and
  e_s (I - zA)^(-1) e_t both have numerator degree < d, denominator
  degree <= d and denominator constant term 1, so series that agree to 2d
  terms prove the functions equal (tests/test_ratfunc.py).  genfunc
  walks from the graph's basepoint; the references take the start s as
  an argument, and the tests compare them at every s on the graph
  re-based there.
- char_data's det(I - zA), packed from a graph's letter permutations:
  reciprocal_charpoly_by_faddeev, the Faddeev-LeVerrier recurrence on
  the whole transition matrix.
- poly_gcd: poly_gcd_by_prs, primitive-PRS Euclid without GCDHEU.
- period: period_by_cycles, the gcd of all simple cycle lengths.
- Residue sums and lemma 8 (partition._residue_sum, _lemma8_clauses,
  read in closed form from cyclic classes): residue_at and pole_order,
  the residues of the generating functions themselves.  residue_at
  returns None at a point that is not a pole and raises NotSimple at a
  multiple one.

The enumerations have hard budgets with loud errors, never silent
truncation.  _oracle_section runs them for `analyze --oracle`
(partition.analyze imports it only then), so only --oracle loads this
module.

The code that only the references run lives here too, so the production
modules hold only what a command runs: the word enumerations
(enumerate_positive, enumerate_reduced), divisibility in Q[z] (divides,
by cyclo.divmod_frac), the derivative, and walks and exact matrix powers
(walk_counts, series_from_matrix).  The arithmetic of Q(zeta_h), field
operations included, is cyclo.CycloNumber's.

Residues at z0 = zeta_h^m / n, with z0 handled symbolically through the
triple (h, m, n), take two steps, neither of them arithmetic in Q(zeta_h)
term by term:

- Pole test.  z0 is a primitive root of unity of order h' = h/gcd(m, h)
  scaled by 1/n, so its minimal polynomial over Q is Phi_h'(nz) up to a
  constant.  z0 is a root of D of multiplicity k iff Phi_h'(nz)^k
  divides D: integer divisibility tests, the same for every m coprime
  to h.
- Evaluation.  n^deg p(zeta_h^m / n) = sum_k c_k n^(deg-k) zeta_h^(km):
  the integer terms are bucketed by km mod h and reduced once modulo the
  monic Phi_h, all over the integers.  N and D' are evaluated this way
  and divided once in Q(zeta_h).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

from .covering import GAP, IS_PARTITION, OVERLAP, PartitionSpec, PartitionVerdict
from .cyclo import CycloNumber, cyclotomic, divmod_frac
from .poly import IntPolynomial, _int_quotient, _prs_gcd, content, primitive_part
from .ratfunc import RationalFunction, _step
from .schreier import Coset, SchreierGraph, membership, resolve
from .spectral import transition_matrix
from .words import Word, check_rank

COUNT_MAX_DEPTH = 14
# words --oracle classifies: count_depth's positive words of lengths 0..k
# per coset (depth 8 up to rank 4), words_depth's reduced words of lengths
# 0..L (length 5 up to rank 5)
COUNT_WORDS_BUDGET = 100_000
CYCLES_MAX_VERTICES = 8
WORDS_MAX_LEN = 7


class BudgetExceeded(Exception):
    """The requested enumeration is over the hard budget cap."""


class NotSimple(ValueError):
    """The requested pole has multiplicity greater than one."""


def enumerate_positive(rank: int, length: int) -> list[Word]:
    """All n^k positive words of the exact length, in shortlex order."""
    check_rank(rank)
    if length < 0:
        raise ValueError("length must be >= 0")
    return list(itertools.product(range(1, rank + 1), repeat=length))


def enumerate_reduced(rank: int, max_len: int) -> list[Word]:
    """All freely reduced words of length <= max_len, in shortlex order.

    The signed alphabet is ordered 1, -1, 2, -2, ...; the count is
    1 + sum_{k=1..L} 2n(2n-1)^(k-1).
    """
    check_rank(rank)
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    words: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            last = w[-1] if w else 0
            for x in letters:
                if x != -last:
                    nxt.append(w + (x,))
        words.extend(nxt)
        frontier = nxt
    return words


def count_by_enumeration(cst: Coset, depth: int) -> list[int]:
    """Counts of positive words of each length 0..depth lying in the coset,
    by classifying every word individually, one at a time."""
    if depth > COUNT_MAX_DEPTH:
        raise BudgetExceeded(f"depth {depth} exceeds cap {COUNT_MAX_DEPTH}")
    letters = range(1, cst.graph.rank + 1)
    return [
        sum(1 for w in itertools.product(letters, repeat=k) if membership(cst, w))
        for k in range(depth + 1)
    ]


def count_depth(rank: int) -> int:
    """The largest depth k <= 8 whose 1 + n + ... + n^k positive words fit
    COUNT_WORDS_BUDGET: the depth --oracle counts each coset to."""
    check_rank(rank)
    return max(
        k for k in range(9) if sum(rank**j for j in range(k + 1)) <= COUNT_WORDS_BUDGET
    )


def words_depth(rank: int) -> int:
    """The largest length L <= 5 whose 1 + sum_{k=1..L} 2n(2n-1)^(k-1)
    reduced words fit COUNT_WORDS_BUDGET: the length --oracle classifies
    every reduced word of a partition to."""
    check_rank(rank)
    sizes = [1] + [2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, 6)]
    return max(L for L in range(6) if sum(sizes[: L + 1]) <= COUNT_WORDS_BUDGET)


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


def _oracle_section(spec: PartitionSpec, verdict: PartitionVerdict, reports) -> dict:
    """The oracle section of `analyze --oracle` (partition.analyze): the
    word classification against the verdict, the word counts of every
    member against its report's genfunc, and the cycle gcd against its
    report's period for every member graph within the cycle budget."""
    max_len = words_depth(spec.rank)
    if partition_by_words(spec, max_len).ok:
        # the word oracle can only refute up to its length bound
        words_agree = verdict.ok or len(verdict.witness) > max_len
    else:
        # defect kinds may differ (the oracle scans signed words, the orbit
        # walk positive ones); agreement means both refute
        words_agree = not verdict.ok

    counts_agree = True
    depth = count_depth(spec.rank)
    for member, report in zip(spec.members, reports):
        if count_by_enumeration(member, depth) != report.genfunc.series(depth):
            counts_agree = False
            break

    periods_agree = True
    checked = 0
    for member, report in zip(spec.members, reports):
        if member.graph.d <= CYCLES_MAX_VERTICES:
            checked += 1
            if period_by_cycles(member.graph) != report.period:
                periods_agree = False
                break

    return {
        "words_depth": max_len,
        "words_agree": words_agree,
        "count_depth": depth,
        "counts_agree": counts_agree,
        "periods_checked": checked,
        "periods_agree": periods_agree,
        "all_agree": words_agree and counts_agree and periods_agree,
    }


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


def walk_counts(
    graph: SchreierGraph, start: int, ends: Iterable[int], depth: int
) -> list[int]:
    """s_k = sum over end in ends of (e_start A^k)_end for k = 0..depth:
    the positive words of length k leading from start to any of the ends,
    an end listed twice counting twice.  One sparse vector step per k."""
    vec = [0] * graph.d
    vec[start - 1] = 1
    ends = [end - 1 for end in ends]
    out = [sum(vec[e] for e in ends)]
    for _ in range(depth):
        vec = _step(graph, vec)
        out.append(sum(vec[e] for e in ends))
    return out


def series_from_matrix(
    graph: SchreierGraph, start: int, end: int, depth: int
) -> list[int]:
    """a_k = (A^k)_{start,end} for k = 0..depth, by exact matrix powers."""
    d = graph.d
    if not (1 <= start <= d and 1 <= end <= d):
        raise ValueError(f"start/end must lie in 1..{d}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return [row[end - 1] for row in _matrix_power_rows(graph, start, depth)]


def _matrix_power_rows(graph: SchreierGraph, start: int, depth: int) -> list[list[int]]:
    """The rows e_start A^k for k = 0..depth, by dense vector-matrix
    products: series_from_matrix at every end at once."""
    d = graph.d
    matrix = transition_matrix(graph)
    vec = [0] * d
    vec[start - 1] = 1
    rows = [vec]
    for _ in range(depth):
        vec = [
            sum(vec[i] * matrix[i][j] for i in range(d) if vec[i])
            for j in range(d)
        ]
        rows.append(vec)
    return rows


def divides(p: IntPolynomial, q: IntPolynomial) -> bool:
    """True iff p divides q in Q[z] (equivalently, exactly)."""
    if p.is_zero():
        return q.is_zero()
    _, rem = divmod_frac(q.coeffs, p.coeffs)
    return not rem


def derivative(p: IntPolynomial) -> IntPolynomial:
    return IntPolynomial([i * c for i, c in enumerate(p.coeffs)][1:])


def _scaled_eval(p: IntPolynomial, h: int, m: int, n: int) -> list[int]:
    """Integer coefficients over zeta_h, bucketed by exponent mod h, of
    n^deg(p) * p(zeta_h^m / n)."""
    if h < 1:
        raise ValueError("order must be >= 1")
    if n < 1:
        raise ValueError("rank must be >= 1")
    buckets = [0] * h
    scale = 1
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c:
            buckets[k * m % h] += c * scale
        scale *= n
    return buckets


def residue_at(f: RationalFunction, h: int, m: int, n: int) -> CycloNumber | None:
    """Residue N(z0)/D'(z0) of f at z0 = zeta_h^m / n, or None if z0 is not
    a pole.  Raises NotSimple if z0 is a multiple pole."""
    order = pole_order(f, h, m, n)
    if not order:
        return None
    if order > 1:
        raise NotSimple(f"zeta_{h}^{m}/{n} is a multiple pole")
    dprime = derivative(f.den)
    num = _scaled_eval(f.num, h, m, n)
    den = _scaled_eval(dprime, h, m, n)
    # N(z0)/D'(z0) = n^(deg D' - deg N) * num/den
    shift = dprime.degree - f.num.degree
    if shift >= 0:
        num = [c * n**shift for c in num]
    else:
        den = [c * n**-shift for c in den]
    return CycloNumber.from_integers(h, num) / CycloNumber.from_integers(h, den)


def pole_order(f: RationalFunction, h: int, m: int, n: int) -> int:
    """Multiplicity of z0 = zeta_h^m / n as a root of the denominator
    (0 if z0 is not a pole): the largest k with Phi_h'(nz)^k dividing it,
    where h' = h / gcd(m, h) is the order of zeta_h^m as a root of unity."""
    if h < 1:
        raise ValueError("order must be >= 1")
    if n < 1:
        raise ValueError("rank must be >= 1")
    # Phi_h'(nz) is primitive (constant term +-1), so by Gauss's lemma it
    # divides the denominator in Q[z] iff it does in Z[z]: integer division
    # decides
    factor = [c * n**j for j, c in enumerate(cyclotomic(h // math.gcd(m, h)).coeffs)]
    order, coeffs = 0, f.den.coeffs
    while len(coeffs) >= len(factor):
        coeffs = _int_quotient(coeffs, factor)
        if coeffs is None:
            break
        order += 1
    return order

