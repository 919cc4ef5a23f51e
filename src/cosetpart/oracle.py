"""Brute-force ground truth for cross-validating every fast path.

Everything here enumerates: positive words one by one for counting,
simple cycles for the period, reduced words for partition defects.  The
budgets are hard caps with loud errors, never silent truncation.
Residues at the scaled roots of unity are recomputed the direct way:
Horner's rule in Q(zeta_h) at the point itself, with the pole order read
off successive derivatives.
"""

from __future__ import annotations

import math
from fractions import Fraction

import networkx as nx

from .cyclo import CycloNumber, NotAPole, NotSimple
from .partition import (
    GAP,
    IS_PARTITION,
    OVERLAP,
    PartitionSpec,
    PartitionVerdict,
)
from .poly import IntPolynomial
from .ratfunc import RationalFunction
from .schreier import Coset, SchreierGraph, membership, resolve
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
    dig = nx.DiGraph()
    dig.add_nodes_from(range(1, graph.d + 1))
    for perm in graph.action:
        for v, w in enumerate(perm, start=1):
            dig.add_edge(v, w)
    g = 0
    for cycle in nx.simple_cycles(dig):
        g = math.gcd(g, len(cycle))
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
