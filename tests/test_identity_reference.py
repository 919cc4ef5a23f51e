"""The grouped identity checks against per-member references.

`check_coefficient_identity` walks once per distinct Schreier graph,
`check_sum_identity` normalises once per distinct denominator, and
`_lemma8_clauses` runs gcds only on denominators held by the two members
of a pair.  The references below do the same work one member, or one
member pair, at a time: dense matrix powers per member, one rational
addition per member, and for each pair a gcd stripped against every other
member's denominator.  Both must agree on partitions and on defective
families alike.
"""

import itertools

import pytest

from cosetpart.partition import (
    PartitionSpec,
    _lemma8_clauses,
    _member_reports,
    check_coefficient_identity,
    check_sum_identity,
    generate_partition,
    member_genfunc,
)
from cosetpart.poly import poly_gcd
from cosetpart.ratfunc import ZERO, geometric, series_from_matrix
from cosetpart.schreier import coset, transversal

DEPTHS = (0, 1, 7, 20)


def coefficient_identity_by_matrix(spec, depth):
    totals = [0] * (depth + 1)
    for member in spec.members:
        counts = series_from_matrix(
            member.graph, member.graph.basepoint, member.vertex, depth
        )
        for k, c in enumerate(counts):
            totals[k] += c
    return all(totals[k] == spec.rank**k for k in range(depth + 1))


def sum_identity_by_members(spec):
    total = ZERO
    for member in spec.members:
        total = total + member_genfunc(member)
    residual = total - geometric(spec.rank)
    return residual.is_zero(), residual


def strip_common_factors(g, other):
    common = poly_gcd(g, other)
    while common.degree >= 1:
        g = g.exact_div(common)
        common = poly_gcd(g, other)
    return g


def lemma8_by_pairs(reports):
    dens = [r.genfunc.den for r in reports]
    s = len(reports)
    entries = []
    for j, k in itertools.combinations(range(s), 2):
        exclusive = poly_gcd(dens[j], dens[k])
        for l in range(s):
            if l not in (j, k) and exclusive.degree >= 1:
                exclusive = strip_common_factors(exclusive, dens[l])
        if exclusive.degree < 1:
            continue
        rj, rk = reports[j], reports[k]
        n0j, n0k = rj.zero_multiplicity, rk.zero_multiplicity
        hypothesis = (n0j == 0 and n0k == 0) or (
            n0j == rj.period and n0k == rk.period
        )
        equal = rj.index == rk.index
        entries.append(
            {
                "pair": (j + 1, k + 1),
                "zero_multiplicities": (n0j, n0k),
                "periods": (rj.period, rk.period),
                "indices": (rj.index, rk.index),
                "hypothesis_met": hypothesis,
                "indices_equal": equal if hypothesis else None,
                "ok": equal if hypothesis else True,
            }
        )
    return {"entries": entries, "all_pass": all(e["ok"] for e in entries)}


def families(corpus, mutants, random_graph):
    """The corpus, its drop-one and duplicate-one mutants, the seed-7
    partition with the lemma-8 false alarm, and transversal partitions of
    fixed-seed random subgroups of index 16, 24 and 32."""
    out = {}
    for key, spec in corpus.items():
        out[key] = spec
        for i, members in enumerate(mutants(spec.members)):
            out[(*key, "mutant", i)] = PartitionSpec(spec.rank, members)
    out[(2, 3, 7)] = generate_partition(2, 3, 7)
    for d in (16, 24, 32):
        graph = random_graph(d, 1)
        out[("transversal", d)] = PartitionSpec(
            2, tuple(coset(graph, t) for t in transversal(graph))
        )
    return out


@pytest.fixture(scope="module")
def family_specs(corpus, mutants, random_graph):
    return families(corpus, mutants, random_graph)


def test_sum_identity_matches_per_member_sum(family_specs):
    outcomes = set()
    for key, spec in family_specs.items():
        ok, residual = check_sum_identity(spec)
        assert (ok, residual) == sum_identity_by_members(spec), key
        outcomes.add(ok)
    assert outcomes == {True, False}


def test_coefficient_identity_matches_matrix_powers(family_specs):
    outcomes = set()
    for key, spec in family_specs.items():
        for depth in DEPTHS:
            ok = check_coefficient_identity(spec, depth)
            assert ok == coefficient_identity_by_matrix(spec, depth), (key, depth)
            outcomes.add(ok)
    assert outcomes == {True, False}


def test_lemma8_matches_per_pair_gcds(family_specs):
    shared_den = distinct_dens = 0
    for key, spec in family_specs.items():
        reports = _member_reports(spec.members)
        result = _lemma8_clauses(reports)
        assert result == lemma8_by_pairs(reports), key
        for entry in result["entries"]:
            j, k = entry["pair"]
            if reports[j - 1].genfunc.den == reports[k - 1].genfunc.den:
                shared_den += 1
            else:
                distinct_dens += 1
    # both ways a pair can hold an exclusive factor occur
    assert shared_den > 0 and distinct_dens > 0
