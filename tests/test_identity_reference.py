"""The grouped identity checks and the closed-form residues against
per-member references.

`check_sum_identity` and `check_coefficient_identity` decide both
identities by one cross-multiplication over the distinct denominators,
evaluated at one power-of-two point beyond the residual's coefficient
bound, and read the coefficient identity off the residual's series when
the sum fails; the residues and lemma 8 are read from each member's index,
period and cyclic class.  The references below do the same work one
member at a time: dense matrix powers per member, one rational addition
per member, and residues of the members' generating functions
(`oracle.pole_order`, `residue_at`).  Both must agree
on partitions and on defective families alike.
"""

import random
from fractions import Fraction

import pytest

from cosetpart.corpus import generate_partition
from cosetpart.covering import PartitionSpec
from cosetpart.cyclo import CycloNumber
from cosetpart.oracle import pole_order, residue_at, series_from_matrix
from cosetpart.partition import (
    _identities,
    _lemma8_clauses,
    _member_reports,
    _residue_sum,
    check_coefficient_identity,
    check_sum_identity,
    member_periods,
)
from cosetpart.ratfunc import ZERO, genfunc, geometric, rational
from cosetpart.schreier import coset, from_permutations, transversal

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
        total = total + genfunc(member.graph, member.vertex)
    residual = total - geometric(spec.rank)
    return residual.is_zero(), residual


def lemma8_by_residues(spec):
    """(h, pair, ok) for every h whose pole zeta_h / n the generating
    functions of exactly two members have; ok iff their residues cancel."""
    n = spec.rank
    genfuncs = [genfunc(member.graph, member.vertex) for member in spec.members]
    entries = []
    for h in range(2, max(member_periods(spec)) + 1):
        pair = [i for i, f in enumerate(genfuncs) if pole_order(f, h, 1, n) >= 1]
        if len(pair) == 2:
            j, k = pair
            total = residue_at(genfuncs[j], h, 1, n) + residue_at(genfuncs[k], h, 1, n)
            entries.append((h, (j + 1, k + 1), total.is_zero()))
    return entries


def families(corpus, mutants, random_graph):
    """The corpus, its drop-one and duplicate-one mutants, the seed-7
    partition (whose members 1 and 3 share a denominator factor with poles
    off the circle |z| = 1/n), and transversal partitions of fixed-seed
    random subgroups of index 16, 24 and 32."""
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


def test_identity_at_one_point_is_not_fooled_by_a_root_of_the_residual():
    """[1/(1-2z), 2^j - z] at n = 2 leaves the residual 2^j - z, which
    vanishes at the power of two z = 2^j (8 - z at z = 8 for j = 3); the
    identity fails for every j."""
    for j in range(1, 70):
        residual = rational([2**j, -1], [1])
        assert _identities(2, [geometric(2), residual], 0) == (False, residual, False), j


def random_families(mutants, random_graph):
    """Families whose sum identity may hold or fail in many ways: random
    subsets of transversals of random subgroups of periods 1-3, with
    members duplicated at random, and the drop-one and duplicate-one
    mutants of partitions from a wider corpus grid (depths 4-5, seeds
    3-4)."""
    rng = random.Random(7)
    out = {}
    for d, seed, p in [(12, 5, 1), (16, 6, 1), (12, 5, 2), (16, 7, 2), (9, 2, 3), (12, 3, 3)]:
        graph = random_graph(d, seed, p)
        members = [coset(graph, t) for t in transversal(graph)]
        for trial in range(12):
            subset = rng.sample(members, rng.randint(1, d))
            subset += rng.choices(members, k=rng.randint(0, 2))
            if trial == 0:
                subset = members
            out[("transversal", d, seed, p, trial)] = PartitionSpec(2, tuple(subset))
    for rank in (1, 2, 3):
        for depth in (4, 5):
            for seed in (3, 4):
                spec = generate_partition(rank, depth, seed)
                out[(rank, depth, seed)] = spec
                for i, members in enumerate(mutants(spec.members)):
                    out[(rank, depth, seed, "mutant", i)] = PartitionSpec(rank, members)
    return out


def test_sum_identity_at_one_point_matches_normal_form_sums(mutants, random_graph):
    outcomes = set()
    for key, spec in random_families(mutants, random_graph).items():
        genfuncs = [genfunc(m.graph, m.vertex) for m in spec.members]
        total = sum(genfuncs, ZERO)
        sum_ok = _identities(spec.rank, genfuncs, 0)[0]
        assert sum_ok == (total == geometric(spec.rank)), key
        assert check_sum_identity(spec)[0] == sum_ok, key
        outcomes.add(sum_ok)
    assert outcomes == {True, False}


def test_coefficient_identity_matches_matrix_powers(family_specs):
    outcomes = set()
    for key, spec in family_specs.items():
        for depth in DEPTHS:
            ok = check_coefficient_identity(spec, depth)
            assert ok == coefficient_identity_by_matrix(spec, depth), (key, depth)
            outcomes.add(ok)
    assert outcomes == {True, False}


def test_lemma8_matches_genfunc_residues(family_specs):
    outcomes = set()
    for key, spec in family_specs.items():
        result = _lemma8_clauses(_member_reports(spec.members))
        entries = [(e["period"], e["pair"], e["ok"]) for e in result["entries"]]
        assert entries == lemma8_by_residues(spec), key
        outcomes.update(ok for _, _, ok in entries)
    # the mutants are not partitions, so some pairs fail to cancel
    assert outcomes == {True, False}


def closed_form_matches(reports, n):
    """Compare the residue -zeta_h^(l + 1) / (n d) that the closed form gives
    at zeta_h / n when h divides the period, and no pole otherwise, with
    residue_at for h = 2..12; returns the numbers of poles and non-poles.
    partition's one-member residue sum must give the same value (zero off
    the poles)."""
    poles = non_poles = 0
    for r in reports:
        for h in range(2, 13):
            value = residue_at(r.genfunc, h, 1, n)
            closed = _residue_sum([r], n, h, 1)
            assert closed == (CycloNumber(h) if value is None else value), (r, h)
            if r.period % h:
                assert value is None, (r, h)
                non_poles += 1
            else:
                expected = CycloNumber.from_integers(h, [0] * ((r.cyclic_class + 1) % h) + [1])
                assert value == expected * Fraction(-1, n * r.index), (r, h)
                poles += 1
    return poles, non_poles


def test_closed_form_residues_match_genfunc_route(graph_family):
    counts = [0, 0]
    for rank in (1, 2, 3):
        for depth in range(1, 9):
            for seed in range(1, 9):
                members = generate_partition(rank, depth, seed).members
                for i, c in enumerate(closed_form_matches(_member_reports(members), rank)):
                    counts[i] += c
    assert counts == [2351, 15788]
    # the class is measured from the basepoint, which the corpus always
    # puts at vertex 1: move it to every vertex of the graph zoo
    for graph in graph_family.values():
        for basepoint in range(2, graph.d + 1):
            moved = from_permutations(graph.rank, graph.action, basepoint)
            members = [coset(moved, t) for t in transversal(moved)]
            closed_form_matches(_member_reports(members), graph.rank)
