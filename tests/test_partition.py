import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import relabelled_cycle_family

from cosetpart import partition, ratfunc, spectral
from cosetpart.corpus import _meet, _split, generate_partition
from cosetpart.covering import (
    GAP,
    IS_PARTITION,
    OVERLAP,
    NotAPartition,
    PartitionSpec,
    _davenport_rado_clauses,
    _theorem1_clauses,
    _theorem2_clauses,
    davenport_rado_check,
    z_verify,
)
from cosetpart.oracle import partition_by_words, series_from_matrix
from cosetpart.partition import (
    analyze,
    check_coefficient_identity,
    check_sum_identity,
    lemma8_diagnostic,
    member_periods,
    residue_sum_check,
    theorem1_check,
    theorem2_check,
    verify_partition,
    z_lift,
)
from cosetpart.ratfunc import genfunc, geometric, rational
from cosetpart.schreier import (
    SchreierGraph,
    coset,
    from_permutations,
    membership,
    resolve,
    subgroup_coset,
    transversal,
    trivial_graph,
)
from cosetpart.spectral import period
from cosetpart.zcovering import generate_z_covering


def transversal_partition(graph):
    return PartitionSpec(
        graph.rank, tuple(coset(graph, t) for t in transversal(graph))
    )


def test_verify_partition_examples(mod2_partition, mod2_graph):
    assert verify_partition(mod2_partition).status == IS_PARTITION
    dup = PartitionSpec(2, (subgroup_coset(mod2_graph), subgroup_coset(mod2_graph)))
    v = verify_partition(dup)
    assert (v.status, v.witness, v.overlap_indices) == (OVERLAP, (), (1, 2))
    lone = PartitionSpec(2, (subgroup_coset(mod2_graph),))
    v = verify_partition(lone)
    assert (v.status, v.witness) == (GAP, (1,))


def test_witnesses_are_membership_certified(mod2_graph, fig1_graph):
    # overlap witness lies in both members; gap witness lies in none
    dup = PartitionSpec(2, (subgroup_coset(mod2_graph), subgroup_coset(mod2_graph)))
    v = verify_partition(dup)
    i, j = v.overlap_indices
    assert membership(dup.members[i - 1], v.witness)
    assert membership(dup.members[j - 1], v.witness)
    partial = PartitionSpec(2, tuple(coset(fig1_graph, (1,) * r) for r in range(3)))
    v = verify_partition(partial)
    assert v.status == GAP
    assert not any(membership(m, v.witness) for m in partial.members)


def test_sum_identity_examples(mod2_partition, fig1_transversal_partition, mod2_graph):
    ok, residual = check_sum_identity(mod2_partition)
    assert ok and residual.is_zero()
    ok, _ = check_sum_identity(fig1_transversal_partition)
    assert ok
    dup = PartitionSpec(2, (subgroup_coset(mod2_graph), subgroup_coset(mod2_graph)))
    ok, residual = check_sum_identity(dup)
    assert not ok
    # 2/(1-4z^2) - 1/(1-2z) = (1-2z)/(1-4z^2) = 1/(1+2z)
    assert residual == rational([1], [1, 2])


def test_coefficient_identity_examples(mod2_partition, mod2_graph):
    assert check_coefficient_identity(mod2_partition, 4)
    assert check_coefficient_identity(
        PartitionSpec(2, (subgroup_coset(trivial_graph(2)),)), 6
    )
    dup = PartitionSpec(2, (subgroup_coset(mod2_graph), subgroup_coset(mod2_graph)))
    assert not check_coefficient_identity(dup, 2)


def test_theorem1_examples(mod2_partition):
    t1 = theorem1_check(mod2_partition)
    assert t1["periods"] == [2, 2]
    assert t1["clause_i"] == {"status": "pass", "max_period": 2, "attainers": [1, 2]}
    assert t1["all_pass"]

    lifted = z_lift([(2, 0), (4, 1), (4, 3)])
    t1 = theorem1_check(lifted)
    assert t1["periods"] == [2, 4, 4]
    assert t1["clause_i"]["max_period"] == 4
    assert t1["clause_i"]["attainers"] == [2, 3]
    assert t1["all_pass"]

    trivial = PartitionSpec(2, (subgroup_coset(trivial_graph(2)),))
    t1 = theorem1_check(trivial)
    assert t1["clause_i"]["status"] == "vacuous"
    assert t1["clause_iii"]["status"] == "vacuous"
    assert t1["all_pass"]


def test_theorem1_requires_partition(mod2_graph):
    dup = PartitionSpec(2, (subgroup_coset(mod2_graph), subgroup_coset(mod2_graph)))
    with pytest.raises(NotAPartition):
        theorem1_check(dup)
    with pytest.raises(NotAPartition):
        theorem2_check(dup)
    with pytest.raises(NotAPartition):
        lemma8_diagnostic(dup)


def test_theorem2_examples(mod2_partition, s3_kernel_graph):
    lifted = z_lift([(2, 0), (4, 1), (4, 3)])
    t2 = theorem2_check(lifted)
    assert t2["clause_i"]["status"] == "pass"
    assert t2["clause_i"]["max_index"] == 4
    assert t2["clause_i"]["attainers"] == [2, 3]
    assert t2["all_pass"]

    t2 = theorem2_check(mod2_partition)
    assert t2["clause_i"]["status"] == "pass"
    assert t2["clause_i"]["attainers"] == [1, 2]

    # aperiodic graph of index 6: the largest index never attains its period
    spec = transversal_partition(s3_kernel_graph)
    t2 = theorem2_check(spec)
    assert member_periods(spec) == [1] * 6
    assert t2["clause_i"]["status"] == "not_applicable"
    assert t2["all_pass"]


def test_residue_sum_examples(mod2_partition, fig1_transversal_partition):
    assert residue_sum_check(mod2_partition, 2, 1).is_zero()
    for m in (1, 3):
        assert residue_sum_check(fig1_transversal_partition, 4, m).is_zero()
    # full-group base case: the sum at h=1 is the residue of 1/(1-nz)
    whole = PartitionSpec(2, (subgroup_coset(trivial_graph(2)),))
    assert residue_sum_check(whole, 1, 0) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        residue_sum_check(mod2_partition, 4, 2)  # m not coprime to h


def test_residue_sums_are_galois_conjugates():
    # analyze reads the sum at m as sigma_m of the sum at m = 1; on a
    # partition both are zero, so only records with nonzero sums exercise it
    rng = random.Random(3)
    nonzero = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        recs = []
        for _ in range(rng.randint(1, 5)):
            h_i = rng.choice([2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 20])
            index = h_i * rng.randint(1, 3)
            recs.append(partition.CyclicRecord(index, h_i, rng.randrange(h_i)))
        periods = {r.period for r in recs}
        for h in sorted({h for p in periods for h in range(2, p + 1) if p % h == 0}):
            first = partition._residue_sum(recs, n, h, 1)
            nonzero += not first.is_zero()
            for m in range(1, h):
                if math.gcd(m, h) == 1:
                    assert partition._residue_sum(recs, n, h, m) == first.conjugate(m)
    assert nonzero > 1500


def test_partition_residue_sums_are_integral_zeros(corpus):
    # every residue sum analyze reports on a partition is zero, and a zero
    # is held with int coefficients, so reporting it builds no Fraction
    entries = 0
    for key, spec in corpus.items():
        for e in analyze(spec).residue_sums:
            entries += 1
            assert e["is_zero"], (key, e["period"], e["m"])
            assert all(type(c) is int for c in e["value"].coeffs), (key, e["period"], e["m"])
    assert entries > 0


def test_lemma8_examples(mod2_partition, fig1_transversal_partition):
    l8 = lemma8_diagnostic(mod2_partition)
    assert l8["entries"] == [
        {"period": 2, "pair": (1, 2), "indices": (2, 2), "classes": (0, 1), "ok": True}
    ]
    assert l8["all_pass"]
    # four members attain every pole class: no pair, no entries
    l8 = lemma8_diagnostic(fig1_transversal_partition)
    assert l8["entries"] == [] and l8["all_pass"]


def test_lemma8_noninvertible_pair():
    # kernel of a -> 1, b -> 0 in Z/2: A = [[1,1],[1,1]], q = 1 - 2z; both
    # members have period 1, so no h > 1 divides a period and there is no
    # entry
    graph = from_permutations(2, [(2, 1), (1, 2)])
    spec = transversal_partition(graph)
    assert member_periods(spec) == [1, 1]
    l8 = lemma8_diagnostic(spec)
    assert l8["entries"] == [] and l8["all_pass"]


def test_lemma8_seed7_entries():
    # members 1 and 2 alone have even period; member 3 has period 1, so the
    # factor 1 + 3z^2 that members 1 and 3 share (poles on |z| = 1/sqrt(3),
    # off the circle |z| = 1/n) yields no entry
    l8 = lemma8_diagnostic(generate_partition(2, 3, 7))
    assert l8["entries"] == [
        {"period": 2, "pair": (1, 2), "indices": (12, 12), "classes": (0, 1), "ok": True}
    ]
    assert l8["all_pass"]


def test_seed7_partition_passes_every_check():
    assert analyze(generate_partition(2, 3, 7)).all_checks_pass


def test_z_verify_examples():
    assert z_verify([(2, 0), (4, 1), (4, 3)]).status == IS_PARTITION
    assert z_verify([(2, 0), (2, 1)]).status == IS_PARTITION
    v = z_verify([(2, 0), (4, 1)])
    assert (v.status, v.witness) == (GAP, 3)
    v = z_verify([(2, 0), (2, 0)])
    assert (v.status, v.witness, v.overlap_indices) == (OVERLAP, 0, (1, 2))
    # no integer lies in 2Z + 1/2, and True is no modulus or residue
    for classes in (
        [(2, 0.5), (2, 1.5)],
        [(2, 0), (2, True)],
        [(True, 0)],
        [(2.0, 0), (2, 1)],
        [(0, 0)],
        [5],
        [(2,)],
        [(2, 0, 1)],
        [None],
    ):
        with pytest.raises(ValueError):
            z_verify(classes)
        with pytest.raises(ValueError):
            davenport_rado_check(classes)


def test_z_lift_examples():
    (cst,) = z_lift([(3, 0)]).members
    assert cst.graph.d == 3 and cst.vertex == cst.graph.basepoint
    (cst,) = z_lift([(4, 1)]).members
    assert cst.vertex == 2
    assert genfunc(cst.graph, cst.vertex) == rational([0, 1], [1, 0, 0, 0, -1])
    (cst,) = z_lift([(1, 0)]).members
    assert genfunc(cst.graph, 1) == rational([1], [1, -1])


def test_z_lift_period_equals_modulus():
    for d in range(1, 13):
        (cst,) = z_lift([(d, 0)]).members
        assert period(cst.graph) == d


def lift_per_class(classes):
    """The lift with a new d-cycle built for every class dZ + r."""
    members = []
    for d, r in classes:
        cycle = from_permutations(1, [list(range(2, d + 1)) + [1]])
        members.append(coset(cycle, (1,) * (r % d)))
    return PartitionSpec(1, tuple(members))


def test_z_lift_equals_per_class_lift(z_coverings):
    for classes in z_coverings:
        for family in (classes, classes[:-1] + ((classes[-1][0], classes[-1][1] + 7),)):
            lifted = z_lift(family)
            assert lifted == lift_per_class(family)
            for (d, r), member in zip(family, lifted.members):
                assert z_lift([(d, r)]).members == (member,)


def test_z_lift_shares_one_graph_per_modulus(z_coverings):
    for classes in z_coverings:
        members = z_lift(classes).members
        assert len({id(m.graph) for m in members}) == len({d for d, _ in classes})
        for a, b in itertools.combinations(members, 2):
            assert (a.graph is b.graph) == (a.graph.d == b.graph.d)


def test_member_periods_run_once_per_modulus(z_coverings):
    # member_periods and analyze (whose char_data reads the same memoised
    # period) share one gcd sweep per modulus; rank-1 verify_partition reads
    # each class off its graph's levels and runs none
    for classes in z_coverings[-6:]:
        spectral.period.cache_clear()
        lifted = z_lift(classes)
        assert verify_partition(lifted).ok
        assert spectral.period.cache_info().misses == 0
        assert member_periods(lifted) == [d for d, _ in classes]
        assert member_periods(lifted) == [d for d, _ in classes]
        assert analyze(lifted).all_checks_pass
        misses = spectral.period.cache_info().misses
        assert len(classes) > misses == len({d for d, _ in classes})


def test_analyze_looks_up_spectra_once_per_graph(monkeypatch, random_graph):
    char_data = spectral.char_data
    looked_up = []

    def counted(graph):
        looked_up.append(graph)
        return char_data(graph)

    monkeypatch.setattr(partition, "char_data", counted)
    graph = random_graph(12, 3)
    spec = transversal_partition(graph)
    spectral.period.cache_clear()
    report = analyze(spec)
    assert report.all_checks_pass
    lemma8_diagnostic(spec)  # reads the memoised period, not char_data
    assert len(looked_up) == 1 and len(spec.members) == 12
    assert spectral.period.cache_info().misses == 1


def exponent_sum(word):
    return len(word) - 2 * len([x for x in word if x < 0])


def test_cyclic_class_is_the_exponent_sum_of_the_rep(random_graph):
    # the class is the level of the member's vertex, and the transversal
    # word is a positive path there of that length; every letter of the
    # signed representative moves the class by its sign, so the exponent
    # sum of the rep gives the class too (the lemma _pushforward_holds uses)
    rng = random.Random(23)
    signed = 0
    for h in (1, 2, 3):
        for d, seed in ((6, 1), (12, 2), (18, 3)):
            graph = random_graph(d, seed, h)
            reps = transversal(graph)
            for _ in range(40):
                word = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(13))]
                member = coset(graph, word)
                if h == 3:
                    signed += any(x < 0 for x in member.rep)
                expected = len(reps[member.vertex - 1]) % h
                assert partition._cyclic_class(member, h) == expected
                assert exponent_sum(member.rep) % h == expected
    assert signed > 0
    # rank-1 relabelled cycles with moved basepoints, each rep a^r or
    # a^(r - d): the classes the cyclic branch of verify_partition reads
    rng = random.Random(24)
    basepoints = set()
    for _ in range(20):
        for member in relabelled_cycle_family(rng):
            d = member.graph.d
            basepoints.add(member.graph.basepoint)
            assert partition._cyclic_class(member, d) == exponent_sum(member.rep) % d
    assert len(basepoints) > 1


def test_residue_and_lemma8_wrappers_skip_spectra_and_genfuncs(
    monkeypatch, corpus, random_graph, fig1_transversal_partition
):
    specs = list(corpus.values()) + [
        generate_partition(2, 3, 7),
        fig1_transversal_partition,
        transversal_partition(random_graph(40, 1, 2)),
    ]
    expected = []
    for spec in specs:
        reports = partition._member_reports(spec.members)
        sums = {
            (h, m): partition._residue_sum(reports, spec.rank, h, m)
            for h in range(1, 13)
            for m in range(h)
            if math.gcd(m, h) == 1
        }
        expected.append((sums, partition._lemma8_clauses(reports)))

    def refuse(*args):
        raise AssertionError("the closed form needs no q(z) and no genfunc")

    for module in (partition, spectral):
        monkeypatch.setattr(module, "char_data", refuse)
    for module in (partition, ratfunc):
        monkeypatch.setattr(module, "genfunc", refuse)
    for spec, (sums, lemma8) in zip(specs, expected):
        for (h, m), value in sums.items():
            assert residue_sum_check(spec, h, m) == value
        assert lemma8_diagnostic(spec) == lemma8


def test_davenport_rado_examples():
    dr = davenport_rado_check([(2, 0), (4, 1), (4, 3)])
    assert dr["max_modulus"] == 4 and dr["max_count"] == 2
    assert dr["largest_repeats"] and dr["all_pass"]
    # the gate: not a partition, so the check refuses to run
    with pytest.raises(NotAPartition):
        davenport_rado_check([(2, 0), (3, 1), (6, 5)])
    dr = davenport_rado_check([(1, 0)])
    assert dr["applicable"] is False and dr["all_pass"]


def davenport_rado_of(moduli):
    # the Davenport-Rado report as zanalyze and davenport_rado_check build it
    return _davenport_rado_clauses(_theorem1_clauses(moduli))


# Every status branch of the clause builders, on hand-built lists: the
# theorems hold on real partitions, so only such lists reach a "fail".
T1_I_VACUOUS = {"status": "vacuous", "max_period": 1, "attainers": []}
VACUOUS = {"status": "vacuous", "entries": []}
DR_NOT_APPLICABLE = {
    "applicable": False, "max_modulus": 1, "largest_repeats": None, "divisibility": [],
    "all_pass": True,
}
CLAUSE_TABLE = [
    # theorem 1: (i)-(iii) vacuous
    (_theorem1_clauses, ([1],), {
        "periods": [1], "clause_i": T1_I_VACUOUS, "clause_ii": VACUOUS,
        "clause_iii": VACUOUS, "all_pass": True,
    }),
    (_theorem1_clauses, ([1, 1],), {
        "periods": [1, 1], "clause_i": T1_I_VACUOUS, "clause_ii": VACUOUS,
        "clause_iii": {"status": "pass", "entries": [
            {"member": 1, "period": 1, "witness": 2, "ok": True},
            {"member": 2, "period": 1, "witness": 1, "ok": True},
        ]},
        "all_pass": True,
    }),
    # theorem 1: (i)-(iii) pass
    (_theorem1_clauses, ([2, 4, 4],), {
        "periods": [2, 4, 4],
        "clause_i": {"status": "pass", "max_period": 4, "attainers": [2, 3]},
        "clause_ii": {"status": "pass", "entries": [
            {"period": 4, "attainers": [2, 3], "ok": True},
        ]},
        "clause_iii": {"status": "pass", "entries": [
            {"member": 1, "period": 2, "witness": 2, "ok": True},
            {"member": 2, "period": 4, "witness": 3, "ok": True},
            {"member": 3, "period": 4, "witness": 2, "ok": True},
        ]},
        "all_pass": True,
    }),
    # theorem 1: (i)-(iii) fail
    (_theorem1_clauses, ([2, 3],), {
        "periods": [2, 3],
        "clause_i": {"status": "fail", "max_period": 3, "attainers": [2]},
        "clause_ii": {"status": "fail", "entries": [
            {"period": 2, "attainers": [1], "ok": False},
            {"period": 3, "attainers": [2], "ok": False},
        ]},
        "clause_iii": {"status": "fail", "entries": [
            {"member": 1, "period": 2, "witness": None, "ok": False},
            {"member": 2, "period": 3, "witness": None, "ok": False},
        ]},
        "all_pass": False,
    }),
    # theorem 1: one member of period 6, so (iii) is vacuous
    (_theorem1_clauses, ([6],), {
        "periods": [6],
        "clause_i": {"status": "fail", "max_period": 6, "attainers": [1]},
        "clause_ii": {"status": "fail", "entries": [
            {"period": 6, "attainers": [1], "ok": False},
        ]},
        "clause_iii": VACUOUS,
        "all_pass": False,
    }),
    # theorem 2: index 1 never triggers (i), and (ii) is vacuous
    (_theorem2_clauses, ([1], [1]), {
        "periods": [1], "indices": [1],
        "clause_i": {
            "status": "not_applicable", "max_index": 1, "attainers": [1],
            "period_equals_index_at": [],
        },
        "clause_ii": VACUOUS,
        "all_pass": True,
    }),
    # theorem 2: (i) and (ii) pass
    (_theorem2_clauses, ([2, 4, 4], [2, 4, 4]), {
        "periods": [2, 4, 4], "indices": [2, 4, 4],
        "clause_i": {
            "status": "pass", "max_index": 4, "attainers": [2, 3],
            "period_equals_index_at": [2, 3],
        },
        "clause_ii": {"status": "pass", "entries": [
            {"period": 4, "attainers": [2, 3], "max_index_in_group": 4,
             "period_equals_index_at": [2, 3], "applicable": True, "ok": True},
        ]},
        "all_pass": True,
    }),
    # theorem 2: (i) and (ii) fail
    (_theorem2_clauses, ([2, 3], [2, 3]), {
        "periods": [2, 3], "indices": [2, 3],
        "clause_i": {
            "status": "fail", "max_index": 3, "attainers": [2],
            "period_equals_index_at": [2],
        },
        "clause_ii": {"status": "fail", "entries": [
            {"period": 2, "attainers": [1], "max_index_in_group": 2,
             "period_equals_index_at": [1], "applicable": True, "ok": False},
            {"period": 3, "attainers": [2], "max_index_in_group": 3,
             "period_equals_index_at": [2], "applicable": True, "ok": False},
        ]},
        "all_pass": False,
    }),
    # theorem 2: (i) and (ii) not applicable
    (_theorem2_clauses, ([2, 2], [4, 4]), {
        "periods": [2, 2], "indices": [4, 4],
        "clause_i": {
            "status": "not_applicable", "max_index": 4, "attainers": [1, 2],
            "period_equals_index_at": [],
        },
        "clause_ii": {"status": "not_applicable", "entries": [
            {"period": 2, "attainers": [1, 2], "max_index_in_group": 4,
             "period_equals_index_at": [], "applicable": False, "ok": None},
        ]},
        "all_pass": True,
    }),
    # theorem 2: (ii) passes with one entry not applicable
    (_theorem2_clauses, ([2, 3, 3], [4, 3, 3]), {
        "periods": [2, 3, 3], "indices": [4, 3, 3],
        "clause_i": {
            "status": "not_applicable", "max_index": 4, "attainers": [1],
            "period_equals_index_at": [],
        },
        "clause_ii": {"status": "pass", "entries": [
            {"period": 2, "attainers": [1], "max_index_in_group": 4,
             "period_equals_index_at": [], "applicable": False, "ok": None},
            {"period": 3, "attainers": [2, 3], "max_index_in_group": 3,
             "period_equals_index_at": [2, 3], "applicable": True, "ok": True},
        ]},
        "all_pass": True,
    }),
    # Davenport-Rado: not applicable (largest modulus 1)
    (davenport_rado_of, ([1],), {**DR_NOT_APPLICABLE, "max_count": 1}),
    (davenport_rado_of, ([1, 1],), {**DR_NOT_APPLICABLE, "max_count": 2}),
    # Davenport-Rado: pass
    (davenport_rado_of, ([2, 4, 4],), {
        "applicable": True, "max_modulus": 4, "max_count": 2, "largest_repeats": True,
        "divisibility": [
            {"member": 1, "modulus": 2, "divides_member": 2, "ok": True},
            {"member": 2, "modulus": 4, "divides_member": 3, "ok": True},
            {"member": 3, "modulus": 4, "divides_member": 2, "ok": True},
        ],
        "all_pass": True,
    }),
    # Davenport-Rado: the largest modulus does not repeat (so divides no other)
    (davenport_rado_of, ([2, 4],), {
        "applicable": True, "max_modulus": 4, "max_count": 1, "largest_repeats": False,
        "divisibility": [
            {"member": 1, "modulus": 2, "divides_member": 2, "ok": True},
            {"member": 2, "modulus": 4, "divides_member": None, "ok": False},
        ],
        "all_pass": False,
    }),
    # not a covering: one class, so theorem 1 (iii), and with it the
    # divisibility list, is vacuous
    (davenport_rado_of, ([5],), {
        "applicable": True, "max_modulus": 5, "max_count": 1, "largest_repeats": False,
        "divisibility": [], "all_pass": False,
    }),
    # Davenport-Rado: the largest modulus repeats, but 3 divides no other
    (davenport_rado_of, ([3, 4, 4],), {
        "applicable": True, "max_modulus": 4, "max_count": 2, "largest_repeats": True,
        "divisibility": [
            {"member": 1, "modulus": 3, "divides_member": None, "ok": False},
            {"member": 2, "modulus": 4, "divides_member": 3, "ok": True},
            {"member": 3, "modulus": 4, "divides_member": 2, "ok": True},
        ],
        "all_pass": False,
    }),
]



def test_clause_builders_on_hand_built_lists():
    for builder, args, expected in CLAUSE_TABLE:
        assert builder(*args) == expected, (builder.__name__, args)


def test_davenport_rado_is_theorem1_renamed(z_coverings):
    # clauses (i) and (iii) of theorem 1 on the moduli, under Davenport and
    # Rado's names, on Z itself, generated coverings and the 2^40 chain
    chain40 = [(2**j, 2 ** (j - 1) - 1) for j in range(1, 41)] + [(2**40, 2**40 - 1)]
    for classes in [[(1, 0)], *z_coverings, chain40]:
        moduli = [d for d, _ in classes]
        t1 = _theorem1_clauses(moduli)
        top, divisibility = t1["clause_i"], t1["clause_iii"]
        applicable = max(moduli) > 1
        assert davenport_rado_check(classes) == {
            "applicable": applicable,
            "max_modulus": top["max_period"],
            "max_count": len(top["attainers"]) if applicable else len(moduli),
            "largest_repeats": top["status"] == "pass" if applicable else None,
            "divisibility": [
                {"member": e["member"], "modulus": e["period"],
                 "divides_member": e["witness"], "ok": e["ok"]}
                for e in divisibility["entries"]
            ],
            "all_pass": top["status"] != "fail" and divisibility["status"] != "fail",
        }, classes


def test_z_verify_agrees_with_lifted_machinery():
    systems = [
        [(2, 0), (4, 1), (4, 3)],
        [(2, 0), (2, 1)],
        [(2, 0), (4, 1)],
        [(2, 0), (2, 0)],
        [(3, 0), (3, 1), (3, 2)],
        [(1, 0)],
    ]
    for classes in systems:
        direct = z_verify(classes)
        classes_norm = [(d, r % d) for d, r in classes]
        lifted = verify_partition(z_lift(classes_norm))
        assert direct.status == lifted.status
        if direct.ok:
            assert member_periods(z_lift(classes_norm)) == [d for d, _ in classes_norm]


def test_defective_z_systems_lift_faithfully():
    # break generated covering systems and compare both routes: statuses
    # match and the lifted witness is a^x for the smallest violator x
    checked = 0
    for seed in range(1, 20):
        classes = list(generate_z_covering(2, seed))
        broken = classes[:-1] if seed % 2 else classes + [classes[0]]
        direct = z_verify(broken)
        lifted = verify_partition(z_lift(broken))
        assert direct.status == lifted.status
        if not direct.ok:
            checked += 1
            assert lifted.witness == (1,) * direct.witness
    assert checked > 0


def test_generate_z_covering_systems():
    seen = set()
    for seed in range(1, 13):
        classes = generate_z_covering(3, seed)
        seen.add(classes)
        assert z_verify(classes).status == IS_PARTITION
        dr = davenport_rado_check(classes)
        assert dr["all_pass"]
    assert len(seen) > 1  # seeds actually vary the output


def test_generate_partition_contracts():
    spec = generate_partition(2, 0, 99)
    assert len(spec.members) == 1 and spec.members[0].graph.d == 1

    a = generate_partition(2, 2, 7)
    b = generate_partition(2, 2, 7)
    assert a == b  # deterministic in the seed

    c = generate_partition(2, 1, 7)
    assert len(c.members) >= 2

    for rank in (1, 2, 3):
        for seed in (11, 12):
            spec = generate_partition(rank, 2, seed)
            assert verify_partition(spec).status == IS_PARTITION


def test_refine_member_splits_one_coset(mod2_graph):
    member = subgroup_coset(trivial_graph(2))
    parts = _split(member, _meet(member.graph, mod2_graph))
    assert [m.graph.d for m in parts] == [2, 2]
    assert verify_partition(PartitionSpec(2, tuple(parts))).status == IS_PARTITION


def test_partition_soundness_against_word_oracle(corpus):
    for (rank, _, _), spec in corpus.items():
        length = 6 if rank <= 2 else 5
        assert partition_by_words(spec, length).status == IS_PARTITION


def test_word_oracle_confirms_defects(mod2_graph, fig1_graph):
    specs = [
        PartitionSpec(2, (subgroup_coset(mod2_graph), subgroup_coset(mod2_graph))),
        PartitionSpec(2, (subgroup_coset(fig1_graph),)),
    ]
    for spec in specs:
        fast = verify_partition(spec)
        slow = partition_by_words(spec, 5)
        assert fast.status == slow.status
        assert fast.witness == slow.witness


def test_properties_hold_on_corpus(corpus):
    for key, spec in corpus.items():
        assert verify_partition(spec).ok, key
        ok, residual = check_sum_identity(spec)
        assert ok and residual.is_zero(), key
        assert check_coefficient_identity(spec, 20), key
        for member in spec.members:
            f = genfunc(member.graph, member.vertex)
            assert f.series(12) == series_from_matrix(
                member.graph, member.graph.basepoint, member.vertex, 12
            ), key
        assert theorem1_check(spec)["all_pass"], key
        assert theorem2_check(spec)["all_pass"], key
        assert lemma8_diagnostic(spec)["all_pass"], key
        for h in sorted({p for p in member_periods(spec) if p > 1}):
            for m in range(1, h):
                if math.gcd(m, h) == 1:
                    assert residue_sum_check(spec, h, m).is_zero(), (key, h, m)


def test_properties_hold_on_wide_grid():
    for rank in (1, 2, 3):
        for depth in range(1, 13):
            for seed in range(1, 11):
                key = (rank, depth, seed)
                report = analyze(generate_partition(*key))
                assert report.verdict.status == IS_PARTITION, key
                assert report.sum_identity_holds, key
                assert report.coefficient_identity_holds, key
                assert all(e["is_zero"] for e in report.residue_sums), key
                assert report.theorem1["all_pass"], key
                assert report.theorem2["all_pass"], key
                assert report.lemma8["all_pass"], key


def test_analyze_on_partition(mod2_partition):
    report = analyze(mod2_partition, series_depth=10, with_oracle=True)
    assert report.all_checks_pass
    assert [m.index for m in report.members] == [2, 2]
    assert [m.period for m in report.members] == [2, 2]
    assert report.oracle["all_agree"]


@pytest.mark.parametrize(
    "d, seed, want_period", [(48, 1, 1), (40, 1, 2), (64, 1, 1), (80, 1, 1)]
)
def test_analyze_large_transversal_partition(random_graph, d, seed, want_period):
    spec = transversal_partition(random_graph(d, seed, want_period))
    report = analyze(spec)
    assert report.verdict.status == IS_PARTITION
    assert report.sum_identity_holds and report.sum_residual.is_zero()
    assert report.coefficient_identity_holds
    assert [e["period"] for e in report.residue_sums] == [2] * (want_period == 2)
    assert all(e["is_zero"] for e in report.residue_sums)
    assert report.all_checks_pass


def moved_basepoints(spec):
    """The family with each member graph's basepoint swapped with its
    vertex d by relabelling the letter permutations.  The reps are kept,
    so every member is the same coset of the same subgroup, now at the
    swapped vertex."""
    moved = {}
    for graph in {m.graph for m in spec.members}:
        swap = {graph.basepoint: graph.d, graph.d: graph.basepoint}

        def sigma(v):
            return swap.get(v, v)

        action = tuple(
            tuple(sigma(perm[sigma(v) - 1]) for v in range(1, graph.d + 1))
            for perm in graph.action
        )
        moved[graph] = SchreierGraph(action, sigma(graph.basepoint))
    return PartitionSpec(spec.rank, tuple(coset(moved[m.graph], m.rep) for m in spec.members))


def test_analyze_with_every_basepoint_moved(corpus, random_graph):
    """analyze reads a member's coset, not where its graph numbers the
    basepoint: moving every basepoint to vertex d leaves every verdict,
    identity, clause and residue entry, and every member's index, period,
    q(z) and generating function as they were; only the vertices move.
    Each random graph's walks from vertex 1 and from vertex d differ, so a
    generating function read from the wrong start shows."""
    specs = list(corpus.values())
    for key in [(12, 1, 1), (12, 1, 2)]:
        graph = random_graph(*key)
        assert any(
            series_from_matrix(graph, 1, v, 2 * graph.d)
            != series_from_matrix(graph, graph.d, v, 2 * graph.d)
            for v in range(1, graph.d + 1)
        )
        specs.append(transversal_partition(graph))
    moved_graphs = 0
    for spec in specs:
        moved = moved_basepoints(spec)
        moved_graphs += sum(m.graph.basepoint != 1 for m in moved.members)
        want, got = analyze(spec), analyze(moved)
        assert got.verdict == want.verdict and want.verdict.ok
        assert got._replace(spec=want.spec, members=want.members) == want
        for before, after, member in zip(want.members, got.members, moved.members):
            assert after.vertex == member.vertex
            assert after._replace(vertex=before.vertex) == before
    assert moved_graphs > 0


def test_analyze_on_defective_family(mod2_graph):
    dup = PartitionSpec(2, (subgroup_coset(mod2_graph), subgroup_coset(mod2_graph)))
    report = analyze(dup, series_depth=6)
    assert not report.verdict.ok
    assert not report.all_checks_pass
    # identities still run diagnostically; theorem checks are skipped
    assert report.sum_identity_holds is False
    assert report.theorem1 is None and report.theorem2 is None


def test_identity_failures_agree_between_analyze_and_the_checks():
    """Two families on which the sum identity fails.  The whole of F_2
    twice: its denominator is 1 - 2z itself, so -1/(1-2z) merges into that
    member's numerator group.  A rank-1 family whose coefficient identity
    first fails at depth 5."""
    whole = subgroup_coset(trivial_graph(2))
    cases = [
        (PartitionSpec(2, (whole, whole)), rational([1], [1, -2]), 0),
        (
            z_lift([(3, 0), (3, 1), (6, 2)]),
            rational([0, 0, 0, 0, 0, -1], [1, 0, 0, 0, 0, 0, -1]),  # -z^5/(1-z^6)
            5,
        ),
    ]
    for spec, residual, first_failure in cases:
        assert check_sum_identity(spec) == (False, residual)
        for depth in range(first_failure + 3):
            holds = depth < first_failure
            assert check_coefficient_identity(spec, depth) is holds, (spec, depth)
            report = analyze(spec, series_depth=depth)
            assert report.sum_identity_holds is False
            assert report.sum_residual == residual
            assert report.coefficient_identity_holds is holds


def test_negative_depth_is_rejected():
    spec = generate_partition(2, 1, 1)
    with pytest.raises(ValueError):
        analyze(spec, series_depth=-1)
    with pytest.raises(ValueError):
        check_coefficient_identity(spec, -1)


def test_mixed_rank_members_rejected(mod2_graph):
    with pytest.raises(ValueError):
        PartitionSpec(1, (subgroup_coset(mod2_graph),))
