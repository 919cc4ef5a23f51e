"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here is exact (structural equality of normal forms, integer
arithmetic, cyclotomic zero tests); the only tolerances are the stated
runtime budgets.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

from cosetpart.corpus import generate_partition
from cosetpart.covering import (
    GAP,
    IS_PARTITION,
    OVERLAP,
    PartitionSpec,
    davenport_rado_check,
    z_verify,
)
from cosetpart.folding import fold
from cosetpart.oracle import (
    count_by_enumeration,
    divides,
    period_by_cycles,
    pole_order,
    residue_at,
    series_from_matrix,
)
from cosetpart.partition import (
    check_coefficient_identity,
    check_sum_identity,
    member_periods,
    theorem1_check,
    theorem2_check,
    verify_partition,
    z_lift,
)
from cosetpart.poly import IntPolynomial
from cosetpart.ratfunc import genfunc, rational
from cosetpart.schreier import (
    coset,
    from_permutations,
    membership,
    subgroup_coset,
)
from cosetpart.spectral import char_data, period, transition_matrix
from cosetpart.words import parse_word
from cosetpart.zcovering import generate_z_covering


def _passed(n, label, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {n} ({label}): PASS{timing}")


def _fresh_corpus():
    return {
        (rank, depth, seed): generate_partition(rank, depth, seed)
        for rank in (1, 2, 3)
        for depth in (0, 1, 2, 3)
        for seed in (1, 2)
    }


def _corpus_graphs(corpus):
    graphs = {}
    for spec in corpus.values():
        for member in spec.members:
            graphs.setdefault(member.graph, member.graph)
    return list(graphs)


def test_criterion_1_golden_example():
    start = time.perf_counter()
    gens = [parse_word(w, 2) for w in ["aaaa", "bbbb", "aB", "aaBB", "aaaBBB"]]
    graph = fold(2, gens)
    assert graph.d == 4
    assert transition_matrix(graph) == (
        (0, 2, 0, 0),
        (0, 0, 2, 0),
        (0, 0, 0, 2),
        (2, 0, 0, 0),
    )
    assert period(graph) == 4
    assert genfunc(graph, 1) == rational([1], [1, 0, 0, 0, -16])
    assert genfunc(graph, 2) == rational([0, 2], [1, 0, 0, 0, -16])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, "golden index-4 fixture", elapsed)


def test_criterion_2_sum_and_coefficient_identities():
    genfunc.cache_clear()
    char_data.cache_clear()
    start = time.perf_counter()
    corpus = _fresh_corpus()
    assert len(corpus) >= 20
    for key, spec in corpus.items():
        ok, residual = check_sum_identity(spec)
        assert ok and residual.is_zero(), key
        assert check_coefficient_identity(spec, 20), key
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(2, f"sum identity on {len(corpus)} corpus partitions", elapsed)


def test_criterion_3_theorem1_properties():
    corpus = _fresh_corpus()
    checked = 0
    for key, spec in corpus.items():
        findings = theorem1_check(spec)
        if max(findings["periods"]) > 1:
            checked += 1
            assert findings["clause_i"]["status"] == "pass", key
        assert findings["clause_ii"]["status"] in ("pass", "vacuous"), key
        assert findings["clause_iii"]["status"] in ("pass", "vacuous"), key
        assert findings["all_pass"], key
    assert checked > 0
    _passed(3, f"theorem-1 period repetition on {checked} periodic partitions")


def test_criterion_4_residue_sums_vanish():
    corpus = _fresh_corpus()
    checked = 0
    for key, spec in corpus.items():
        n = spec.rank
        for h in sorted({p for p in member_periods(spec) if p > 1}):
            for m in range(1, h):
                if math.gcd(m, h) != 1:
                    continue
                total = None
                for member in spec.members:
                    f = genfunc(member.graph, member.vertex)
                    if pole_order(f, h, m, n) >= 1:
                        value = residue_at(f, h, m, n)
                        total = value if total is None else total + value
                assert total is not None and total.is_zero(), (key, h, m)
                checked += 1
    assert checked > 0
    _passed(4, f"residue sums vanish exactly at {checked} scaled roots")


def test_criterion_5_davenport_rado_recovery():
    systems = [((2, 0), (4, 1), (4, 3))]
    systems += [generate_z_covering(3, seed) for seed in range(1, 11)]
    assert len(systems) >= 11
    for classes in systems:
        assert z_verify(classes).status == IS_PARTITION
        findings = davenport_rado_check(classes)
        assert findings["largest_repeats"], classes
        assert all(entry["ok"] for entry in findings["divisibility"]), classes
        # agreement with the lifted rank-1 general machinery
        lifted = z_lift(classes)
        assert verify_partition(lifted).status == IS_PARTITION
        assert member_periods(lifted) == [d for d, _ in classes]
        assert theorem1_check(lifted)["all_pass"]
        t2 = theorem2_check(lifted)
        assert t2["clause_i"]["status"] == "pass"
    _passed(5, f"Davenport-Rado on {len(systems)} covering systems")


def test_criterion_6_oracle_equivalence():
    corpus = _fresh_corpus()
    graphs = _corpus_graphs(corpus)
    counted = 0
    for graph in graphs:
        if graph.d > 16:
            continue
        counted += 1
        counts = count_by_enumeration(subgroup_coset(graph), 10)
        assert counts == genfunc(graph, 1).series(10)
        assert counts == series_from_matrix(graph, 1, 1, 10)
    cycles = 0
    for graph in graphs:
        if graph.d <= 8:
            cycles += 1
            assert period_by_cycles(graph) == period(graph)
    assert counted > 0 and cycles > 0
    _passed(
        6, f"oracle equivalence on {counted} subgroups, {cycles} cycle gcds"
    )


def test_criterion_7_spectral_divisibility():
    corpus = _fresh_corpus()
    graphs = _corpus_graphs(corpus)
    for graph in graphs:
        n = graph.rank
        summary = char_data(graph)
        q, h = summary.reciprocal_charpoly, summary.period
        assert divides(IntPolynomial([1, -n]), q)
        assert divides(IntPolynomial([1] + [0] * (h - 1) + [-(n**h)]), q)
    _passed(7, f"exact divisibility of det(I-zA) on {len(graphs)} subgroups")


def test_criterion_8_defect_detection():
    mod2 = from_permutations(2, [(2, 1), (2, 1)])
    mod4 = from_permutations(2, [(2, 3, 4, 1), (2, 3, 4, 1)])
    fig1_cosets = [coset(mod4, (1,) * r) for r in range(4)]

    cases = [
        # (spec, expected status, expected witness)
        (PartitionSpec(2, (subgroup_coset(mod2), subgroup_coset(mod2))), OVERLAP, ()),
        (PartitionSpec(2, (subgroup_coset(mod2),)), GAP, (1,)),
        (
            PartitionSpec(
                2,
                (
                    subgroup_coset(from_permutations(2, [(1,), (1,)])),
                    subgroup_coset(mod2),
                ),
            ),
            OVERLAP,
            (),
        ),
        (
            PartitionSpec(
                2, (subgroup_coset(mod2), coset(mod2, (1,)), coset(mod2, (1,)))
            ),
            OVERLAP,
            (1,),
        ),
        (PartitionSpec(2, tuple(fig1_cosets[:3])), GAP, (1, 1, 1)),
        (PartitionSpec(2, tuple(fig1_cosets) + (fig1_cosets[0],)), OVERLAP, ()),
        (z_lift([(2, 0), (4, 1)]), GAP, (1, 1, 1)),
        (
            PartitionSpec(
                2, (subgroup_coset(mod2), coset(mod4, (1,)), coset(mod4, (1, 1)))
            ),
            OVERLAP,
            (1, 1),
        ),
        (z_lift([(3, 0), (3, 1), (3, 2), (3, 0)]), OVERLAP, ()),
        (
            PartitionSpec(
                2, (coset(mod2, (1,)), subgroup_coset(mod4), coset(mod4, (1,)))
            ),
            OVERLAP,
            (1,),
        ),
    ]
    assert len(cases) == 10
    for idx, (spec, status, witness) in enumerate(cases, start=1):
        verdict = verify_partition(spec)
        assert verdict.status == status, idx
        assert verdict.witness == witness, idx
        hits = [m for m in spec.members if membership(m, verdict.witness)]
        if status == GAP:
            assert not hits, idx
        else:
            i, j = verdict.overlap_indices
            assert membership(spec.members[i - 1], verdict.witness), idx
            assert membership(spec.members[j - 1], verdict.witness), idx
            assert len(hits) >= 2, idx
    _passed(8, "defect detection on the 10-case adversarial suite")
