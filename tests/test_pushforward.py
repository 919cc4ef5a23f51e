"""The pushforward certificate that decides analyze's residue entries: the
member records (d_i, h_i, l_i) of a coset partition cover Z exactly with
weights h_i/d_i, and that cover holds iff sum 1/d_i = 1 and every residue
sum vanishes."""

import json
import math
import random
from fractions import Fraction

from cosetpart import formats, partition
from cosetpart.corpus import generate_partition
from cosetpart.zcovering import generate_z_covering
from cosetpart.partition import (
    CyclicRecord,
    _pushforward_holds,
    _residue_sum,
    analyze,
    verify_partition,
)

GRID = [(rank, depth, seed) for rank in (1, 2, 3) for depth in range(5) for seed in range(1, 5)]


def records_of(members):
    return partition._cyclic_records(members)


def cover_by_fourier(records, n=2) -> bool:
    """sum 1/d_i = 1 and the residue sum vanishes at every h > 1 dividing
    M = lcm(h_i) (at m = 1; the other m are its Galois conjugates)."""
    if sum(Fraction(1, r.index) for r in records) != 1:
        return False
    big_m = math.lcm(*(r.period for r in records))
    return all(
        _residue_sum(records, n, h, 1).is_zero() for h in range(2, big_m + 1) if big_m % h == 0
    )


def test_certificate_holds_and_every_reported_sum_is_zero_on_the_grid():
    checked = 0
    for key in GRID:
        spec = generate_partition(*key)
        assert verify_partition(spec).ok, key
        records = records_of(spec.members)
        assert _pushforward_holds(records) is True, key
        for entry in analyze(spec).residue_sums:
            value = _residue_sum(records, spec.rank, entry["period"], entry["m"])
            assert value.is_zero(), (key, entry["period"], entry["m"])
            # the certificate's zero serializes as the evaluated zero does
            assert formats.cyclo_to_json(entry["value"]) == formats.cyclo_to_json(value)
            checked += 1
    assert checked == 177


def test_mutant_records_fail_the_certificate(mutants):
    failed = 0
    for key in GRID:
        for members in mutants(generate_partition(*key).members):
            assert _pushforward_holds(records_of(members)) is False, key
            failed += 1
    assert failed > 300


def test_certificate_is_the_density_and_the_residue_sums():
    # Fourier inversion, both ways: on the grid's records, and on the same
    # records with one class shifted or one index doubled
    rng = random.Random(7)
    verdicts = {True: 0, False: 0}
    for key in GRID:
        records = records_of(generate_partition(*key).members)
        variants = [records]
        for _ in range(3):
            i = rng.randrange(len(records))
            r = records[i]
            shifted = CyclicRecord(r.index, r.period, (r.cyclic_class + 1) % r.period)
            doubled = CyclicRecord(2 * r.index, r.period, r.cyclic_class)
            variants += [records[:i] + [shifted] + records[i + 1 :]]
            variants += [records[:i] + [doubled] + records[i + 1 :]]
        for variant in variants:
            holds = _pushforward_holds(variant)
            assert holds == cover_by_fourier(variant), (key, variant)
            verdicts[holds] += 1
    assert verdicts[True] > len(GRID) and verdicts[False] > len(GRID)


def test_reports_off_the_certificate_are_json_identical(corpus, monkeypatch):
    # over budget, analyze evaluates every residue sum in Q(zeta_h)
    expected = {
        key: json.dumps(formats.analysis_report_to_json(analyze(spec)))
        for key, spec in corpus.items()
    }
    evaluated = []

    def counted(*args):
        evaluated.append(args[2:])
        return _residue_sum(*args)

    # a check of any cost costs more than the sums
    monkeypatch.setattr(partition, "PUSHFORWARD_BUDGET", 0)
    monkeypatch.setattr(partition, "CONJUGATE_TESTS_PER_STEP", 10**18)
    monkeypatch.setattr(partition, "_residue_sum", counted)
    for key, spec in corpus.items():
        assert _pushforward_holds(records_of(spec.members)) is None, key
        report = json.dumps(formats.analysis_report_to_json(analyze(spec)))
        assert report == expected[key], key
    # rank 1 keeps the verdict's certificate; the six periodic rank >= 2
    # specs of the corpus evaluated their sums, at m = 1 once per period
    assert sorted(evaluated) == [(2, 1)] * 4 + [(5, 1)] * 2


def lifted_records(classes):
    """The records of a covering system of Z lifted to rank >= 2 through the
    exponent sum (every letter steps each d-cycle by one): index = period =
    modulus d, cyclic class r."""
    return [CyclicRecord(d, d, r % d) for d, r in classes]


def conjugate_tests(records):
    """sum_h phi(h)^2 over the periods h > 1, as analyze passes it."""
    poles = {r.period for r in records if r.period > 1}
    return sum(sum(math.gcd(m, h) == 1 for m in range(1, h)) ** 2 for h in poles)


def test_certificate_runs_where_it_is_the_cheaper_route():
    # coprime periods: M is their product and the sums are cheap.  Split Z
    # by 2, the halves by 3 and 5, four of those classes by 7, 13, 11, 17.
    classes = [(6, 4), (10, 5), (10, 7), (10, 9)]
    for p, (d, r) in zip((7, 13, 11, 17), [(6, 0), (6, 2), (10, 1), (10, 3)]):
        classes += [(d * p, r + d * t) for t in range(p)]
    records = lifted_records(classes)
    assert sum(Fraction(1, r.index) for r in records) == 1
    assert math.lcm(*(r.period for r in records)) == 510510
    assert _pushforward_holds(records, conjugate_tests(records)) is None
    # the same cover, where the sums would cost more
    assert _pushforward_holds(records, 10**8) is True
    # periods dividing one another: M = 345 600 is a period, the sums dear
    records = lifted_records(generate_z_covering(24, 4))
    assert math.lcm(*(r.period for r in records)) == 345600
    assert _pushforward_holds(records, conjugate_tests(records)) is True
