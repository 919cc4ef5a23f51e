"""The pushforward certificate that decides analyze's residue entries: the
member records (d_i, h_i, l_i) of a coset partition cover Z exactly with
weights h_i/d_i, and that cover holds iff sum 1/d_i = 1 and every residue
sum vanishes.  In rank 1 it is the covering verdict, and in rank >= 2 its
steps are bounded by the product orbit verify_partition walks."""

import json
import math
import random
from fractions import Fraction

from test_verify_reference import orbit_size, z_families, z_lift_to_f2

from cosetpart import formats, partition
from cosetpart.corpus import generate_partition
from cosetpart.cyclo import CycloNumber, cyclotomic
from cosetpart.partition import (
    CyclicRecord,
    CycloZero,
    _pushforward_holds,
    _residue_sum,
    analyze,
    verify_partition,
    z_verify,
)
from cosetpart.zcovering import generate_z_covering

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


def test_certified_entries_are_cyclo_zeros(corpus):
    # the certificate's zero is a record, not a field element: it
    # serializes as the zero CycloNumber of its order, equals neither that
    # nor 0, and is false
    checked = 0
    for key, spec in corpus.items():
        for entry in analyze(spec).residue_sums:
            value = entry["value"]
            assert type(value) is CycloZero, key
            zero = CycloNumber(value.h, [0] * cyclotomic(value.h).degree)
            assert formats.cyclo_to_json(value) == formats.cyclo_to_json(zero)
            assert value != zero and zero != value and value != 0
            assert not value and value.is_zero() and entry["is_zero"]
            checked += 1
    assert checked == 62


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
    # on a failed cover, analyze evaluates every residue sum in Q(zeta_h)
    expected = {
        key: json.dumps(formats.analysis_report_to_json(analyze(spec)))
        for key, spec in corpus.items()
    }
    evaluated = []

    def counted(*args):
        evaluated.append(args[2:])
        return _residue_sum(*args)

    monkeypatch.setattr(partition, "_pushforward_holds", lambda records: False)
    monkeypatch.setattr(partition, "_residue_sum", counted)
    for key, spec in corpus.items():
        report = json.dumps(formats.analysis_report_to_json(analyze(spec)))
        assert report == expected[key], key
    # cyclic families (rank 1 here) keep the verdict's certificate; the six
    # periodic rank >= 2 specs of the corpus evaluated their sums, at m = 1
    # once per period
    assert sorted(evaluated) == [(2, 1)] * 4 + [(5, 1)] * 2


def lifted_records(classes):
    """The records of a covering system of Z lifted to rank >= 2 through the
    exponent sum (every letter steps each d-cycle by one): index = period =
    modulus d, cyclic class r."""
    return [CyclicRecord(d, d, r % d) for d, r in classes]


def test_rank1_certificate_is_the_covering_verdict(mutants):
    # analyze takes the verdict of a cyclic family (every period equal to
    # its index, as in rank 1) as the certificate: with every weight
    # h_i/d_i = 1 the cover is the covering system itself
    verdicts = {True: 0, False: 0}
    for classes in z_families(mutants):
        holds = _pushforward_holds(lifted_records(classes))
        assert holds == z_verify(classes).ok, classes
        verdicts[holds] += 1
    assert verdicts[True] > 10 and verdicts[False] > 100


def assert_check_within_the_orbit(spec) -> None:
    # the bound in _pushforward_holds: the orbit has at least M points and
    # at least d_g M/h_g for every graph g, so the check's M + sum M/h_i
    # steps are at most (1 + #distinct graphs) times the orbit
    records = records_of(spec.members)
    big_m = math.lcm(*(r.period for r in records))
    steps = big_m + sum(big_m // r.period for r in records)
    orbit = orbit_size(spec)
    graphs = {m.graph: r for m, r in zip(spec.members, records)}
    assert orbit >= big_m
    assert all(orbit >= r.index * big_m // r.period for r in graphs.values())
    assert steps <= (1 + len(graphs)) * orbit, (steps, len(graphs), orbit)
    assert _pushforward_holds(records) is True


def test_check_is_bounded_by_the_orbit_walk():
    grid = [(rank, depth, seed) for rank in (2, 3) for depth in range(9) for seed in range(1, 13)]
    for key in grid:
        spec = generate_partition(*key)
        assert verify_partition(spec).ok, key
        assert_check_within_the_orbit(spec)
    # rank-2 lifts of coverings of Z: coprime periods, whose product M is
    # (split Z by 2, the odd class by 3, and its classes 1, 3, 5 mod 6 by
    # 5, 7 and 13), and periods dividing one another
    coprime = [(2, 0)]
    for p, r in zip((5, 7, 13), (1, 3, 5)):
        coprime += [(6 * p, r + 6 * t) for t in range(p)]
    assert math.lcm(*(d for d, _ in coprime)) == 2730
    for classes in (coprime, generate_z_covering(12, 1)):
        spec = z_lift_to_f2(classes)
        assert verify_partition(spec).ok
        assert_check_within_the_orbit(spec)
