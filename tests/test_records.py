"""The record types are immutable named tuples.

Each compares and hashes as the tuple of its fields (so the lru_cache keys
of genfunc, char_data and period are those of the field tuple), refuses
assignment, prints as Name(field=value, ...), and runs its checks on
construction.
"""

import pytest

from cosetpart.covering import GAP, PartitionSpec, PartitionVerdict
from cosetpart.partition import AnalysisReport, CyclicRecord, MemberReport, analyze
from cosetpart.poly import IntPolynomial
from cosetpart.ratfunc import RationalFunction, rational
from cosetpart.schreier import Coset, NotTransitive, SchreierGraph, coset, from_permutations
from cosetpart.spectral import SpectralSummary, char_data


def _graph():
    return SchreierGraph(((2, 3, 4, 1), (2, 1, 4, 3)))


def _spec():
    graph = from_permutations(2, [(2, 1), (2, 1)])
    return PartitionSpec(2, (coset(graph, ()), coset(graph, (1,))))


# one factory per record type; each call builds a fresh, equal instance
FACTORIES = {
    SchreierGraph: _graph,
    Coset: lambda: Coset(_graph(), 2, (1,)),
    # char_data is memoised, so copy its summary into a fresh record
    SpectralSummary: lambda: SpectralSummary(*char_data(_graph())),
    RationalFunction: lambda: rational([1, 1], [1, 0, -1, 0]),
    PartitionVerdict: lambda: PartitionVerdict(GAP, witness=(1, 2)),
    PartitionSpec: _spec,
    MemberReport: lambda: analyze(_spec()).members[0],
    AnalysisReport: lambda: analyze(_spec()),
    CyclicRecord: lambda: CyclicRecord(4, 2, 1),
}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    x, y = FACTORIES[cls](), FACTORIES[cls]()
    assert type(x) is cls and x is not y
    fields = _fields(x)
    assert x == y and not x != y
    # named tuples also compare equal to the plain tuple of their fields
    assert x == fields
    if cls is AnalysisReport:
        with pytest.raises(TypeError):  # its theorem and residue fields are dicts
            hash(x)
    else:
        assert hash(x) == hash(y) == hash(fields)
    for field in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, field, None)
    assert _fields(x) == fields
    body = ", ".join(f"{field}={value!r}" for field, value in zip(x._fields, fields))
    assert repr(x) == f"{cls.__name__}({body})"


def test_graph_refuses_new_attributes():
    # the graph keeps a __dict__ for its cached levels and inverse_action,
    # and only those
    graph = _graph()
    with pytest.raises(AttributeError):
        graph.extra = 1
    inverse = graph.inverse_action
    assert inverse == ((4, 1, 2, 3), (2, 1, 4, 3)) and graph.inverse_action is inverse
    levels = graph.levels
    assert levels == (0, 1, 2, 3) and graph.levels is levels
    for name in ("inverse_action", "levels"):
        with pytest.raises(AttributeError):
            setattr(graph, name, ())
        with pytest.raises(AttributeError):
            delattr(graph, name)
    assert graph.levels is levels and graph.inverse_action is inverse
    assert graph == _graph() and hash(graph) == hash(_graph())


def test_defaults_and_keywords():
    assert _graph().basepoint == 1
    assert SchreierGraph(action=((2, 1),), basepoint=2) == (((2, 1),), 2)
    assert PartitionVerdict(GAP) == (GAP, None, None)
    assert not PartitionVerdict(GAP).ok and PartitionVerdict("IsPartition").ok
    report = FACTORIES[AnalysisReport]()
    assert report.oracle is None and report.all_checks_pass


def _mod2():
    return from_permutations(2, [(2, 1), (2, 1)])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SchreierGraph(()), ValueError, "at least one generator"),
        (lambda: SchreierGraph(((),)), ValueError, "at least one vertex"),
        (lambda: SchreierGraph(((2, 2),)), ValueError, "not a permutation"),
        (lambda: SchreierGraph(((2, 1), (1,))), ValueError, "not a permutation"),
        (lambda: SchreierGraph(((1, 2), (2, 1), (1, 2)), 3), ValueError, "basepoint 3"),
        (lambda: SchreierGraph(((2, 1),), 0), ValueError, "basepoint 0"),
        (lambda: SchreierGraph(((2, 1, 3),)), NotTransitive, "only 2 of 3"),
        (lambda: Coset(_mod2(), 3, ()), ValueError, "vertex 3 out of range"),
        (lambda: Coset(_mod2(), 0, ()), ValueError, "vertex 0 out of range"),
        (lambda: Coset(_mod2(), 2, ()), ValueError, "does not resolve"),
        (lambda: PartitionSpec(2, ()), ValueError, "at least one member"),
        (lambda: PartitionSpec(3, (coset(_mod2(), ()),)), ValueError, "rank 2 != 3"),
        (lambda: PartitionSpec(0, (coset(_mod2(), ()),)), ValueError, "rank"),
        (lambda: rational([1], []), ZeroDivisionError, "zero denominator"),
        (lambda: rational([1], [0, 1]), ValueError, "must not vanish at 0"),
        (lambda: rational([1], [2, 1]), ValueError, "cannot normalise"),
    ],
)
def test_record_checks(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_rational_function_normalises():
    # (2 + 2z) / (-2 + 2z^2) = 1 / (z - 1) = -1 / (1 - z)
    f = rational([2, 2], [-2, 0, 2])
    assert f.num == IntPolynomial([-1]) and f.den == IntPolynomial([1, -1])
    assert rational([3, -3], [1, -1]) == (IntPolynomial([3]), IntPolynomial([1]))
    # a common factor with content: (4 + 2z) / (2 + z) = 2
    assert rational([4, 2], [2, 1]) == rational([2], [1])
    zero = rational([0, 0], [5, 7])
    assert zero == (IntPolynomial(), IntPolynomial([1])) and zero.is_zero()
    g = rational([1], [1, -1])
    total = f + g
    assert type(total) is RationalFunction and total.is_zero()
    assert type(-f) is RationalFunction and -f == g
    assert type(g - f) is RationalFunction and g - f == rational([2], [1, -1])
