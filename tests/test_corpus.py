"""The generated corpus is part of the test surface: pin it byte for byte,
and check the meet that refines its members."""

import hashlib
import json

import pytest
from conftest import CORPUS_KEYS, bfs_relabelled

from cosetpart import corpus
from cosetpart.corpus import _kernel_graph, _meet, generate_partition
from cosetpart.formats import partition_spec_to_json
from cosetpart.schreier import from_permutations, trivial_graph


def test_corpus_is_byte_identical():
    text = json.dumps([partition_spec_to_json(generate_partition(*k)) for k in CORPUS_KEYS])
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "311affb5da274d86f8c4567290169c903a6a95f680f840ea4c8bd351b5e13385"
    )


def test_each_nontrivial_kernel_is_met_once(monkeypatch):
    # the accepted meet is split as built, not built a second time
    counts = {"kernels": 0, "meets": 0}

    def counted_kernel(rank, images):
        graph = _kernel_graph(rank, images)
        counts["kernels"] += graph.d > 1
        return graph

    def counted_meet(g1, g2):
        counts["meets"] += 1
        return _meet(g1, g2)

    monkeypatch.setattr(corpus, "_kernel_graph", counted_kernel)
    monkeypatch.setattr(corpus, "_meet", counted_meet)
    for key in CORPUS_KEYS:
        generate_partition(*key)
    assert counts["meets"] == counts["kernels"] > 0


def test_meet_with_itself_or_the_whole_group_relabels(graph_family):
    # a basepoint other than 1 and a numbering that is not BFS order
    off = from_permutations(2, [(1, 3, 2), (3, 2, 1)], basepoint=2)
    c3 = _kernel_graph(3, ((1, 2, 0), (0, 1, 2), (2, 0, 1)))
    for g in [*graph_family.values(), off, c3]:
        assert _meet(g, g) == bfs_relabelled(g)
        assert _meet(trivial_graph(g.rank), g) == bfs_relabelled(g)
        assert _meet(g, trivial_graph(g.rank)) == bfs_relabelled(g)


def test_meet_rank_mismatch(fig1_graph):
    with pytest.raises(ValueError):
        _meet(fig1_graph, trivial_graph(3))
