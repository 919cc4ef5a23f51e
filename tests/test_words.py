import itertools
import random

import pytest

from cosetpart.oracle import enumerate_reduced
from cosetpart.words import (
    InvalidLetter,
    concat,
    format_word,
    inverse,
    parse_word,
    reduce_word,
)


def test_reduce_cancellation():
    assert reduce_word([1, -1], 2) == ()
    assert reduce_word([1, -2, 2, 1], 2) == (1, 1)
    assert reduce_word([1, 2, -1], 2) == (1, 2, -1)


def test_reduce_nested_cancellation():
    # abB A collapses inward
    assert reduce_word([1, 2, -2, -1], 2) == ()
    assert reduce_word([1, 2, -2, -1, 3], 3) == (3,)


def test_reduce_rejects_out_of_range():
    with pytest.raises(InvalidLetter):
        reduce_word([3], 2)
    with pytest.raises(InvalidLetter):
        reduce_word([0], 2)
    with pytest.raises(InvalidLetter):
        reduce_word([-4], 3)


def test_rank_must_be_a_positive_int():
    for rank in (0, -1, True, 2.0, "2"):
        with pytest.raises(ValueError):
            reduce_word([], rank)


def _raw_words(rank, max_len):
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    for k in range(max_len + 1):
        yield from itertools.product(letters, repeat=k)


def test_reduce_idempotent_exhaustive_small():
    for rank in (1, 2):
        for raw in _raw_words(rank, 6):
            once = reduce_word(raw, rank)
            assert reduce_word(once, rank) == once


def test_reduce_idempotent_rank3_sampled():
    rng = random.Random(20240)
    letters = [s * i for i in range(1, 4) for s in (1, -1)]
    for _ in range(20000):
        raw = [rng.choice(letters) for _ in range(rng.randint(0, 8))]
        once = reduce_word(raw, 3)
        assert reduce_word(once, 3) == once
        assert not any(a == -b for a, b in zip(once, once[1:]))


def test_word_times_inverse_is_identity():
    for rank in (1, 2, 3):
        limit = 6 if rank <= 2 else 4
        for raw in _raw_words(rank, limit):
            w = reduce_word(raw, rank)
            assert concat(w, inverse(w)) == ()
            assert concat(inverse(w), w) == ()


def test_parse_format_letter_form():
    assert parse_word("", 2) == ()
    assert parse_word("abA", 2) == (1, 2, -1)
    assert parse_word("aB", 2) == (1, -2)
    assert format_word((1, -2), 2) == "aB"
    assert format_word((), 2) == ""
    # parsing reduces
    assert parse_word("aA", 2) == ()


def test_parse_rejects_bad_text():
    with pytest.raises(InvalidLetter):
        parse_word("aZ9", 2)
    with pytest.raises(InvalidLetter):
        parse_word("c", 2)
    with pytest.raises(InvalidLetter):
        parse_word("a b", 2)


def test_numbered_form_above_rank_26():
    assert parse_word("x27X1", 27) == (27, -1)
    assert format_word((27, -1), 27) == "x27X1"
    with pytest.raises(InvalidLetter):
        parse_word("x28", 27)
    with pytest.raises(InvalidLetter):
        parse_word("ab", 27)


def test_roundtrip_parse_format():
    for rank in (1, 2, 3):
        for w in enumerate_reduced(rank, 4):
            assert parse_word(format_word(w, rank), rank) == w
