"""Free-group words: free reduction, text syntax, canonical enumeration.

A word over the free group of rank n is stored as a tuple of nonzero
integers: +i stands for the i-th generator, -i for its inverse.  A
positive word contains generator letters only.  Freely reduced means no
adjacent pair x, -x.

Text syntax (used verbatim in all input files and reports): for rank
up to 26 the lowercase letters a, b, c, ... denote generators 1, 2, 3,
... and the uppercase letters A, B, C, ... their inverses; the empty
string is the identity.  For rank above 26 the numbered form is used
instead: x12 is generator 12 and X12 its inverse.

The canonical enumeration order everywhere is shortlex with letters
ordered by generator index (and, for signed alphabets, each generator
before its inverse).
"""

from __future__ import annotations

import itertools

Word = tuple[int, ...]


class InvalidLetter(ValueError):
    """A letter is outside 1..rank or word text does not parse."""


def check_rank(rank: int) -> None:
    # bool is an int subclass, but true is not a rank
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank!r}")


def reduce_word(letters, rank: int) -> Word:
    """Freely reduce a sequence of signed letters over the given rank.

    The result is equal to the input in the free group and contains no
    adjacent cancelling pair.  Raises InvalidLetter on an index outside
    1..rank.
    """
    check_rank(rank)
    stack: list[int] = []
    for x in letters:
        if not isinstance(x, int) or not 1 <= abs(x) <= rank:
            raise InvalidLetter(f"letter {x!r} not in range 1..{rank} (signed)")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def inverse(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


def concat(u: Word, v: Word) -> Word:
    """Product of two already-reduced words, reduced at the seam."""
    left = list(u)
    i = 0
    while left and i < len(v) and left[-1] == -v[i]:
        left.pop()
        i += 1
    return tuple(left) + tuple(v[i:])


def is_positive(word: Word) -> bool:
    return all(x > 0 for x in word)


def parse_word(text: str, rank: int) -> Word:
    """Parse word text (see module docstring) and freely reduce it."""
    check_rank(rank)
    raw: list[int] = []
    if rank <= 26:
        for pos, ch in enumerate(text):
            if "a" <= ch <= "z":
                idx = ord(ch) - ord("a") + 1
                sign = 1
            elif "A" <= ch <= "Z":
                idx = ord(ch) - ord("A") + 1
                sign = -1
            else:
                raise InvalidLetter(f"bad character {ch!r} at position {pos}")
            if idx > rank:
                raise InvalidLetter(
                    f"letter {ch!r} at position {pos} exceeds rank {rank}"
                )
            raw.append(sign * idx)
    else:
        pos = 0
        while pos < len(text):
            ch = text[pos]
            if ch not in "xX":
                raise InvalidLetter(f"bad character {ch!r} at position {pos}")
            j = pos + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == pos + 1:
                raise InvalidLetter(f"missing generator number at position {pos}")
            idx = int(text[pos + 1 : j])
            if not 1 <= idx <= rank:
                raise InvalidLetter(
                    f"generator number {idx} at position {pos} exceeds rank {rank}"
                )
            raw.append(idx if ch == "x" else -idx)
            pos = j
    return reduce_word(raw, rank)


def format_word(word: Word, rank: int) -> str:
    """Inverse of parse_word; the identity formats as the empty string."""
    check_rank(rank)
    if rank <= 26:
        parts = []
        for x in word:
            base = ord("a") if x > 0 else ord("A")
            parts.append(chr(base + abs(x) - 1))
        return "".join(parts)
    return "".join(("x" if x > 0 else "X") + str(abs(x)) for x in word)


def enumerate_positive(rank: int, length: int) -> list[Word]:
    """All n^k positive words of the exact length, in shortlex order."""
    check_rank(rank)
    if length < 0:
        raise ValueError("length must be >= 0")
    return list(itertools.product(range(1, rank + 1), repeat=length))


def enumerate_reduced(rank: int, max_len: int) -> list[Word]:
    """All freely reduced words of length <= max_len, in shortlex order.

    The signed alphabet is ordered 1, -1, 2, -2, ...; the count is
    1 + sum_{k=1..L} 2n(2n-1)^(k-1).
    """
    check_rank(rank)
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    words: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            last = w[-1] if w else 0
            for x in letters:
                if x != -last:
                    nxt.append(w + (x,))
        words.extend(nxt)
        frontier = nxt
    return words
