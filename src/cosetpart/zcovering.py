"""Covering systems of Z: the gap search and the generator.

covering._z_verdict decides whether classes {d_i Z + r_i} partition Z;
_first_gap finds the least uncovered integer when that certificate
fails, and generate_z_covering builds systems by iterated refinement.
Verifying a partition or a covering system never loads this module:
covering imports it only where a defect is handled.
"""

from __future__ import annotations

import math
import random

from .covering import normalize_z_classes


def _first_gap(classes, bound: int) -> int | None:
    """The least x in [0, bound) in none of the classes, or None.

    Depth-first over progressions a + mZ (0 <= a < m, so a is the least
    element >= 0), from Z itself: a progression that no class meets is a
    gap from a on; one that a class contains is covered; otherwise it
    splits into q progressions mod m q, q = d / gcd(d, m) for the meeting
    class that needs the fewest, in increasing a.  Every split puts one
    more class's modulus into m, so m divides L = lcm(d_i), the leaves are
    disjoint residues mod L, and a branch whose a is not below the best
    gap so far is pruned.
    """
    best = bound
    stack = [(iter((0,)), 1)]  # per depth: the next progressions' a, and m
    while stack:
        starts, m = stack[-1]
        a = next(starts, bound)
        if a >= best:
            # the remaining siblings start later still
            stack.pop()
            continue
        meeting = [d for d, r in classes if (a - r) % math.gcd(d, m) == 0]
        if not meeting:
            best = a
            stack.pop()
        elif all(m % d for d in meeting):
            q = min(d // math.gcd(d, m) for d in meeting)
            stack.append((iter(range(a, a + m * q, m)), m * q))
    return best if best < bound else None


def generate_z_covering(depth: int, seed: int) -> tuple[tuple[int, int], ...]:
    """A covering system of Z by iterated refinement: replace a class
    (d, r) by the m classes (m*d, r + d*t).  Deterministic in the seed."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    rng = random.Random(seed)
    classes: list[tuple[int, int]] = [(1, 0)]
    for _ in range(depth):
        idx = rng.randrange(len(classes))
        d, r = classes[idx]
        mult = rng.choice([2, 3, 4, 5, 6])
        classes[idx : idx + 1] = [(mult * d, r + d * t) for t in range(mult)]
    return normalize_z_classes(classes)
