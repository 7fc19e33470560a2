"""Shared fixtures: the standard instances, the golden labelling of the
7x5 frame, and test-local oracles kept independent of the library's own
code paths."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from polytoric.grid import RectDiffConfig

# The standard instances: (a, b, a', b').
SMALL = ((1, 1), (4, 4), (2, 2), (3, 3))
MEDIUM_A = ((1, 1), (5, 4), (2, 2), (4, 3))
MEDIUM_B = ((1, 1), (5, 5), (2, 2), (4, 4))
FRAME_7X5 = ((1, 1), (7, 5), (2, 2), (5, 4))
THICK_FRAME = ((1, 1), (6, 6), (3, 3), (4, 4))  # slow: about 3 s
FRAME_8X5 = ((1, 1), (8, 5), (2, 2), (6, 4))
THIN_6X6 = ((1, 1), (6, 6), (2, 2), (5, 5))


def sweep_configs(side: int = 4):
    """Every configuration with a = (0,0) and b <= (side, side): 16 in
    all for side 4, 100 for side 5."""
    for b in itertools.product(range(3, side + 1), repeat=2):
        for hx in itertools.combinations(range(1, b[0]), 2):
            for hy in itertools.combinations(range(1, b[1]), 2):
                yield ((0, 0), b, (hx[0], hy[0]), (hx[1], hy[1]))


def cfg_of(coords) -> RectDiffConfig:
    return RectDiffConfig.of(*coords)


# Reference labelling of the 7x5 frame instance, keyed by (x, y).  The
# two cells in CORRECTED_CELLS carry obvious transcription slips in the
# source table (their s-index disagrees with the row); they hold the
# corrected values here and are excluded from verbatim matching.
GOLDEN_LABELS = {
    (1, 5): 2, (2, 5): 2, (3, 5): 7, (4, 5): 6, (5, 5): 1, (6, 5): 1, (7, 5): 1,
    (1, 4): 2, (2, 4): 2, (3, 4): 7, (4, 4): 6, (5, 4): 1, (6, 4): 1, (7, 4): 1,
    (1, 3): 8, (2, 3): 8, (5, 3): 5, (6, 3): 5, (7, 3): 5,
    (1, 2): 1, (2, 2): 1, (3, 2): 3, (4, 2): 4, (5, 2): 2, (6, 2): 2, (7, 2): 2,
    (1, 1): 1, (2, 1): 1, (3, 1): 3, (4, 1): 4, (5, 1): 2, (6, 1): 2, (7, 1): 2,
}
CORRECTED_CELLS = {(6, 2), (6, 1)}


def fraction_rank(entries) -> int:
    """Independent oracle: matrix rank by Gaussian elimination over the
    rationals (the library's kernel uses integer column elimination)."""
    rows = [[Fraction(e) for e in row] for row in entries]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def inner_minor_count_oracle(coords) -> int:
    """Independent oracle for the number of inner minors: count proper
    intervals of the outer box whose cell region misses the hole's cell
    region, by the closed-form rectangle-overlap test."""
    (ax, ay), (bx, by), (aix, aiy), (bix, biy) = coords
    count = 0
    for c1 in range(ax, bx + 1):
        for d1 in range(c1 + 1, bx + 1):
            for c2 in range(ay, by + 1):
                for d2 in range(c2 + 1, by + 1):
                    x_overlap = c1 <= bix - 1 and d1 - 1 >= aix
                    y_overlap = c2 <= biy - 1 and d2 - 1 >= aiy
                    if not (x_overlap and y_overlap):
                        count += 1
    return count


@pytest.fixture(scope="session")
def small_cfg():
    return cfg_of(SMALL)


@pytest.fixture(scope="session")
def frame_cfg():
    return cfg_of(FRAME_7X5)
