import copy
import json
import pickle
import random

import pytest
from conftest import (
    FRAME_7X5,
    MEDIUM_A,
    MEDIUM_B,
    SMALL,
    cfg_of,
    inner_minor_count_oracle,
    sweep_configs,
)
from helpers import is_inner_interval, is_polyomino, is_proper
from hypothesis import given, settings
from hypothesis import strategies as st

from polytoric.binom import Binomial, Monomial, Variable, vertex_var
from polytoric.errors import ConfigInvalid, DegenerateInterval, EmptyCollection
from polytoric.grid import (
    GridInterval,
    GridPoint,
    Polyomino,
    RectDiffConfig,
    build_rect_diff,
    enumerate_inner_minors,
    inner_intervals,
)

ALL_INSTANCES = (SMALL, MEDIUM_A, MEDIUM_B, FRAME_7X5)


points = st.builds(GridPoint, st.integers(0, 20), st.integers(0, 20))


@given(ps=st.lists(points, min_size=1, max_size=12))
def test_point_is_a_value_type(ps):
    """A point is the pair (x, y): it hashes and sorts as that pair, in
    the order of its vertex variables, prints and encodes as the pair,
    refuses negative coordinates and assignment, holds no per-instance
    dict, and survives pickle and deepcopy."""
    assert [hash(p) for p in ps] == [hash((p.x, p.y)) for p in ps]
    assert sorted(ps) == sorted(ps, key=lambda p: (p.x, p.y))
    assert sorted(map(vertex_var, ps)) == [vertex_var(p) for p in sorted(ps)]
    for restored in (pickle.loads(pickle.dumps(ps)), copy.deepcopy(ps)):
        assert restored == ps and all(type(p) is GridPoint for p in restored)
    p = ps[0]
    assert str(p) == f"({p.x}, {p.y})" and json.dumps(p) == f"[{p.x}, {p.y}]"
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        p.x = 1
    with pytest.raises(AttributeError):
        p.weight = 1
    with pytest.raises(ValueError, match="non-negative"):
        GridPoint(-1, p.y)
    with pytest.raises(ValueError, match="non-negative"):
        GridPoint(p.x, -1)
    assert p != Variable("x", p.x, p.y)
    assert GridPoint(1, 3) < GridPoint(2, 0) and not GridPoint(1, 3).lt(GridPoint(2, 0))


intervals = st.builds(
    lambda lo, dx, dy: GridInterval(lo, lo.shifted(dx, dy)),
    points, st.integers(0, 5), st.integers(0, 5),
)


@given(ivs=st.lists(intervals, min_size=1, max_size=12))
def test_interval_is_a_value_type(ivs):
    """An interval is the pair (lo, hi): it hashes and compares as that
    pair, sorts in the order of ``inner_intervals``, holds no
    per-instance dict, refuses assignment and corners out of order, and
    survives pickle and deepcopy."""
    assert [hash(iv) for iv in ivs] == [hash((iv.lo, iv.hi)) for iv in ivs]
    assert ivs == [(iv.lo, iv.hi) for iv in ivs]
    assert sorted(ivs) == sorted(ivs, key=lambda iv: (iv.lo.x, iv.lo.y, iv.hi.x, iv.hi.y))
    for restored in (pickle.loads(pickle.dumps(ivs)), copy.deepcopy(ivs)):
        assert restored == ivs
        assert all(type(iv) is GridInterval and type(iv.lo) is GridPoint for iv in restored)
    iv = ivs[0]
    assert not hasattr(iv, "__dict__")
    with pytest.raises(AttributeError):
        iv.lo = iv.hi
    with pytest.raises(AttributeError):
        iv.weight = 1
    with pytest.raises(DegenerateInterval, match="out of order"):
        GridInterval(iv.hi.shifted(1, 0), iv.lo)


def test_point_partial_order():
    p, q = GridPoint(1, 3), GridPoint(2, 3)
    assert p.leq(q) and not p.lt(q)
    assert not q.leq(p)
    assert GridPoint(1, 1).lt(GridPoint(2, 2))
    # incomparable pair
    assert not GridPoint(1, 3).leq(GridPoint(2, 2))
    assert not GridPoint(2, 2).leq(GridPoint(1, 3))


def test_interval_validation_and_corners():
    iv = GridInterval(GridPoint(1, 1), GridPoint(3, 2))
    assert is_proper(iv)
    assert iv.anti_diagonal() == (GridPoint(1, 2), GridPoint(3, 1))
    assert not is_proper(GridInterval(GridPoint(1, 1), GridPoint(1, 4)))
    with pytest.raises(DegenerateInterval):
        GridInterval(GridPoint(2, 2), GridPoint(1, 3))


def test_interval_texts_are_pinned():
    iv = GridInterval(GridPoint(1, 1), GridPoint(2, 2))
    assert str(iv) == "[(1,1),(2,2)]"
    assert repr(iv) == "GridInterval(lo=(1, 1), hi=(2, 2))"
    with pytest.raises(DegenerateInterval) as exc:
        GridInterval(GridPoint(2, 2), GridPoint(1, 3))
    assert str(exc.value) == "interval corners out of order: [(2,2),(1,3)]"


def test_cell_vertices():
    assert Polyomino.of([GridPoint(1, 1)]).vertex_set() == {
        GridPoint(1, 1), GridPoint(2, 1), GridPoint(1, 2), GridPoint(2, 2)
    }


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        RectDiffConfig.of((1, 1), (3, 3), (1, 2), (2, 3))  # a'.x == a.x
    with pytest.raises(ConfigInvalid):
        RectDiffConfig.of((1, 1), (4, 4), (2, 2), (2, 3))  # b'.x == a'.x
    # The outer box is at most 16 cells wide and tall, wherever it sits.
    for b in ((17, 3), (3, 17)):
        with pytest.raises(ConfigInvalid, match="more than 16 on a side"):
            RectDiffConfig.of((0, 0), b, (1, 1), (2, 2))
    RectDiffConfig.of((0, 0), (16, 16), (1, 1), (2, 2))
    RectDiffConfig.of((4, 4), (20, 20), (5, 5), (6, 6))
    cfg = cfg_of(SMALL)
    assert cfg.hole().cells().__next__() == GridPoint(2, 2)


def test_build_rect_diff_cell_counts():
    assert len(build_rect_diff(cfg_of(FRAME_7X5)).cells) == 18  # 24 - 6
    assert len(build_rect_diff(cfg_of(SMALL)).cells) == 8       # 9 - 1
    hole_cells = set(cfg_of(SMALL).hole().cells())
    assert hole_cells.isdisjoint(build_rect_diff(cfg_of(SMALL)).cells)


def test_vertex_set_single_cell():
    p = Polyomino.of([GridPoint(1, 1)])
    assert p.vertex_set() == {
        GridPoint(1, 1), GridPoint(2, 1), GridPoint(1, 2), GridPoint(2, 2)
    }


def test_vertex_set_excludes_hole_interior():
    p = build_rect_diff(cfg_of(FRAME_7X5))
    vs = p.vertex_set()
    assert len(vs) == 33
    assert GridPoint(3, 3) not in vs and GridPoint(4, 3) not in vs
    # single-cell hole has no interior lattice point
    assert len(build_rect_diff(cfg_of(SMALL)).vertex_set()) == 16


def test_is_polyomino():
    for coords in ALL_INSTANCES:
        assert is_polyomino(build_rect_diff(cfg_of(coords)).cells)
    assert not is_polyomino({GridPoint(1, 1), GridPoint(3, 3)})
    assert is_polyomino({GridPoint(1, 1), GridPoint(2, 1)})
    # diagonal contact is not edge adjacency
    assert not is_polyomino({GridPoint(1, 1), GridPoint(2, 2)})
    with pytest.raises(EmptyCollection):
        is_polyomino(set())
    with pytest.raises(EmptyCollection):
        Polyomino.of([])


def test_is_inner_interval_frame():
    p = build_rect_diff(cfg_of(FRAME_7X5))
    assert is_inner_interval(p, GridInterval(GridPoint(1, 1), GridPoint(2, 2)))
    assert not is_inner_interval(p, GridInterval(GridPoint(2, 2), GridPoint(5, 4)))
    assert not is_inner_interval(p, GridInterval(GridPoint(1, 1), GridPoint(7, 5)))
    with pytest.raises(DegenerateInterval):
        is_inner_interval(p, GridInterval(GridPoint(1, 1), GridPoint(1, 3)))


@pytest.mark.parametrize(
    "coords,expected",
    [(SMALL, 20), (MEDIUM_A, 28), (MEDIUM_B, 36), (FRAME_7X5, 74)],
)
def test_inner_minor_counts(coords, expected):
    assert inner_minor_count_oracle(coords) == expected
    minors = enumerate_inner_minors(build_rect_diff(cfg_of(coords)))
    assert len(minors) == expected
    assert len(set(map(str, minors))) == expected  # duplicate-free


def test_single_cell_minor():
    minors = enumerate_inner_minors(Polyomino.of([GridPoint(1, 1)]))
    x = lambda i, j: Monomial([(vertex_var((i, j)), 1)])
    assert minors == [Binomial(x(1, 1) * x(2, 2), x(1, 2) * x(2, 1))]


def test_minor_corners_are_vertices():
    for coords in ALL_INSTANCES:
        p = build_rect_diff(cfg_of(coords))
        vs = p.vertex_set()
        for iv in inner_intervals(p):
            assert all(c in vs for c in iv.corners())


def test_inner_intervals_canonical_order_and_determinism():
    cfg = cfg_of(MEDIUM_A)
    p = build_rect_diff(cfg)
    ivs = inner_intervals(p)
    keys = [(iv.lo.x, iv.lo.y, iv.hi.x, iv.hi.y) for iv in ivs]
    assert keys == sorted(keys)
    # rebuilding from shuffled cells yields the identical listing
    rng = random.Random(7)
    cells = list(p.cells)
    for _ in range(3):
        rng.shuffle(cells)
        again = enumerate_inner_minors(Polyomino.of(cells))
        assert again == enumerate_inner_minors(p)


def test_inner_interval_monotone_under_containment():
    rng = random.Random(20260810)
    for coords in ALL_INSTANCES:
        p = build_rect_diff(cfg_of(coords))
        ivs = inner_intervals(p)
        for _ in range(200):
            iv = rng.choice(ivs)
            lx = rng.randint(iv.lo.x, iv.hi.x - 1)
            ly = rng.randint(iv.lo.y, iv.hi.y - 1)
            hx = rng.randint(lx + 1, iv.hi.x)
            hy = rng.randint(ly + 1, iv.hi.y)
            assert is_inner_interval(p, GridInterval(GridPoint(lx, ly), GridPoint(hx, hy)))


def test_inner_interval_closed_form_equivalence():
    """For rectangle-difference polyominoes the cell-by-cell inner test
    agrees with the closed-form check that the interval's cell region
    misses the hole's cell region."""
    rng = random.Random(0xC0FFEE)
    for coords in ALL_INSTANCES:
        cfg = cfg_of(coords)
        p = build_rect_diff(cfg)
        for _ in range(1000):
            lx = rng.randint(cfg.a.x, cfg.b.x - 1)
            ly = rng.randint(cfg.a.y, cfg.b.y - 1)
            hx = rng.randint(lx + 1, cfg.b.x)
            hy = rng.randint(ly + 1, cfg.b.y)
            iv = GridInterval(GridPoint(lx, ly), GridPoint(hx, hy))
            x_overlap = lx <= cfg.b_inner.x - 1 and hx - 1 >= cfg.a_inner.x
            y_overlap = ly <= cfg.b_inner.y - 1 and hy - 1 >= cfg.a_inner.y
            assert is_inner_interval(p, iv) == (not (x_overlap and y_overlap))


def inner_intervals_cell_by_cell(p: Polyomino) -> list[GridInterval]:
    """Reference for ``inner_intervals``: every proper interval of the
    bounding box, kept when ``is_inner_interval`` walks all its cells."""
    box = p.bounding_box()
    out = []
    for lx in range(box.lo.x, box.hi.x):
        for ly in range(box.lo.y, box.hi.y):
            for hx in range(lx + 1, box.hi.x + 1):
                for hy in range(ly + 1, box.hi.y + 1):
                    iv = GridInterval(GridPoint(lx, ly), GridPoint(hx, hy))
                    if is_inner_interval(p, iv):
                        out.append(iv)
    return out


@pytest.mark.parametrize("coords", list(sweep_configs()) + list(ALL_INSTANCES), ids=str)
def test_inner_intervals_match_cell_by_cell_on_rect_diffs(coords):
    p = build_rect_diff(cfg_of(coords))
    assert inner_intervals(p) == inner_intervals_cell_by_cell(p)


@given(cells=st.sets(st.tuples(st.integers(0, 6), st.integers(0, 5)), min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_inner_intervals_match_cell_by_cell_on_random_cell_sets(cells):
    # Any nonempty cell set, connected or not, with holes anywhere.
    p = Polyomino.of(GridPoint(x, y) for x, y in cells)
    assert inner_intervals(p) == inner_intervals_cell_by_cell(p)
