import json
import random

import pytest
from conftest import (
    CORRECTED_CELLS,
    FRAME_7X5,
    GOLDEN_LABELS,
    MEDIUM_A,
    MEDIUM_B,
    SMALL,
    cfg_of,
)
from helpers import check_region_consistency, label_map_from_json_dict

from polytoric.errors import VertexOutsidePolyomino
from polytoric.grid import GridInterval, GridPoint, build_rect_diff, inner_intervals
from polytoric.labelling import (
    build_label_map,
    label,
    label_map_to_json_dict,
    render_label_csv,
    render_label_grid,
)

ALL_INSTANCES = (SMALL, MEDIUM_A, MEDIUM_B, FRAME_7X5)


def random_configs(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ax, ay = rng.randint(0, 3), rng.randint(0, 3)
        aix, aiy = ax + rng.randint(1, 3), ay + rng.randint(1, 3)
        bix, biy = aix + rng.randint(1, 4), aiy + rng.randint(1, 4)
        bx, by = bix + rng.randint(1, 3), biy + rng.randint(1, 3)
        out.append(cfg_of(((ax, ay), (bx, by), (aix, aiy), (bix, biy))))
    return out


def test_golden_labelling_frame():
    lm = build_label_map(cfg_of(FRAME_7X5))
    assert len(lm.labels) == 33
    for (x, y), expected in GOLDEN_LABELS.items():
        assert lm.labels[GridPoint(x, y)] == expected, (x, y)
    assert lm.max_label == 8
    assert CORRECTED_CELLS < set(GOLDEN_LABELS)


def test_label_spot_values():
    cfg = cfg_of(FRAME_7X5)
    assert label(cfg, GridPoint(3, 1)) == 3
    assert label(cfg, GridPoint(1, 3)) == 8
    assert label(cfg, GridPoint(3, 5)) == 7
    assert label(cfg, GridPoint(4, 5)) == 6
    assert label(cfg, GridPoint(7, 3)) == 5
    assert label(cfg, GridPoint(1, 1)) == 1
    assert label(cfg, GridPoint(5, 5)) == 1


def test_label_block_corners_any_config():
    for cfg in [cfg_of(c) for c in ALL_INSTANCES] + random_configs(3, 10):
        assert label(cfg, cfg.a_inner) == 1
        assert label(cfg, GridPoint(cfg.a_inner.x, cfg.b_inner.y)) == 2
        assert label(cfg, GridPoint(cfg.b_inner.x, cfg.a_inner.y)) == 2
        assert label(cfg, cfg.b_inner) == 1


def test_label_rejects_non_vertices():
    cfg = cfg_of(FRAME_7X5)
    with pytest.raises(VertexOutsidePolyomino):
        label(cfg, GridPoint(3, 3))
    with pytest.raises(VertexOutsidePolyomino):
        label(cfg, GridPoint(8, 1))
    with pytest.raises(VertexOutsidePolyomino):
        label(cfg, GridPoint(0, 0))


def test_max_label_examples():
    assert build_label_map(cfg_of(FRAME_7X5)).max_label == 8
    assert build_label_map(cfg_of(SMALL)).max_label == 2
    assert build_label_map(cfg_of(((1, 1), (5, 6), (2, 2), (3, 5)))).max_label == 6
    assert build_label_map(cfg_of(MEDIUM_A)).max_label == 4
    assert build_label_map(cfg_of(MEDIUM_B)).max_label == 6


def test_max_label_closed_form_when_strips_nonempty():
    # With every strip nonempty the anti-clockwise walk ends at
    # 2*(hole width) + 2*(hole height) - 2.
    for cfg in random_configs(11, 20):
        wide = cfg.b_inner.x - cfg.a_inner.x >= 2
        tall = cfg.b_inner.y - cfg.a_inner.y >= 2
        lm = build_label_map(cfg)
        if wide and tall:
            expected = 2 * (cfg.b_inner.x - cfg.a_inner.x) + 2 * (
                cfg.b_inner.y - cfg.a_inner.y) - 2
            assert lm.max_label == expected


def test_labels_above_two_walk_anticlockwise():
    """Labels 3..M are exactly the strip labels, consecutive along the
    anti-clockwise walk: bottom strip left to right, right strip upward,
    top strip right to left, left strip downward."""
    for cfg in [cfg_of(c) for c in ALL_INSTANCES] + random_configs(5, 10):
        lm = build_label_map(cfg)
        ai, bi = cfg.a_inner, cfg.b_inner
        walk = []
        walk += [GridPoint(x, ai.y) for x in range(ai.x + 1, bi.x)]
        walk += [GridPoint(bi.x, y) for y in range(ai.y + 1, bi.y)]
        walk += [GridPoint(x, bi.y) for x in range(bi.x - 1, ai.x, -1)]
        walk += [GridPoint(ai.x, y) for y in range(bi.y - 1, ai.y, -1)]
        assert [lm.labels[v] for v in walk] == list(range(3, lm.max_label + 1))
        strip_labels = {
            k for v, k in lm.labels.items()
            if not (v.x <= ai.x or v.x >= bi.x) or not (v.y <= ai.y or v.y >= bi.y)
        }
        assert strip_labels == set(range(3, lm.max_label + 1))
        # constant across each strip's thickness
        for x in range(ai.x + 1, bi.x):
            assert len({lm.labels[GridPoint(x, y)]
                        for y in range(cfg.a.y, ai.y + 1)}) == 1
            assert len({lm.labels[GridPoint(x, y)]
                        for y in range(bi.y, cfg.b.y + 1)}) == 1


def test_region_consistency_frame():
    report = check_region_consistency(cfg_of(FRAME_7X5))
    assert report.exhaustive and report.disjoint
    assert set(report.raw_conflicts) == {GridPoint(3, 4), GridPoint(4, 4)}
    assert report.resolved[GridPoint(3, 4)] == 7
    assert report.resolved[GridPoint(4, 4)] == 6
    for v, cases in report.raw_conflicts.items():
        assert {"strip_bottom", "strip_top"} <= set(cases)


def test_region_consistency_no_conflicts_when_strips_empty():
    report = check_region_consistency(cfg_of(SMALL))
    assert report.exhaustive and report.disjoint
    assert report.raw_conflicts == {}


def test_region_partition_random_configs():
    for cfg in random_configs(17, 25):
        report = check_region_consistency(cfg)
        assert report.exhaustive and report.disjoint
        assert set(report.region_of) == set(build_label_map(cfg).labels)


def test_inner_interval_label_balance():
    """For every inner interval the diagonal and anti-diagonal label
    multisets agree; for every proper non-inner interval of the outer
    box whose four corners are vertices, they differ."""
    for coords in ALL_INSTANCES:
        cfg = cfg_of(coords)
        p = build_rect_diff(cfg)
        lm = build_label_map(cfg)
        inner = {(iv.lo, iv.hi) for iv in inner_intervals(p)}
        for lx in range(cfg.a.x, cfg.b.x):
            for ly in range(cfg.a.y, cfg.b.y):
                for hx in range(lx + 1, cfg.b.x + 1):
                    for hy in range(ly + 1, cfg.b.y + 1):
                        iv = GridInterval(GridPoint(lx, ly), GridPoint(hx, hy))
                        if not all(c in lm.labels for c in iv.corners()):
                            continue
                        e1, e2 = iv.anti_diagonal()
                        diag = sorted((lm.labels[iv.lo], lm.labels[iv.hi]))
                        anti = sorted((lm.labels[e1], lm.labels[e2]))
                        if (iv.lo, iv.hi) in inner:
                            assert diag == anti, iv
                        else:
                            assert diag != anti, iv


def test_render_grid_golden():
    grid = render_label_grid(build_label_map(cfg_of(FRAME_7X5)))
    expected = (
        "r1s5t2 r2s5t2 r3s5t7 r4s5t6 r5s5t1 r6s5t1 r7s5t1\n"
        "r1s4t2 r2s4t2 r3s4t7 r4s4t6 r5s4t1 r6s4t1 r7s4t1\n"
        "r1s3t8 r2s3t8               r5s3t5 r6s3t5 r7s3t5\n"
        "r1s2t1 r2s2t1 r3s2t3 r4s2t4 r5s2t2 r6s2t2 r7s2t2\n"
        "r1s1t1 r2s1t1 r3s1t3 r4s1t4 r5s1t2 r6s1t2 r7s1t2\n"
    )
    assert grid == expected


def test_label_json_round_trip():
    lm = build_label_map(cfg_of(MEDIUM_A))
    data = json.loads(json.dumps(label_map_to_json_dict(lm)))
    back = label_map_from_json_dict(data)
    assert back.cfg == lm.cfg
    assert back.labels == lm.labels
    assert back.max_label == lm.max_label


def test_label_csv():
    lm = build_label_map(cfg_of(SMALL))
    lines = render_label_csv(lm).splitlines()
    assert lines[0] == "x,y,r,s,t"
    assert len(lines) == 1 + 16
    assert lines[1] == "1,1,1,1,1"


def test_with_label_mutation_hook():
    lm = build_label_map(cfg_of(SMALL))
    mutated = lm.with_label(GridPoint(2, 2), 9)
    assert mutated.labels[GridPoint(2, 2)] == 9
    assert mutated.max_label == 9
    assert lm.labels[GridPoint(2, 2)] == 1
    with pytest.raises(VertexOutsidePolyomino):
        lm.with_label(GridPoint(9, 9), 1)
