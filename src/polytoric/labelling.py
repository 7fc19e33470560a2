"""Vertex labelling for rectangle-minus-rectangle polyominoes.

Every vertex gets a positive integer: the four corner blocks around the
hole get 1 (bottom-left, top-right) or 2 (top-left, bottom-right), and
the four boundary strips between the blocks count 3, 4, ... anti-
clockwise around the hole, constant across each strip's thickness.

The raw block/strip inequalities overlap on the row y = b'_2 inside the
strip columns, where the bottom and top strip formulas disagree.  The
implemented bottom strip is therefore half-open (y < b'_2), giving the
top strip precedence on that row.  The audit that reports exactly
where the raw cases conflict, so the fix stays auditable, lives with the
tests, in ``tests/helpers.py``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .errors import VertexOutsidePolyomino
from .grid import GridPoint, RectDiffConfig, build_rect_diff, point_key

# One row per region: (name, membership by the raw inequalities, label
# formula).
_REGIONS = (
    ("block_bottom_left",
     lambda c, x, y: c.a.x <= x <= c.a_inner.x and c.a.y <= y <= c.a_inner.y,
     lambda c, x, y: 1),
    ("block_top_right",
     lambda c, x, y: c.b_inner.x <= x <= c.b.x and c.b_inner.y <= y <= c.b.y,
     lambda c, x, y: 1),
    ("block_top_left",
     lambda c, x, y: c.a.x <= x <= c.a_inner.x and c.b_inner.y <= y <= c.b.y,
     lambda c, x, y: 2),
    ("block_bottom_right",
     lambda c, x, y: c.b_inner.x <= x <= c.b.x and c.a.y <= y <= c.a_inner.y,
     lambda c, x, y: 2),
    ("strip_bottom",
     lambda c, x, y: c.a_inner.x < x < c.b_inner.x and c.a.y <= y <= c.b_inner.y,
     lambda c, x, y: x - c.a_inner.x + 2),
    ("strip_right",
     lambda c, x, y: c.b_inner.x <= x <= c.b.x and c.a_inner.y < y < c.b_inner.y,
     lambda c, x, y: y - c.a_inner.y + (c.b_inner.x - c.a_inner.x) + 1),
    ("strip_top",
     lambda c, x, y: c.a_inner.x < x < c.b_inner.x and c.b_inner.y <= y <= c.b.y,
     lambda c, x, y: c.b_inner.x - x + (c.b_inner.x - c.a_inner.x) + (c.b_inner.y - c.a_inner.y)),
    ("strip_left",
     lambda c, x, y: c.a.x <= x <= c.a_inner.x and c.a_inner.y < y < c.b_inner.y,
     lambda c, x, y: c.b_inner.y - y + 2 * (c.b_inner.x - c.a_inner.x) + (c.b_inner.y - c.a_inner.y) - 1),
)


def _raw_regions(cfg: RectDiffConfig, v: GridPoint) -> list[tuple[str, int]]:
    return [
        (name, value(cfg, v.x, v.y))
        for name, member, value in _REGIONS
        if member(cfg, v.x, v.y)
    ]


def _implemented_regions(cfg: RectDiffConfig, v: GridPoint) -> list[tuple[str, int]]:
    # The one override of the raw inequalities: the bottom strip is
    # half-open (y < b'_2), so the top strip owns the row y = b'_2.
    return [
        (name, k)
        for name, k in _raw_regions(cfg, v)
        if not (name == "strip_bottom" and v.y == cfg.b_inner.y)
    ]


@dataclass(frozen=True)
class LabelMap:
    """Labels for every vertex of the rectangle-difference polyomino."""

    cfg: RectDiffConfig
    labels: dict[GridPoint, int]
    max_label: int

    def __post_init__(self):
        if self.max_label < 2:
            raise ValueError("the four hole corners already produce labels 1 and 2")

    def points(self) -> list[GridPoint]:
        return sorted(self.labels, key=point_key)

    def with_label(self, v: GridPoint, value: int) -> "LabelMap":
        """Copy with one label overridden (mutation-testing hook)."""
        if v not in self.labels:
            raise VertexOutsidePolyomino(f"{v.as_tuple()} is not a vertex")
        labels = dict(self.labels)
        labels[v] = value
        return LabelMap(self.cfg, labels, max(labels.values()))


def label(cfg: RectDiffConfig, v: GridPoint) -> int:
    """Label of a single vertex of the polyomino of cfg."""
    interior = cfg.a_inner.lt(v) and v.lt(cfg.b_inner)
    if cfg.outer().contains_point(v) and not interior:
        matched = _implemented_regions(cfg, v)
        if matched:
            return matched[0][1]
    raise VertexOutsidePolyomino(
        f"{v.as_tuple()} is not a vertex of the polyomino of {cfg.as_tuples()}"
    )


def build_label_map(cfg: RectDiffConfig) -> LabelMap:
    """Label every vertex; max_label is the attained maximum."""
    labels = {}
    for v in sorted(build_rect_diff(cfg).vertex_set(), key=point_key):
        labels[v] = label(cfg, v)
    return LabelMap(cfg, labels, max(labels.values()))


# --------------------------------------------------------------------------
# Renderings: text grid (top row = highest y, blanks at excluded points),
# JSON (round-trips to a LabelMap), CSV.
# --------------------------------------------------------------------------


def _entry(v: GridPoint, k: int) -> str:
    return f"r{v.x}s{v.y}t{k}"


def render_label_grid(lm: LabelMap) -> str:
    cfg = lm.cfg
    width = max(len(_entry(v, k)) for v, k in lm.labels.items())
    lines = []
    for y in range(cfg.b.y, cfg.a.y - 1, -1):
        row = []
        for x in range(cfg.a.x, cfg.b.x + 1):
            v = GridPoint(x, y)
            cell = _entry(v, lm.labels[v]) if v in lm.labels else ""
            row.append(cell.ljust(width))
        lines.append(" ".join(row).rstrip())
    return "\n".join(lines) + "\n"


def label_map_to_json_dict(lm: LabelMap) -> dict:
    return {
        "instance": lm.cfg.to_json_dict(),
        "max_label": lm.max_label,
        "labels": {
            f"x[{v.x},{v.y}]": {"r": v.x, "s": v.y, "t": lm.labels[v]}
            for v in lm.points()
        },
    }


def render_label_json(lm: LabelMap) -> str:
    return json.dumps(label_map_to_json_dict(lm), indent=2, sort_keys=True) + "\n"


def render_label_csv(lm: LabelMap) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "r", "s", "t"])
    for v in lm.points():
        writer.writerow([v.x, v.y, v.x, v.y, lm.labels[v]])
    return buf.getvalue()
