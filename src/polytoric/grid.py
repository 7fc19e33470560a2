"""Lattice geometry: cells, intervals, polyominoes, inner intervals.

Points live in the non-negative quadrant and are never translated; a
cell is identified by its lower-left corner.  A polyomino is a finite
edge-connected set of cells; the rectangle-difference constructor
removes the cells of an inner rectangle from an outer one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .binom import Binomial, Monomial, vertex_var
from .errors import ConfigInvalid, DegenerateInterval, EmptyCollection


@dataclass(frozen=True)
class GridPoint:
    """A lattice point; ordered componentwise, not lexicographically."""

    x: int
    y: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError("grid points have non-negative coordinates")

    def leq(self, other: "GridPoint") -> bool:
        return self.x <= other.x and self.y <= other.y

    def lt(self, other: "GridPoint") -> bool:
        return self.x < other.x and self.y < other.y

    def shifted(self, dx: int, dy: int) -> "GridPoint":
        return GridPoint(self.x + dx, self.y + dy)

    def as_tuple(self) -> tuple[int, int]:
        return (self.x, self.y)


def point_key(p: GridPoint) -> tuple[int, int]:
    """Canonical sort key for grid points: (x, y)."""
    return (p.x, p.y)


@dataclass(frozen=True)
class GridInterval:
    """The set of lattice points between two comparable corners.

    lo and hi are the diagonal corners; (lo.x, hi.y) and (hi.x, lo.y)
    the anti-diagonal ones.
    """

    lo: GridPoint
    hi: GridPoint

    def __post_init__(self):
        if not self.lo.leq(self.hi):
            raise DegenerateInterval(f"interval corners out of order: {self}")

    def anti_diagonal(self) -> tuple[GridPoint, GridPoint]:
        return (GridPoint(self.lo.x, self.hi.y), GridPoint(self.hi.x, self.lo.y))

    def corners(self) -> tuple[GridPoint, GridPoint, GridPoint, GridPoint]:
        e1, e2 = self.anti_diagonal()
        return (self.lo, self.hi, e1, e2)

    def cells(self) -> Iterator["Cell"]:
        for x in range(self.lo.x, self.hi.x):
            for y in range(self.lo.y, self.hi.y):
                yield Cell(GridPoint(x, y))

    def contains_point(self, p: GridPoint) -> bool:
        return self.lo.leq(p) and p.leq(self.hi)

    def __str__(self) -> str:
        return f"[({self.lo.x},{self.lo.y}),({self.hi.x},{self.hi.y})]"


@dataclass(frozen=True)
class Cell:
    """A unit cell identified by its lower-left corner."""

    corner: GridPoint

    def vertices(self) -> tuple[GridPoint, GridPoint, GridPoint, GridPoint]:
        c = self.corner
        return (c, c.shifted(1, 0), c.shifted(0, 1), c.shifted(1, 1))


@dataclass(frozen=True)
class Polyomino:
    """A finite, nonempty collection of cells."""

    cells: frozenset[Cell]

    def __post_init__(self):
        if not self.cells:
            raise EmptyCollection("a polyomino needs at least one cell")

    @classmethod
    def of(cls, cells: Iterable[Cell]) -> "Polyomino":
        return cls(frozenset(cells))

    def vertex_set(self) -> frozenset[GridPoint]:
        """Union of the vertices of the member cells."""
        return frozenset(v for c in self.cells for v in c.vertices())

    def bounding_box(self) -> GridInterval:
        xs = [c.corner.x for c in self.cells]
        ys = [c.corner.y for c in self.cells]
        return GridInterval(
            GridPoint(min(xs), min(ys)), GridPoint(max(xs) + 1, max(ys) + 1)
        )


# Widest and tallest outer box accepted, in cells.  A box has O(W^2 H^2)
# inner intervals, one minor each: on a shared 2-vCPU machine `polytoric
# minors` took 0.75 s on a 16x16 box, and the Groebner runs over those
# minors have no time bound.
MAX_SIDE = 16


@dataclass(frozen=True)
class RectDiffConfig:
    """Outer rectangle [a, b] minus inner rectangle [a_inner, b_inner];
    the chain a < a_inner < b_inner < b must be strict in both
    coordinates, and the outer box at most MAX_SIDE cells on a side."""

    a: GridPoint
    b: GridPoint
    a_inner: GridPoint
    b_inner: GridPoint

    def __post_init__(self):
        chain = (self.a, self.a_inner, self.b_inner, self.b)
        for lo, hi in zip(chain, chain[1:]):
            if not lo.lt(hi):
                raise ConfigInvalid(
                    f"need strict chain a < a' < b' < b, got "
                    f"{self.a.as_tuple()} {self.a_inner.as_tuple()} "
                    f"{self.b_inner.as_tuple()} {self.b.as_tuple()}"
                )
        width, height = self.b.x - self.a.x, self.b.y - self.a.y
        if max(width, height) > MAX_SIDE:
            raise ConfigInvalid(
                f"outer box is {width}x{height} cells, "
                f"more than {MAX_SIDE} on a side"
            )

    @classmethod
    def of(cls, a, b, a_inner, b_inner) -> "RectDiffConfig":
        return cls(GridPoint(*a), GridPoint(*b), GridPoint(*a_inner), GridPoint(*b_inner))

    def outer(self) -> GridInterval:
        return GridInterval(self.a, self.b)

    def hole(self) -> GridInterval:
        return GridInterval(self.a_inner, self.b_inner)

    def as_tuples(self):
        return (
            self.a.as_tuple(),
            self.b.as_tuple(),
            self.a_inner.as_tuple(),
            self.b_inner.as_tuple(),
        )

    def to_json_dict(self) -> dict:
        """The instance in the JSON form that instance files use."""
        a, b, ai, bi = map(list, self.as_tuples())
        return {"outer": {"a": a, "b": b}, "hole": {"a": ai, "b": bi}}


def build_rect_diff(cfg: RectDiffConfig) -> Polyomino:
    """The polyomino with every cell of [a, b] not contained in the hole."""
    hole_cells = set(cfg.hole().cells())
    return Polyomino.of(c for c in cfg.outer().cells() if c not in hole_cells)


def inner_intervals(p: Polyomino) -> list[GridInterval]:
    """All inner intervals of p, sorted by (lo.x, lo.y, hi.x, hi.y).

    An interval is inner when it holds as many cells of p as its area.
    A 2-D prefix sum of cell membership over the bounding box gives that
    count in O(1) per interval.
    """
    box = p.bounding_box()
    x0, y0 = box.lo.x, box.lo.y
    w, h = box.hi.x - x0, box.hi.y - y0
    # count[i][j]: cells of p with lower-left corner in
    # [x0, x0 + i) x [y0, y0 + j).
    count = [[0] * (h + 1) for _ in range(w + 1)]
    for i in range(w):
        for j in range(h):
            inside = Cell(GridPoint(x0 + i, y0 + j)) in p.cells
            count[i + 1][j + 1] = count[i][j + 1] + count[i + 1][j] - count[i][j] + inside
    points = [[GridPoint(x0 + i, y0 + j) for j in range(h + 1)] for i in range(w + 1)]
    out = []
    for lx in range(w):
        for ly in range(h):
            for hx in range(lx + 1, w + 1):
                for hy in range(ly + 1, h + 1):
                    cells = count[hx][hy] - count[lx][hy] - count[hx][ly] + count[lx][ly]
                    if cells != (hx - lx) * (hy - ly):
                        break  # a taller interval misses the same cell
                    out.append(GridInterval(points[lx][ly], points[hx][hy]))
    return out


def inner_minor(interval: GridInterval, var=vertex_var) -> Binomial:
    """The 2-minor of an interval: x_lo * x_hi - x_(lo.x,hi.y) * x_(hi.x,lo.y).
    ``var`` maps a corner to its variable."""
    e1, e2 = interval.anti_diagonal()
    return Binomial(
        Monomial([(var(interval.lo), 1), (var(interval.hi), 1)]),
        Monomial([(var(e1), 1), (var(e2), 1)]),
    )


def enumerate_inner_minors(p: Polyomino) -> list[Binomial]:
    """One binomial per inner interval, in the canonical interval order."""
    var = {v: vertex_var(v) for v in p.vertex_set()}.__getitem__
    return [inner_minor(iv, var) for iv in inner_intervals(p)]
