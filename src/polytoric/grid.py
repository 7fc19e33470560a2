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
    the anti-diagonal ones.  Proper means lo < hi strictly in both
    coordinates, which is what an interval needs to carry a 2-minor.
    """

    lo: GridPoint
    hi: GridPoint

    def __post_init__(self):
        if not self.lo.leq(self.hi):
            raise DegenerateInterval(f"interval corners out of order: {self}")

    @property
    def is_proper(self) -> bool:
        return self.lo.lt(self.hi)

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


@dataclass(frozen=True)
class RectDiffConfig:
    """Outer rectangle [a, b] minus inner rectangle [a_inner, b_inner];
    the chain a < a_inner < b_inner < b must be strict in both
    coordinates."""

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


def build_rect_diff(cfg: RectDiffConfig) -> Polyomino:
    """The polyomino with every cell of [a, b] not contained in the hole."""
    hole_cells = set(cfg.hole().cells())
    return Polyomino.of(c for c in cfg.outer().cells() if c not in hole_cells)


def is_polyomino(cells: Iterable[Cell]) -> bool:
    """True iff the cells are pairwise connected through edge-adjacent
    cell sequences within the collection."""
    cell_set = set(cells)
    if not cell_set:
        raise EmptyCollection("connectivity of an empty cell collection")
    start = next(iter(cell_set))
    seen = {start}
    frontier = [start]
    while frontier:
        c = frontier.pop()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            cx, cy = c.corner.x + dx, c.corner.y + dy
            if cx < 0 or cy < 0:
                continue
            nb = Cell(GridPoint(cx, cy))
            if nb in cell_set and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(cell_set)


def is_inner_interval(p: Polyomino, interval: GridInterval) -> bool:
    """True iff every cell of the (proper) interval belongs to p."""
    if not interval.is_proper:
        raise DegenerateInterval(f"inner intervals must be proper: {interval}")
    return all(c in p.cells for c in interval.cells())


def inner_intervals(p: Polyomino) -> list[GridInterval]:
    """All inner intervals of p, sorted by (lo.x, lo.y, hi.x, hi.y)."""
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


def inner_minor(interval: GridInterval) -> Binomial:
    """The 2-minor of an interval: x_lo * x_hi - x_(lo.x,hi.y) * x_(hi.x,lo.y)."""
    e1, e2 = interval.anti_diagonal()
    return Binomial(
        Monomial([(vertex_var(interval.lo), 1)]) * Monomial([(vertex_var(interval.hi), 1)]),
        Monomial([(vertex_var(e1), 1)]) * Monomial([(vertex_var(e2), 1)]),
    )


def enumerate_inner_minors(p: Polyomino) -> list[Binomial]:
    """One binomial per inner interval, in the canonical interval order."""
    return [inner_minor(iv) for iv in inner_intervals(p)]
