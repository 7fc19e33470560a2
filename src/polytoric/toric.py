"""The monomial map into r/s/t variables and its toric ideal.

Each vertex variable x_v maps to r_{v.x} * s_{v.y} * t_{label(v)}.  The
map is encoded as an integer matrix A whose columns are the images of
the vertex variables.  The toric ideal J_P is the lattice ideal of the
matrix's integer kernel L, and J_P = I : (prod of all x_v)^infinity for
every ideal I with I(B) <= I <= J_P, where B is any basis of L and I(B)
the ideal of its binomials (Sturmfels, "Groebner Bases and Convex
Polytopes", Lemma 12.2; Hosten and Sturmfels, "GRIN", IPCO 1995).

Everything is exact integer arithmetic.  The kernel comes from
fraction-free column elimination (Hermite-style).  The saturation
(:func:`saturate_generators`) starts from the reduced degrevlex basis
of its binomials and of every quadric u - w whose two sides have the
same image (:func:`toric_generators`), and certifies the vertex
variables a block per step, ending on the reduced degrevlex basis.
Every column of the matrix has the same sum, so every kernel binomial
is homogeneous, which is what makes each step a saturation (Bayer and
Stillman), and what the certificates and the skip rule rest on.

The maps of the outer box and the swaps of adjacent grid lines within
one band that send the vertex set onto itself
(:func:`_candidate_symmetries`) go to the saturation as candidate
symmetries, and it certifies whole orbits under those it proves fix
the ideal.  This only cuts steps: the reduced basis is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, groupby
from typing import Mapping, Sequence

from .binom import (
    DEGREVLEX,
    Binomial,
    GroebnerBasis,
    Monomial,
    TermOrder,
    Variable,
    buchberger,
    r_var,
    s_var,
    saturate,
    t_var,
    vertex_var,
)
from .errors import VertexOutsidePolyomino
from .grid import GridPoint
from .labelling import LabelMap


@dataclass(frozen=True)
class ExponentMatrix:
    """Integer matrix of the monomial map: rows are r, s, t variables in
    canonical order, columns are vertices; every column has exactly one
    1 in each of the three blocks."""

    rows: tuple[Variable, ...]
    cols: tuple[GridPoint, ...]
    entries: tuple[tuple[int, ...], ...]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))


def build_matrix(lm: LabelMap) -> ExponentMatrix:
    cfg = lm.cfg
    rows = (
        [r_var(i) for i in range(cfg.a.x, cfg.b.x + 1)]
        + [s_var(j) for j in range(cfg.a.y, cfg.b.y + 1)]
        + [t_var(k) for k in range(1, lm.max_label + 1)]
    )
    cols = tuple(lm.points())
    row_index = {v: i for i, v in enumerate(rows)}
    entries = [[0] * len(cols) for _ in rows]
    for j, p in enumerate(cols):
        entries[row_index[r_var(p.x)]][j] = 1
        entries[row_index[s_var(p.y)]][j] = 1
        entries[row_index[t_var(lm.labels[p])]][j] = 1
    return ExponentMatrix(tuple(rows), cols, tuple(tuple(r) for r in entries))


def phi_image(m: Monomial, lm: LabelMap) -> Monomial:
    """Image of a vertex monomial under the monomial map."""
    image = []
    for v, e in m:
        if v.kind != "x":
            raise VertexOutsidePolyomino(f"{v} is not a vertex variable")
        p = GridPoint(v.i, v.j)
        if p not in lm.labels:
            raise VertexOutsidePolyomino(f"{p} is not a vertex")
        image += [(r_var(p.x), e), (s_var(p.y), e), (t_var(lm.labels[p]), e)]
    return Monomial(image)


def lattice_kernel(a: ExponentMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel lattice {z : A z = 0}, each vector
    indexed by the matrix columns, first nonzero entry positive, sorted.

    Unimodular column operations (fraction-free, Euclidean pivoting)
    reduce A to column echelon form while the same operations act on an
    identity block; columns that end up zero in A yield the basis.  The
    kernel of an integer matrix is saturated by definition, and every
    returned vector is re-checked against each row's nonzero entries.
    """
    m, n = a.shape()
    acols = [list(a.column(j)) for j in range(n)]
    icols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    active = list(range(n))
    for r in range(m):
        live = [j for j in active if acols[j][r] != 0]
        while len(live) > 1:
            live.sort(key=lambda j: (abs(acols[j][r]), j))
            piv = live[0]
            pv = acols[piv][r]
            for j in live[1:]:
                q = acols[j][r] // pv
                if q:
                    acols[j] = [x - q * y for x, y in zip(acols[j], acols[piv])]
                    icols[j] = [x - q * y for x, y in zip(icols[j], icols[piv])]
            live = [j for j in live if acols[j][r] != 0]
        if live:
            active.remove(live[0])
    basis = []
    for j in active:
        if any(acols[j]):
            raise AssertionError("column elimination left a nonzero active column")
        vec = icols[j]
        first = next(x for x in vec if x != 0)
        if first < 0:
            vec = [-x for x in vec]
        basis.append(tuple(vec))
    basis.sort()
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in a.entries]
    for vec in basis:
        if any(sum(x * vec[j] for j, x in row) for row in rows):
            raise AssertionError("kernel vector fails A z = 0")
    return basis


def lattice_vector_to_binomial(z: Sequence[int], cols: Sequence[GridPoint]) -> Binomial:
    """x^(positive part) - x^(negative part) of a kernel vector."""
    plus = []
    minus = []
    for p, c in zip(cols, z):
        if c > 0:
            plus.append((vertex_var(p), c))
        elif c < 0:
            minus.append((vertex_var(p), -c))
    return Binomial(Monomial(plus), Monomial(minus))


def _image_text(image: tuple) -> str:
    """``str`` of the image monomial r^xs * s^ys * t^labels, from the
    sorted x, y and label multisets of a vertex monomial."""
    return "*".join(map(_multiset_text, "rst", image))


@lru_cache(maxsize=4096)
def _multiset_text(kind: str, values: tuple[int, ...]) -> str:
    """The factors ``kind[v]`` or ``kind[v]^c`` of a sorted multiset,
    joined by "*"; the fibers of one instance repeat few multisets."""
    parts = []
    for v, run in groupby(values):
        c = len(tuple(run))
        parts.append(f"{kind}[{v}]" if c == 1 else f"{kind}[{v}]^{c}")
    return "*".join(parts)


def _fibers(lm: LabelMap, deg: int) -> dict[tuple, list[tuple]]:
    """The vertex monomials of degree ``deg`` that share their image with
    another, grouped by image.  The monomials come from
    ``combinations_with_replacement`` over the points in (x, y) order,
    each as the tuple of its points.  The members of a group keep the
    enumeration order, and the groups come in the order of their first
    members.

    A monomial's image is fixed by the sorted x, y and label multisets of
    its points, and that triple of tuples is the group's key in the
    result.  The grouping itself uses one integer per monomial: the sum
    of its points' codes.  The integer has a ``deg.bit_length()``-bit
    count field for each x value, each y value and each label present,
    and a point's code is 1 in the fields of its x, its y and its label.
    No count of a degree-``deg`` monomial exceeds ``deg``, which fits in
    its field, so no field carries into the next: the sum holds the three
    multisets exactly, and two monomials get the same integer if and only
    if they have the same image.  The sums are taken at C speed, no
    ``Monomial`` is built, and only the groups with two or more members
    have their triple decoded from their integer."""
    points = lm.points()
    labels = lm.labels
    width = deg.bit_length()
    # (0, x), (1, y) and (2, label) fields, each kind in ascending order.
    fields = [
        (kind, v)
        for kind, values in enumerate(
            ({p.x for p in points}, {p.y for p in points}, {labels[p] for p in points})
        )
        for v in sorted(values)
    ]
    unit = {f: 1 << (width * k) for k, f in enumerate(fields)}
    codes = [unit[0, p.x] + unit[1, p.y] + unit[2, labels[p]] for p in points]
    groups: dict[int, list[tuple]] = {}
    for key, combo in zip(
        map(sum, combinations_with_replacement(codes, deg)),
        combinations_with_replacement(points, deg),
    ):
        groups.setdefault(key, []).append(combo)
    count = (1 << width) - 1
    fibers: dict[tuple, list[tuple]] = {}
    for key, members in groups.items():
        if len(members) > 1:
            image: tuple[list, list, list] = ([], [], [])
            for k, (kind, v) in enumerate(fields):
                image[kind].extend([v] * ((key >> (width * k)) & count))
            fibers[tuple(map(tuple, image))] = members
    return fibers


def _fiber_binomials(lm: LabelMap, deg: int) -> list[Binomial]:
    """Every binomial u - w with deg u = deg w = ``deg`` and equal images,
    one per pair u, w inside a fiber of ``_fibers``: the fibers sorted by
    the text of their image, the pairs in enumeration order."""
    var = {p: vertex_var(p) for p in lm.points()}
    fibers = _fibers(lm, deg)
    out = []
    for image in sorted(fibers, key=_image_text):
        members = [Monomial([(var[p], 1) for p in m]) for m in fibers[image]]
        out.extend(Binomial(u, w) for u, w in combinations(members, 2))
    return out


def _candidate_symmetries(lm: LabelMap) -> list[dict[Variable, Variable]]:
    """Candidate symmetries of the inner minors, each a permutation of the
    vertex variables that sends the vertex set onto itself.

    They are the maps of the outer box onto itself other than the
    identity: the two reflections and the half turn, and on a square box
    also the two diagonal reflections and the quarter turns.  They are
    also the swaps of two adjacent grid lines of one band.  The vertical
    lines fall into three bands: x <= a'.x, a'.x < x < b'.x and
    x >= b'.x, with a' and b' the corners of the hole.  The horizontal
    lines fall into three bands by y in the same way.  An interval is
    inner exactly when its cells miss the hole's: when its two vertical
    lines are both in the left band or both in the right band, or its
    two horizontal lines are both in the bottom band or both in the top
    band.  That depends only on the bands of the lines, so a swap within
    a band maps the inner intervals onto inner intervals, and the minors
    onto minors up to sign.  Each map is offered only when it sends the
    vertex set onto itself.  Whether it also fixes the ideal is left to
    ``saturate``'s test."""
    a, b, lo, hi = lm.cfg.as_tuples()
    w, h = b.x - a.x, b.y - a.y
    # The lower line i of each adjacent pair i, i + 1 within one band.
    xs = [i for i in range(a.x, b.x) if i != lo.x and i + 1 != hi.x]
    ys = [j for j in range(a.y, b.y) if j != lo.y and j + 1 != hi.y]

    def images(p: GridPoint) -> list[GridPoint]:
        u, v = p.x - a.x, p.y - a.y
        moved = [(w - u, v), (u, h - v), (w - u, h - v)]
        if w == h:
            moved += [(v, u), (w - v, w - u), (v, w - u), (w - v, u)]
        return ([GridPoint(a.x + i, a.y + j) for i, j in moved]
                + [GridPoint(p.x + (p.x == i) - (p.x == i + 1), p.y) for i in xs]
                + [GridPoint(p.x, p.y + (p.y == j) - (p.y == j + 1)) for j in ys])

    points = lm.points()
    return [
        {vertex_var(p): vertex_var(q) for p, q in zip(points, column)}
        for column in zip(*map(images, points))
        if all(q in lm.labels for q in column)
    ]


def saturate_generators(
    gens: GroebnerBasis,
    variables: Sequence[Variable],
    budget: int | None = None,
    symmetries: Sequence[Mapping[Variable, Variable]] = (),
) -> list[Binomial]:
    """``binom.saturate``, under the name that the benchmark traces: the
    reduced basis, in ``gens.order``, of the saturation of the
    homogeneous ideal whose reduced basis is ``gens`` by every variable
    of ``variables``.  ``binom.saturate`` states the steps, the
    certificates and the skip rule, and proves them."""
    return saturate(gens, variables, budget=budget, symmetries=symmetries)


def toric_generators(
    lm: LabelMap,
    order: TermOrder = DEGREVLEX,
    budget: int | None = None,
) -> list[Binomial]:
    """Reduced Groebner basis of the toric ideal of the monomial map of a
    label map; no inner-minor data enters the computation.

    The saturation starts from B and Q, each binomial listed once: B is
    the binomials of ``lattice_kernel``'s basis, and Q every degree-2
    binomial whose two sides have the same image, a function of the
    matrix A alone.  With L = ker_Z A, I(B) <= I(B) + I(Q) <= J_P = I_L,
    and J_P is saturated, so (I(B) + I(Q)) : (prod of all x_v)^infinity
    = J_P (Sturmfels, "Groebner Bases and Convex Polytopes", Lemma 12.2).
    The reduced basis is canonical, so the result does not depend on the
    starting set.  Only the cost does.  On a correct labelling Q is the
    set of inner minors, so when I_P = J_P the start generates J_P.  B
    stays in it because Q spans L only on a correct labelling, and the
    lemma needs a basis of L.  The public ``buchberger`` run on B and Q
    under degrevlex is the saturation's first step, and the saturation
    ends on the reduced degrevlex basis (certificate (d) of
    ``binom.saturate``), so only another ``order`` takes a run
    after it.  The maps of ``_candidate_symmetries`` go to the
    saturation as candidates; it uses only those that it proves fix the
    ideal (certificate (c))."""
    matrix = build_matrix(lm)
    lattice = [lattice_vector_to_binomial(z, matrix.cols) for z in lattice_kernel(matrix)]
    gens = list(dict.fromkeys(lattice + _fiber_binomials(lm, 2)))
    variables = [vertex_var(p) for p in matrix.cols]
    if not gens:
        return []
    saturated = saturate_generators(buchberger(gens, DEGREVLEX, budget=budget), variables,
                                    budget=budget, symmetries=_candidate_symmetries(lm))
    if order != DEGREVLEX:
        return list(buchberger(saturated, order, budget=budget).elements)
    return saturated
