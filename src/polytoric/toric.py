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
starts from its binomials together with Q, every degree-2 binomial
u - w whose two sides have the same image, read off the fibers of A
alone (:func:`_fibers`); see :func:`toric_generators`.  It runs one
vertex variable at a time (:func:`saturate_generators`).  Every column
of the matrix has the same sum, so every vector of L has sum 0 and
every kernel binomial is homogeneous, which is what makes each step a
saturation (Bayer and Stillman) and what the Hilbert-series checks of
the steps after the first rest on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, groupby
from typing import Sequence

from .binom import (
    DEGREVLEX,
    Binomial,
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
    for v, e in m.exps:
        if v.kind != "x":
            raise VertexOutsidePolyomino(f"{v} is not a vertex variable")
        p = GridPoint(v.i, v.j)
        if p not in lm.labels:
            raise VertexOutsidePolyomino(f"{p.as_tuple()} is not a vertex")
        image += [(r_var(p.x), e), (s_var(p.y), e), (t_var(lm.labels[p]), e)]
    return Monomial(image)


def lattice_kernel(a: ExponentMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel lattice {z : A z = 0}, each vector
    indexed by the matrix columns, first nonzero entry positive, sorted.

    Unimodular column operations (fraction-free, Euclidean pivoting)
    reduce A to column echelon form while the same operations act on an
    identity block; columns that end up zero in A yield the basis.  The
    kernel of an integer matrix is saturated by definition, and every
    returned vector is re-checked by multiplication.
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
    for vec in basis:
        for i in range(m):
            if sum(a.entries[i][j] * vec[j] for j in range(n)) != 0:
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


def _fibers(lm: LabelMap, deg: int, items: Sequence | None = None) -> dict[tuple, list[tuple]]:
    """The vertex monomials of degree ``deg`` that share their image with
    another, grouped by image.  The monomials come from
    ``combinations_with_replacement`` over the points in (x, y) order,
    each as the tuple of its points, or with ``items`` as the tuple of
    the entries of ``items`` at its points' positions.  The members of a
    group keep the enumeration order, and the groups come in the order of
    their first members.

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
        combinations_with_replacement(points if items is None else items, deg),
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
    # Ascending, since vertex variables sort as their points do.
    variables = [vertex_var(p) for p in lm.points()]
    fibers = _fibers(lm, deg, range(len(variables)))
    out = []
    for image in sorted(fibers, key=_image_text):
        # A member is a nondecreasing index tuple, so its exponents come
        # out in ascending variable order, each variable once.
        members = [
            Monomial._from_sorted(tuple([(variables[i], m.count(i)) for i in dict.fromkeys(m)]))
            for m in fibers[image]
        ]
        out.extend(Binomial(u, w) for u, w in combinations(members, 2))
    return out


def saturate_generators(
    gens: Sequence[Binomial],
    variables: Sequence[Variable],
    budget: int | None = None,
) -> list[Binomial]:
    """Saturate the ideal of ``gens`` with respect to each variable in
    turn, as a list of binomials; ``budget`` caps the S-pair reductions
    of each Buchberger run, not counting the pairs the pruning drops.

    Step k computes the reduced Groebner basis G_k under degrevlex with
    v_k last, then divides every element by the largest power of v_k
    dividing both its terms.  For homogeneous ``gens`` the result is a
    Groebner basis, for that order, of the ideal saturated by v_k.

    Skip rule.  Let G be the previous step's output and I its ideal.
    Step k is only an interreduction of G when the monomial ideal of
    G's leads under the new order has the Hilbert series of S / I.
    Hypotheses: both orders are degree-compatible (degrevlex is), and G
    is a Groebner basis of I for the previous order, which the division
    keeps when ``gens`` are homogeneous.  Then the new leads generate an
    ideal inside the new initial ideal, S / I and S / in(I) have the same
    Hilbert series under either order (Macaulay), and a monomial ideal
    inside another with the same series equals it.  So G is a Groebner
    basis for the new order, and interreducing it gives the one reduced
    basis, G_k, that a full run gives.  Any other step runs Buchberger
    in full, and with inhomogeneous ``gens`` every step does.  No step
    is skipped only because the basis stopped changing.

    Pruning rule.  Under the same hypotheses, a step run in full reads
    the deficit HF(S / <G's leads>)(d0) - HF(S / I)(d0) at its lowest
    pair degree d0: the degree-d0 monomials of the new initial ideal
    that no lead divides.  A nonzero reduction in degree d0 adds exactly
    one of them as a lead (its normal form is homogeneous of degree d0),
    and nothing else adds a lead of degree d0.  At deficit 0 every pair
    left in degree d0 reduces to zero; it is dropped, uncounted by
    ``budget``.  Zero reductions change neither the basis nor the queue,
    so the step keeps its other pairs, their order and its output.  Both
    rules are Traverso's Hilbert-driven Buchberger ("Hilbert functions
    and the Buchberger algorithm", JSC 1996), with the series from
    Bigatti's pivot algorithm (JPAA 1997).
    """
    return saturate(gens, variables, budget=budget)


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
    The saturation by one variable at a time reaches it, and the final
    reduced basis is canonical, so the result does not depend on the
    starting set.  Only the cost does.  On a correct labelling Q is the
    set of inner minors, so when I_P = J_P the first step starts from
    generators of J_P instead of rebuilding its quadrics from I(B).  B
    stays in the start because Q spans L only on a correct labelling,
    and the lemma needs a basis of L."""
    matrix = build_matrix(lm)
    lattice = [lattice_vector_to_binomial(z, matrix.cols) for z in lattice_kernel(matrix)]
    gens = list(dict.fromkeys(lattice + _fiber_binomials(lm, 2)))
    variables = [vertex_var(p) for p in matrix.cols]
    if not gens:
        return []
    saturated = saturate_generators(gens, variables, budget=budget)
    final = buchberger(saturated, order, budget=budget)
    return list(final.elements)
