"""The monomial map into r/s/t variables and its toric ideal.

Each vertex variable x_v maps to r_{v.x} * s_{v.y} * t_{label(v)}.  The
map is encoded as an integer matrix whose columns are the images of the
vertex variables.  The toric ideal J_P is the lattice ideal of the
matrix's integer kernel L, and J_P = I : (prod of all x_v)^infinity for
the ideal I generated by the binomials of any basis of L.

Everything is exact integer arithmetic.  The kernel comes from
fraction-free column elimination (Hermite-style) and is then
size-reduced by unimodular steps (:func:`size_reduce`).  That is a basis
of the same lattice, so the saturation reaches the same J_P (Hosten and
Sturmfels, "GRIN", IPCO 1995), from shorter generators and with cheaper
Buchberger runs.  The saturation runs one vertex variable at a time: a
reduced Groebner basis under degrevlex with the variable last, then
every element divided by the variable's largest common power.  Every
column of the matrix has the same sum, so every vector of L has sum 0
and every kernel binomial is homogeneous, which is what makes that step
a saturation (Bayer and Stillman).

A step after the first starts from a Groebner basis for the previous
order.  When a Hilbert-series check proves that basis is already one
for the new order, the step only interreduces it; see
:func:`saturate_generators`.  A step is never skipped only because the
basis stopped changing.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def size_reduce(basis: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """A basis of the same lattice in which no vector gets shorter, in
    the L1 norm, by adding or subtracting another; first nonzero entry
    of each vector positive, sorted.

    Sweeps over the ordered pairs (i, j), i != j, replacing z_i by
    z_i + z_j or z_i - z_j when that lowers z_i's norm, until a sweep
    changes nothing.  Each step is unimodular, so the lattice is kept,
    and lowers the total norm, so the sweeps end.  At most one of the
    two signs can lower the norm, since |a + b| + |a - b| >= 2|a|.
    The vectors must be linearly independent, as ``lattice_kernel``'s
    are.
    """
    vecs = [{k: c for k, c in enumerate(z) if c} for z in basis]
    norms = [sum(map(abs, v.values())) for v in vecs]
    changed = True
    while changed:
        changed = False
        for i, zi in enumerate(vecs):
            for j, zj in enumerate(vecs):
                if i == j:
                    continue
                # |z_i + s z_j| = |z_i| + |z_j| - 2 * (the overlap of
                # z_i with -s z_j), summed on the common support.
                same = opposite = 0
                for k, b in zj.items():
                    a = zi.get(k)
                    if a is not None:
                        if (a > 0) == (b > 0):
                            same += min(abs(a), abs(b))
                        else:
                            opposite += min(abs(a), abs(b))
                gain, sign = max((opposite, 1), (same, -1))
                if 2 * gain <= norms[j]:
                    continue
                for k, b in zj.items():
                    c = zi.get(k, 0) + sign * b
                    if c:
                        zi[k] = c
                    else:
                        del zi[k]
                norms[i] += norms[j] - 2 * gain
                changed = True
    n = len(basis[0]) if basis else 0
    out = []
    for v in vecs:
        if v[min(v)] < 0:
            v = {k: -c for k, c in v.items()}
        out.append(tuple(v.get(k, 0) for k in range(n)))
    out.sort()
    return out


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


def saturate_generators(
    gens: Sequence[Binomial],
    variables: Sequence[Variable],
    budget: int | None = None,
) -> list[Binomial]:
    """Saturate the ideal of ``gens`` with respect to each variable in
    turn, as a list of binomials; ``budget`` caps the S-pair reductions
    of each Buchberger run.

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
    is skipped only because the basis stopped changing.  This is
    Traverso's Hilbert-driven Buchberger ("Hilbert functions and the
    Buchberger algorithm", JSC 1996), with the series from Bigatti's
    pivot algorithm (JPAA 1997).
    """
    return saturate(gens, variables, budget=budget)


def toric_generators(
    lm: LabelMap,
    order: TermOrder = DEGREVLEX,
    budget: int | None = None,
) -> list[Binomial]:
    """Reduced Groebner basis of the toric ideal of the monomial map of a
    label map; no inner-minor data enters the computation.

    The saturation starts from the binomials of the size-reduced kernel
    basis, not of ``lattice_kernel``'s.  The ideal I of the binomials of
    any basis of L = ker_Z A has I : (prod of all x_v)^infinity = I_L,
    the lattice ideal, which is J_P; the saturation by one variable at a
    time reaches it, and the final reduced basis is canonical, so the
    result does not depend on the basis.  Only the cost does: on the
    ladder instances the reduced basis is all quadratic binomials."""
    matrix = build_matrix(lm)
    kernel = size_reduce(lattice_kernel(matrix))
    gens = [lattice_vector_to_binomial(z, matrix.cols) for z in kernel]
    variables = [vertex_var(p) for p in matrix.cols]
    if not gens:
        return []
    saturated = saturate_generators(gens, variables, budget=budget)
    final = buchberger(saturated, order, budget=budget)
    return list(final.elements)
