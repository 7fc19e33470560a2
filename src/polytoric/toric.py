"""The monomial map into r/s/t variables and its toric ideal.

Each vertex variable x_v maps to r_{v.x} * s_{v.y} * t_{label(v)}.  The
map is encoded as an integer matrix whose columns are the images of the
vertex variables; the toric ideal is generated from a basis of the
matrix's integer kernel by saturating with respect to every vertex
variable in sequence.

Everything is exact integer arithmetic; the kernel comes from
fraction-free column elimination (Hermite-style), and each
single-variable saturation is one Groebner computation under a
degrevlex order that makes the variable lowest, followed by dividing
out the variable's common power.  The total-degree homogeneity of the
kernel lattice (every column of the matrix has the same column sum) is
what makes that saturation step valid.
"""

from __future__ import annotations

import csv
import io
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


@dataclass(frozen=True)
class LatticeVector:
    """An integer vector indexed by the matrix columns with A * coords = 0."""

    coords: tuple[int, ...]


def build_matrix_from_labels(lm: LabelMap) -> ExponentMatrix:
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


def phi_image_from_labels(m: Monomial, lm: LabelMap) -> Monomial:
    """Image of a vertex monomial under the monomial map."""
    exps: dict[Variable, int] = {}
    for v, e in m.exps:
        if v.kind != "x":
            raise VertexOutsidePolyomino(f"{v} is not a vertex variable")
        p = GridPoint(v.i, v.j)
        if p not in lm.labels:
            raise VertexOutsidePolyomino(f"{p.as_tuple()} is not a vertex")
        for w in (r_var(p.x), s_var(p.y), t_var(lm.labels[p])):
            exps[w] = exps.get(w, 0) + e
    return Monomial(exps.items())


def lattice_kernel(a: ExponentMatrix) -> list[LatticeVector]:
    """Basis of the integer kernel lattice {z : A z = 0}.

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
    out = []
    for vec in basis:
        for i in range(m):
            if sum(a.entries[i][j] * vec[j] for j in range(n)) != 0:
                raise AssertionError("kernel vector fails A z = 0")
        out.append(LatticeVector(vec))
    return out


def lattice_vector_to_binomial(z: LatticeVector, cols: Sequence[GridPoint]) -> Binomial:
    """x^(positive part) - x^(negative part) of a kernel vector."""
    plus = []
    minus = []
    for p, c in zip(cols, z.coords):
        if c > 0:
            plus.append((vertex_var(p), c))
        elif c < 0:
            minus.append((vertex_var(p), -c))
    return Binomial(Monomial(plus), Monomial(minus))


def _divide_common_power(g: Binomial, v: Variable) -> Binomial:
    k = min(g.plus.exponent(v), g.minus.exponent(v))
    if k == 0:
        return g
    power = Monomial([(v, k)])
    return Binomial(g.plus / power, g.minus / power)


def saturate_generators(
    gens: Sequence[Binomial],
    variables: Sequence[Variable],
    budget: int | None = None,
) -> list[Binomial]:
    """One full saturation pass: for each variable in sequence, compute a
    Groebner basis under degrevlex with that variable lowest and divide
    every element by the variable's largest common power.

    For a total-degree homogeneous binomial ideal this computes the
    saturation with respect to the product of all the variables; a
    second pass is a no-op (asserted in the test suite, not assumed
    here beyond the one-pass contract).
    """
    current = list(gens)
    for v in variables:
        order = TermOrder("degrevlex", last=(v,))
        gb = buchberger(current, order, variables=variables, budget=budget)
        current = [_divide_common_power(g, v) for g in gb.elements]
    return current


def toric_generators(
    lm: LabelMap,
    order: TermOrder = DEGREVLEX,
    budget: int | None = None,
) -> list[Binomial]:
    """Reduced Groebner basis of the toric ideal of the monomial map of a
    label map, computed from a lattice-kernel basis by iterated
    saturation; no inner-minor data enters the computation."""
    matrix = build_matrix_from_labels(lm)
    kernel = lattice_kernel(matrix)
    gens = [lattice_vector_to_binomial(z, matrix.cols) for z in kernel]
    variables = [vertex_var(p) for p in matrix.cols]
    if not gens:
        return []
    saturated = saturate_generators(gens, variables, budget=budget)
    final = buchberger(saturated, order, variables=variables, budget=budget)
    return list(final.elements)


def matrix_csv(a: ExponentMatrix) -> str:
    """CSV export: header of vertex labels, one row per r/s/t variable.
    Labels such as x[1,1] contain commas and come out quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["variable"] + [f"x[{p.x},{p.y}]" for p in a.cols])
    for v, row in zip(a.rows, a.entries):
        writer.writerow([str(v)] + list(row))
    return buf.getvalue()
