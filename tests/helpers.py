"""Test-only helpers: names the library itself never calls, and slow
reference versions of library functions kept as oracles."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from heapq import heappush
from itertools import combinations_with_replacement

from polytoric import binom
from polytoric.binom import (
    DEGREVLEX,
    UNIT,
    ZERO,
    Binomial,
    BinomialOrZero,
    GroebnerBasis,
    Monomial,
    TermOrder,
    Variable,
    _FIELD,
    _FMASK,
    _Elem,
    _Engine,
    _spoly4,
    _universe,
    buchberger,
    t_var,
    vertex_var,
)
from polytoric.errors import DegenerateInterval, EmptyCollection
from polytoric.grid import (
    GridInterval,
    GridPoint,
    Polyomino,
    RectDiffConfig,
    build_rect_diff,
)
from polytoric.labelling import LabelMap, _implemented_regions, _raw_regions, label
from polytoric.toric import (
    ExponentMatrix,
    build_matrix,
    lattice_kernel,
    lattice_vector_to_binomial,
    phi_image,
    saturate_generators,
)

# -- sparse reference algebra ----------------------------------------------
# Slow versions of what the packed engine does on its integers: the term
# order, divisibility, lcm, gcd and quotient of monomials.  The tests keep
# them as oracles for the engine.


def exponent(m: Monomial, v: Variable) -> int:
    return dict(m).get(v, 0)


def is_unit(m: Monomial) -> bool:
    return not m


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b."""
    bd = dict(b)
    return all(bd.get(v, 0) >= e for v, e in a)


def quotient(a: Monomial, b: Monomial) -> Monomial:
    """a / b; b must divide a."""
    d = dict(a)
    for v, e in b:
        r = d.get(v, 0) - e
        if r < 0:
            raise ValueError(f"{b} does not divide {a}")
        d[v] = r
    return Monomial(d.items())


def lcm(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a)
    for v, e in b:
        d[v] = max(d.get(v, 0), e)
    return Monomial(d.items())


def gcd(a: Monomial, b: Monomial) -> Monomial:
    return Monomial((v, min(e, exponent(b, v))) for v, e in a)


def priority_sorted(order: TermOrder, variables) -> list[Variable]:
    """The variables sorted by descending priority under the order:
    larger variables first, then the ones in ``order.last``.  A sort,
    kept apart from the one pass over an ascending universe that gives
    the engine its layout."""
    universe = set(variables)
    last = [v for v in order.last if v in universe]
    return sorted(universe.difference(last), reverse=True) + last


def greater(order: TermOrder, a: Monomial, b: Monomial) -> bool:
    """True iff a > b under the order, variable by variable."""
    if a == b:
        return False
    if order.kind == "degrevlex" and a.degree != b.degree:
        return a.degree > b.degree
    pr = priority_sorted(order, {v for v, _ in a + b})
    if order.kind == "lex":
        for v in pr:
            ea, eb = exponent(a, v), exponent(b, v)
            if ea != eb:
                return ea > eb
        return False
    for v in reversed(pr):
        ea, eb = exponent(a, v), exponent(b, v)
        if ea != eb:
            return ea < eb
    return False


def normalized(f: Binomial, order: TermOrder) -> Binomial:
    """Copy of f with plus the leading monomial under the order."""
    return f if greater(order, f.plus, f.minus) else Binomial(f.minus, f.plus)


def variable_sort_key(v: Variable) -> tuple[int, int, int]:
    """The variable order as a rank table: kind r < s < t < x, then i, j."""
    return ("rstx".index(v.kind), v.i, v.j)


# -- geometry and labelling audits -------------------------------------------


def is_proper(interval: GridInterval) -> bool:
    """True iff lo < hi strictly in both coordinates, which is what an
    interval needs to carry a 2-minor."""
    return interval.lo.lt(interval.hi)


def is_inner_interval(p: Polyomino, interval: GridInterval) -> bool:
    """Cell-by-cell reference for ``grid.inner_intervals``: true iff
    every cell of the (proper) interval belongs to p."""
    if not is_proper(interval):
        raise DegenerateInterval(f"inner intervals must be proper: {interval}")
    return all(c in p.cells for c in interval.cells())


def is_minor_pair(p: Polyomino, m1, m2) -> bool:
    """Reference for the test in ``verify.quadratic_scan``: the point
    pairs m1 and m2 are the diagonal and the anti-diagonal, in either
    order, of an interval that ``is_inner_interval`` accepts."""
    pts = [*m1, *m2]
    lo = GridPoint(min(q.x for q in pts), min(q.y for q in pts))
    hi = GridPoint(max(q.x for q in pts), max(q.y for q in pts))
    if not lo.lt(hi):
        return False
    iv = GridInterval(lo, hi)
    sides = {frozenset((iv.lo, iv.hi)), frozenset(iv.anti_diagonal())}
    return {frozenset(m1), frozenset(m2)} == sides and is_inner_interval(p, iv)


def is_polyomino(cells) -> bool:
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
            cx, cy = c.x + dx, c.y + dy
            if cx < 0 or cy < 0:
                continue
            nb = GridPoint(cx, cy)
            if nb in cell_set and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(cell_set)


@dataclass(frozen=True)
class RegionReport:
    """Audit of the labelling regions over the vertex set."""

    exhaustive: bool
    disjoint: bool
    region_of: dict[GridPoint, str]
    raw_conflicts: dict[GridPoint, dict[str, int]]
    resolved: dict[GridPoint, int]


def check_region_consistency(cfg: RectDiffConfig) -> RegionReport:
    """Partition the vertex set into the implemented regions, check the
    partition is exhaustive and pairwise disjoint, and report every
    point where two raw (non-exclusive) cases disagree."""
    vertices = sorted(build_rect_diff(cfg).vertex_set())
    region_of: dict[GridPoint, str] = {}
    raw_conflicts: dict[GridPoint, dict[str, int]] = {}
    resolved: dict[GridPoint, int] = {}
    exhaustive = True
    disjoint = True
    for v in vertices:
        matched = _implemented_regions(cfg, v)
        if not matched:
            exhaustive = False
        else:
            if len(matched) > 1:
                disjoint = False
            region_of[v] = matched[0][0]
        raw = dict(_raw_regions(cfg, v))
        if len(set(raw.values())) > 1:
            raw_conflicts[v] = raw
            resolved[v] = label(cfg, v)
    return RegionReport(exhaustive, disjoint, region_of, raw_conflicts, resolved)


# -- engine helpers and references ---------------------------------------------


def spoly(f: Binomial, g: Binomial, order: TermOrder = DEGREVLEX) -> BinomialOrZero:
    """S-polynomial of two pure-difference binomials (or ZERO), through
    the packed engine's own S-binomial step."""
    engine = _Engine(_universe((f, g), order.last), order)
    ef = _Elem(engine, engine.orient(f)[0])
    eg = _Elem(engine, engine.orient(g)[0])
    s = _spoly4(engine, ef, eg)
    return ZERO if s is None else engine.from_binomial4(s)


def reference_gm_update(engine, basis, heap, b4):
    """``binom._gm_update`` as it was before it read the occurrence
    index: every basis element gets a quotient, elements with equal
    quotients form a group, and a group holding an element coprime to
    the new lead is kept for the chain criterion but never queued.  The
    library must queue exactly the same pairs."""
    new_elem = _Elem(engine, b4)
    m = len(basis.elems)
    lmf, maskf = new_elem.lp, new_elem.mask
    H, ONES = engine.H, engine.ONES
    by_q: dict[int, list[int]] = {}
    for i, e in enumerate(basis.elems):
        diff = (e.lp | H) - lmf
        guards = diff & H
        by_q.setdefault((diff & ((guards >> (_FIELD - 1)) * _FMASK)) ^ guards, []).append(i)
    union = 0
    lower: list[int] = []
    level: list[int] = []
    level_deg = 0
    for qdeg, q in sorted((q % _FMASK, q) for q in by_q):
        if qdeg != level_deg:
            lower += level
            level, level_deg = [], qdeg
        qmask = ((q | H) - ONES) & H
        if qmask & union or any(((q | H) - k) & H == H for k in lower):
            continue
        if qdeg == 1:
            union |= qmask
        else:
            level.append(q)
        group = by_q[q]
        if any(basis.elems[i].mask & maskf == 0 for i in group):
            continue
        heappush(heap, (new_elem.ld + qdeg, group[0], m, lmf + q))
    basis.append(new_elem)


def leading_monomials(gb: GroebnerBasis) -> tuple[Monomial, ...]:
    return tuple(g.plus for g in gb.elements)


def kernel_binomials_reference(lm: LabelMap, max_degree: int) -> list[Binomial]:
    """Reference for ``verify.kernel_binomials_up_to_degree``: a sparse
    Monomial and its ``phi_image`` for every combination of variables,
    grouped by image, groups in ``str(image)`` order."""
    points = sorted(lm.labels)
    variables = [vertex_var(p) for p in points]
    out = []
    for deg in range(1, max_degree + 1):
        groups: dict[Monomial, list[Monomial]] = {}
        for combo in combinations_with_replacement(variables, deg):
            exps: dict = {}
            for v in combo:
                exps[v] = exps.get(v, 0) + 1
            mono = Monomial(exps.items())
            groups.setdefault(phi_image(mono, lm), []).append(mono)
        for image in sorted(groups, key=str):
            members = groups[image]
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    out.append(Binomial(members[i], members[j]))
    return out


def matrix_csv(a: ExponentMatrix) -> str:
    """CSV export: header of vertex labels, one row per r/s/t variable.
    Labels such as x[1,1] contain commas and come out quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["variable"] + [f"x[{p.x},{p.y}]" for p in a.cols])
    for v, row in zip(a.rows, a.entries):
        writer.writerow([str(v)] + list(row))
    return buf.getvalue()


def label_map_from_json_dict(data: dict) -> LabelMap:
    """Inverse of ``labelling.label_map_to_json_dict``."""
    inst = data["instance"]
    cfg = RectDiffConfig.of(
        inst["outer"]["a"], inst["outer"]["b"], inst["hole"]["a"], inst["hole"]["b"]
    )
    labels = {}
    for rst in data["labels"].values():
        labels[GridPoint(rst["r"], rst["s"])] = rst["t"]
    return LabelMap(cfg, labels, data["max_label"])


def divide_common_power(g: Binomial, v: Variable) -> Binomial:
    k = min(exponent(g.plus, v), exponent(g.minus, v))
    if k == 0:
        return g
    power = Monomial([(v, k)])
    return Binomial(quotient(g.plus, power), quotient(g.minus, power))


def saturation_steps_reference(gens, variables, order=DEGREVLEX):
    """``binom.saturate``'s loop with a full Buchberger run at every step,
    over the sparse types, from homogeneous ``gens``: each step's reduced
    basis under degrevlex with the uncertified variables last (before the
    common power of the lowest one, v, is divided out), and the reduced
    basis of the saturation in ``order``.  After the division every
    uncertified variable that divides no lead is certified, v among them.
    When a division changed an element, the run in ``order`` that ends
    the loop is one more step."""
    steps = []
    current = list(gens)
    pending = list(dict.fromkeys(variables))
    grown = False
    while pending:
        v = pending[0]
        gb = buchberger(current, TermOrder("degrevlex", last=tuple(reversed(pending))))
        steps.append(gb.elements)
        current = [divide_common_power(g, v) for g in gb.elements]
        grown |= current != list(gb.elements)
        in_leads = {u for g in current for u, _ in g.plus}
        pending = [u for u in pending if u in in_leads]
        assert v not in pending, f"{v} divides a lead after its own step"
    out = buchberger(current, order).elements
    if grown:
        steps.append(out)
    return steps, list(out)


def saturation_by_elimination(gens, variables) -> tuple[Binomial, ...]:
    """The reduced degrevlex basis of the saturation of the ideal I of
    ``gens`` by each variable of ``variables`` in turn, by elimination:
    I : v^inf = (I + <v t - 1>) meet k[x] for a new variable t (Cox,
    Little and O'Shea, "Ideals, Varieties, and Algorithms", 4.4).  Under
    lex with t ranked first, the elements of the reduced basis free of t
    generate that intersection.  No step divides out a common power and
    nothing is certified, so it shares no argument with
    ``binom.saturate``, and it holds for inhomogeneous ``gens`` too."""
    current = list(gens)
    xs = _universe(current, variables)
    t = t_var(1 + max((u.i for u in xs if u.kind == "t"), default=0))
    eliminate_t = TermOrder("lex", last=tuple(reversed(xs)))
    for v in dict.fromkeys(variables):
        gb = buchberger(current + [Binomial(Monomial([(v, 1), (t, 1)]), UNIT)], eliminate_t)
        current = [g for g in gb.elements if all(u != t for u, _ in g.plus + g.minus)]
    return buchberger(current, DEGREVLEX).elements


def saturation_one_variable_reference(gens, variables):
    """The saturation loop by one variable v at a time, in the given
    order, over the sparse types: each step's reduced basis under
    degrevlex with v last (before the common power of v is divided out)
    and the loop's output.  No variable is certified by the leads, so
    every variable gets a step."""
    steps = []
    current = list(gens)
    for v in variables:
        gb = buchberger(current, TermOrder("degrevlex", last=(v,)))
        steps.append(gb.elements)
        current = [divide_common_power(g, v) for g in gb.elements]
    return steps, current


def lattice_toric_basis(lm: LabelMap, budget: int | None = None) -> list[Binomial]:
    """``toric_generators`` without the quadratic kernel binomials in its
    start: the saturation from the reduced degrevlex basis of the
    binomials of ``lattice_kernel``'s basis alone.  The saturation reaches
    the same toric ideal from either start, so the two routes give the
    same basis by different S-pairs."""
    matrix = build_matrix(lm)
    gens = [lattice_vector_to_binomial(z, matrix.cols) for z in lattice_kernel(matrix)]
    variables = [vertex_var(p) for p in matrix.cols]
    return saturate_generators(buchberger(gens, DEGREVLEX, budget=budget), variables,
                               budget=budget)


def without_skips(monkeypatch):
    """Patch ``binom._low_hilbert``, the seam of the skip rule, to return
    None: every saturation step runs Buchberger in full."""
    monkeypatch.setattr(binom, "_low_hilbert", lambda engine, leads: None)


def without_orbits(monkeypatch):
    """Patch ``binom._stabilizer``, the seam of the certification by
    orbits, to keep no map: the saturation certifies no orbit."""
    monkeypatch.setattr(binom, "_stabilizer", lambda engine, maps, basis: [])


def spairs_per_step(monkeypatch, run):
    """The leads of the S-pairs reduced during ``run()``, one list per
    interreduction, that is per saturation step or Buchberger run."""
    steps = [[]]
    spoly4, interreduce = binom._spoly4, binom._interreduce

    def record_pair(engine, f, g):
        steps[-1].append((engine.unpack(f.lp), engine.unpack(g.lp)))
        return spoly4(engine, f, g)

    def close_step(*args):
        steps.append([])
        return interreduce(*args)

    with monkeypatch.context() as m:
        m.setattr(binom, "_spoly4", record_pair)
        m.setattr(binom, "_interreduce", close_step)
        run()
    return steps[:-1]


def hermite_normal_form(vectors) -> list[tuple[int, ...]]:
    """Row-style Hermite normal form of the integer lattice the vectors
    span: echelon rows with positive pivots, and every entry above a
    pivot in [0, pivot).  Two sets of vectors span the same lattice
    exactly when their forms are equal.  Row operations on the vectors
    themselves, kept apart from the column elimination behind
    ``lattice_kernel``."""
    rows = [list(v) for v in vectors if any(v)]
    width = len(rows[0]) if rows else 0
    form = []
    for col in range(width):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot, rest = live[0], live[1:]
            live = [pivot]
            for r in rest:
                q = r[col] // pivot[col]
                r = [x - q * y for x, y in zip(r, pivot)]
                (live if r[col] else rows).append(r)
        if live:
            pivot = live[0] if live[0][col] > 0 else [-x for x in live[0]]
            for above in form:
                q = above[col] // pivot[col]
                above[:] = [x - q * y for x, y in zip(above, pivot)]
            form.append(pivot)
        rows = [r for r in rows if any(r)]
    return [tuple(r) for r in form]


def standard_monomial_counts(gens, nvars: int, max_degree: int) -> list[int]:
    """Brute force: for d = 0..max_degree, the number of exponent vectors
    of degree d over ``nvars`` variables divisible by none of ``gens``
    (exponent tuples)."""
    counts = []
    for d in range(max_degree + 1):
        n = 0
        for combo in combinations_with_replacement(range(nvars), d):
            e = [combo.count(i) for i in range(nvars)]
            n += not any(all(a >= b for a, b in zip(e, g)) for g in gens)
        counts.append(n)
    return counts
