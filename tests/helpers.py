"""Test-only helpers: names the library itself never calls, and slow
reference versions of library functions kept as oracles."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from heapq import heappush
from itertools import combinations, combinations_with_replacement
from math import comb

from polytoric import binom
from polytoric.binom import (
    DEGREVLEX,
    ZERO,
    Binomial,
    BinomialOrZero,
    GroebnerBasis,
    Monomial,
    TermOrder,
    Variable,
    _FIELD,
    _FMASK,
    _MEMO_SIZE,
    _Elem,
    _Engine,
    _divisible,
    _spoly4,
    _universe,
    buchberger,
    vertex_var,
)
from polytoric.errors import DegenerateInterval, EmptyCollection
from polytoric.grid import (
    Cell,
    GridInterval,
    GridPoint,
    Polyomino,
    RectDiffConfig,
    build_rect_diff,
    point_key,
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
    return dict(m.exps).get(v, 0)


def is_unit(m: Monomial) -> bool:
    return not m.exps


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b."""
    bd = dict(b.exps)
    return all(bd.get(v, 0) >= e for v, e in a.exps)


def quotient(a: Monomial, b: Monomial) -> Monomial:
    """a / b; b must divide a."""
    d = dict(a.exps)
    for v, e in b.exps:
        r = d.get(v, 0) - e
        if r < 0:
            raise ValueError(f"{b} does not divide {a}")
        d[v] = r
    return Monomial(d.items())


def lcm(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a.exps)
    for v, e in b.exps:
        d[v] = max(d.get(v, 0), e)
    return Monomial(d.items())


def gcd(a: Monomial, b: Monomial) -> Monomial:
    return Monomial((v, min(e, exponent(b, v))) for v, e in a.exps)


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
    pr = priority_sorted(order, {v for v, _ in a.exps + b.exps})
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
            cx, cy = c.corner.x + dx, c.corner.y + dy
            if cx < 0 or cy < 0:
                continue
            nb = Cell(GridPoint(cx, cy))
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
    vertices = sorted(build_rect_diff(cfg).vertex_set(), key=point_key)
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
    s = _spoly4(engine, ef, eg)[0]
    return ZERO if s is None else engine.from_binomial4(s)


def reference_gm_update(engine, basis, heap, b4, prov):
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
    basis.append(new_elem, prov)


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two polynomials in t, coefficients lowest first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def reference_hilbert_numerator(engine, leads, memo: dict) -> tuple[int, ...]:
    """``binom._hilbert_numerator`` as it was before its polynomials were
    Kronecker-packed: the same pivot algorithm on coefficient lists,
    multiplied by ``poly_mul``.  ``memo`` maps the frozenset of a node's
    shared generators to its K, for nodes of at most ``_MEMO_SIZE``
    generators.  The library must return the same numerator."""
    H, ONES = engine.H, engine.ONES
    shift = _FIELD - 1
    # Minimal generators, in degree order.  The kept linear ones are one
    # union mask; the others are bucketed by their lowest variable, and
    # p scans only the buckets of its own variables.  The unit monomial
    # (mask 0) stays, isolated, and its factor 1 - t^0 makes K zero.
    minimal: list[tuple[int, int]] = []
    buckets: dict[int, list[tuple[int, int]]] = {}
    linear = 0
    for d, p in sorted((p % _FMASK, p) for p in set(leads)):
        mask = ((p | H) - ONES) & H
        if mask & linear:
            continue
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if _divisible(p, mask, buckets.get(low, ()), H):
                break
        else:
            minimal.append((p, mask))
            if d == 1:
                linear |= mask
            else:
                buckets.setdefault(mask & -mask, []).append((p, mask))
    # A task is a generator list to evaluate, or a combine step
    # (None, (key, factor, parts)) that pops ``parts`` values, the
    # components' K, or when parts is 0 the two values K(J), K(I : x).
    values: list[list[int]] = []
    tasks: list = [(minimal, None)]
    while tasks:
        gens, step = tasks.pop()
        if gens is None:
            key, factor, parts = step
            if parts:
                k = [1]
                for _ in range(parts):
                    k = poly_mul(k, values.pop())
            else:
                free, colon = values.pop(), values.pop()
                k = [0] * (max(len(free), len(colon)) + 1)
                for i, c in enumerate(free):
                    k[i] += c
                    k[i + 1] -= c
                for i, c in enumerate(colon):
                    k[i + 1] += c
            if key is not None:
                memo[key] = k
            values.append(poly_mul(factor, k))
            continue
        seen = twice = 0
        for _, mask in gens:
            twice |= seen & mask
            seen |= mask
        factor = [1]
        shared = []
        for g in gens:
            if g[1] & twice:
                shared.append(g)
            else:
                d = g[0] % _FMASK
                factor = poly_mul(factor, [1] + [0] * (d - 1) + [-1] if d else [0])
        key = frozenset(p for p, _ in shared) if len(shared) <= _MEMO_SIZE else None
        known = memo.get(key)
        if known is not None or not shared:
            values.append(factor if known is None else poly_mul(factor, known))
            continue
        parts: list[tuple[int, list]] = []
        for g in shared:
            joined = [g]
            cmask = g[1]
            kept = []
            for part in parts:
                if part[0] & g[1]:
                    cmask |= part[0]
                    joined += part[1]
                else:
                    kept.append(part)
            kept.append((cmask, joined))
            parts = kept
        if len(parts) > 1:
            tasks.append((None, (key, factor, len(parts))))
            tasks += [(part[1], None) for part in parts]
            continue
        # Per-field generator counts; a count past 2**16 - 1 carries into
        # the next field, which only changes which shared variable is
        # the pivot.
        counts = sum(mask >> shift for _, mask in shared)
        best = pivot = 0
        rest = twice
        while rest:
            low = rest & -rest
            rest ^= low
            c = (counts >> (low.bit_length() - 1 - shift)) & _FMASK
            if c > best:
                best, pivot = c, low
        x = pivot >> shift
        free = []
        divided = []
        for p, mask in shared:
            if mask & pivot:
                q = p - x
                divided.append((q, ((q | H) - ONES) & H))
            else:
                free.append((p, mask))
        # The divided generators divide none of each other, and no other
        # generator divides one of them: both would break minimality.
        linear = 0
        heavier = []
        for q, qm in divided:
            if q % _FMASK == 1:
                linear |= qm
            else:
                heavier.append((q, qm))
        colon = divided + [
            (p, mask) for p, mask in free
            if not mask & linear and not _divisible(p, mask, heavier, H)
        ]
        tasks += [(None, (key, factor, 0)), (free, None), (colon, None)]
    k = values.pop()
    while k and not k[-1]:
        k.pop()
    return tuple(k)


def leading_monomials(gb: GroebnerBasis) -> tuple[Monomial, ...]:
    return tuple(g.plus for g in gb.elements)


def kernel_binomials_reference(lm: LabelMap, max_degree: int) -> list[Binomial]:
    """Reference for ``verify.kernel_binomials_up_to_degree``: a sparse
    Monomial and its ``phi_image`` for every combination of variables,
    grouped by image, groups in ``str(image)`` order."""
    points = sorted(lm.labels, key=point_key)
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


def saturation_steps_reference(gens, variables):
    """The saturation loop with a full Buchberger run at every step, over
    the sparse types: each step's reduced basis (before the common power
    is divided out) and the loop's output."""
    steps = []
    current = list(gens)
    for v in variables:
        gb = buchberger(current, TermOrder("degrevlex", last=(v,)))
        steps.append(gb.elements)
        current = [divide_common_power(g, v) for g in gb.elements]
    return steps, current


def lattice_toric_basis(lm: LabelMap, budget: int | None = None) -> list[Binomial]:
    """``toric_generators`` without the quadratic kernel binomials in its
    start: the saturation from the binomials of ``lattice_kernel``'s
    basis alone, then the final degrevlex run.  The saturation reaches
    the same toric ideal from either start, so the two routes give the
    same basis by different S-pairs."""
    matrix = build_matrix(lm)
    gens = [lattice_vector_to_binomial(z, matrix.cols) for z in lattice_kernel(matrix)]
    variables = [vertex_var(p) for p in matrix.cols]
    saturated = saturate_generators(gens, variables, budget=budget)
    return list(buchberger(saturated, DEGREVLEX, budget=budget).elements)


def without_pruning(monkeypatch):
    """Patch ``binom._run_buchberger`` so that no run gets a series gap:
    the saturation still skips steps, but prunes no pair."""
    run = binom._run_buchberger
    monkeypatch.setattr(binom, "_run_buchberger",
                        lambda engine, oriented, budget, track, gap=None:
                        run(engine, oriented, budget, track))


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


def series_coefficients(numerator, nvars: int, max_degree: int) -> list[int]:
    """Coefficients of numerator(t) / (1 - t)^nvars up to t^max_degree."""
    out = []
    for d in range(max_degree + 1):
        out.append(sum(c * comb(nvars - 1 + d - i, nvars - 1)
                       for i, c in enumerate(numerator) if i <= d))
    return out


def numerator_by_inclusion_exclusion(gens) -> tuple[int, ...]:
    """Hilbert-series numerator of a monomial ideal (exponent tuples) as
    the sum over subsets S of the generators of (-1)^|S| t^deg lcm(S),
    trailing zeros dropped.  Exponential in the number of generators."""
    coeffs: dict[int, int] = {}
    for size in range(len(gens) + 1):
        for subset in combinations(gens, size):
            d = sum(max(col, default=0) for col in zip(*subset)) if subset else 0
            coeffs[d] = coeffs.get(d, 0) + (-1) ** size
    top = max((d for d, c in coeffs.items() if c), default=-1)
    return tuple(coeffs.get(d, 0) for d in range(top + 1))
