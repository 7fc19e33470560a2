"""Test-only helpers: names the library itself never calls, and slow
reference versions of library functions kept as oracles."""

from __future__ import annotations

from itertools import combinations_with_replacement

from polytoric.binom import (
    DEGREVLEX,
    ZERO,
    Binomial,
    BinomialOrZero,
    GroebnerBasis,
    Monomial,
    TermOrder,
    _Elem,
    _Engine,
    _spoly4,
    _universe,
    vertex_var,
)
from polytoric.grid import point_key
from polytoric.labelling import LabelMap
from polytoric.toric import phi_image


def spoly(f: Binomial, g: Binomial, order: TermOrder = DEGREVLEX) -> BinomialOrZero:
    """S-polynomial of two pure-difference binomials (or ZERO), through
    the packed engine's own S-binomial step."""
    engine = _Engine(_universe(order, (f, g)), order)
    ef = _Elem(engine, engine.orient(f)[0])
    eg = _Elem(engine, engine.orient(g)[0])
    s = _spoly4(engine, ef, eg)[0]
    return ZERO if s is None else engine.from_binomial4(s)


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
