"""sympy as an independent Groebner oracle; the library never imports it."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers import divides, leading_monomials, priority_sorted, spoly

from polytoric.binom import (
    DEGREVLEX,
    LEX,
    ZERO,
    Binomial,
    Monomial,
    TermOrder,
    buchberger,
    r_var,
    reduce,
    s_var,
    t_var,
    vertex_var,
)

sympy = pytest.importorskip("sympy")

# Ten variables of every kind.
POOL = [vertex_var((i, j)) for i in (1, 2) for j in (1, 2, 3)] + [
    r_var(1), r_var(2), s_var(1), t_var(1)]


@st.composite
def binomial_sets(draw):
    """One to five homogeneous binomials of degree 1-3 over at most ten
    variables: random products of d variables on each side."""
    universe = POOL[:draw(st.integers(min_value=2, max_value=len(POOL)))]

    def binomial():
        d = draw(st.integers(min_value=1, max_value=3))
        side = st.lists(st.sampled_from(universe), min_size=d, max_size=d)
        plus, minus = draw(side), draw(side)
        assume(sorted(plus) != sorted(minus))
        return Binomial(*(Monomial((v, s.count(v)) for v in set(s)) for s in (plus, minus)))

    return [binomial() for _ in range(draw(st.integers(min_value=1, max_value=5)))]


def in_sympy(gens, order: TermOrder):
    """sympy symbols of the generators' variables, highest priority
    first (so sympy's order with these generators is ``order``), and a
    map from a binomial to its sympy expression."""
    universe = priority_sorted(
        order, {v for g in gens for v, _ in g.plus + g.minus})
    symbols = {v: sympy.Symbol(str(v)) for v in universe}

    def expr(g: Binomial):
        return (sympy.Mul(*(symbols[v] ** e for v, e in g.plus))
                - sympy.Mul(*(symbols[v] ** e for v, e in g.minus)))

    return list(symbols.values()), expr


@pytest.mark.parametrize("order, sympy_order", [
    (DEGREVLEX, "grevlex"),
    (TermOrder("degrevlex", last=(POOL[0],)), "grevlex"),  # a saturation step
    (LEX, "lex"),
])
@given(gens=binomial_sets())
@settings(max_examples=100, deadline=None)
def test_reduced_basis_matches_sympy(order, sympy_order, gens):
    symbols, expr = in_sympy(gens, order)
    theirs = sympy.groebner([expr(g) for g in gens], *symbols, order=sympy_order).exprs
    # sympy's reduced basis is monic: lead minus trail, as ours is.
    ours = [expr(g) for g in buchberger(gens, order).elements]
    assert len(theirs) == len(ours) and set(theirs) == set(ours)


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
@given(gens=binomial_sets())
@settings(max_examples=100, deadline=None)
def test_reduced_basis_is_a_minimal_reduced_groebner_basis(order, gens):
    gb = buchberger(gens, order)
    for i, f in enumerate(gb.elements):
        for g in gb.elements[i + 1:]:
            s = spoly(f, g, order)
            assert s is ZERO or reduce(s, gb, order) is ZERO
    leads = leading_monomials(gb)
    for i, lead in enumerate(leads):
        assert not any(divides(lead, other) for j, other in enumerate(leads) if j != i)
        assert not any(divides(lead, g.minus) for g in gb.elements)
    for g in gens:
        assert reduce(g, gb, order) is ZERO
