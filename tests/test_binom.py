import random

import pytest
from conftest import SMALL, cfg_of
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polytoric.binom import (
    _DEGREE_CAP,
    _Engine,
    DEGREVLEX,
    LEX,
    UNIT,
    ZERO,
    Binomial,
    Monomial,
    TermOrder,
    Variable,
    buchberger,
    certificate_is_exact,
    expand_certificate,
    parse_binomial,
    parse_monomial,
    r_var,
    reduce,
    s_var,
    spoly,
    t_var,
    vertex_var,
)
from polytoric.errors import ParseError, ResourceBudgetExceeded
from polytoric.grid import build_rect_diff, enumerate_inner_minors

# Generic variables x1..x8 for the classic examples; the default
# priority ranks later points higher.
X = {i: vertex_var((i, 1)) for i in range(1, 9)}


def mono(*indices) -> Monomial:
    exps = {}
    for i in indices:
        exps[X[i]] = exps.get(X[i], 0) + 1
    return Monomial(exps.items())


def bino(plus, minus) -> Binomial:
    return Binomial(mono(*plus), mono(*minus))


# -- monomials and orders ----------------------------------------------------

VAR_POOL = [vertex_var((1, 1)), vertex_var((1, 2)), vertex_var((2, 1)),
            r_var(1), t_var(3)]
monomials = st.builds(
    lambda exps: Monomial(zip(VAR_POOL, exps)),
    st.lists(st.integers(min_value=0, max_value=5),
             min_size=len(VAR_POOL), max_size=len(VAR_POOL)),
)


def test_monomial_basics():
    a = parse_monomial("x[1,1]^2*x[2,2]")
    assert a.degree == 3
    assert a.exponent(vertex_var((1, 1))) == 2
    assert str(a) == "x[1,1]^2*x[2,2]"
    assert str(UNIT) == "1"
    assert UNIT.is_unit and UNIT.degree == 0
    with pytest.raises(ValueError):
        Monomial([(r_var(1), -1)])


@given(a=monomials, b=monomials)
def test_monomial_algebra_laws(a, b):
    assert a * b == b * a
    assert b.divides(a * b)
    assert (a * b) / b == a
    assert a.lcm(b) * a.gcd(b) == a * b
    assert a.gcd(b).divides(a) and a.divides(a.lcm(b))


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
@given(a=monomials, b=monomials, c=monomials)
@settings(max_examples=200)
def test_order_laws(order, a, b, c):
    if a == b:
        assert not order.greater(a, b) and not order.greater(b, a)
    else:
        assert order.greater(a, b) != order.greater(b, a)
        if order.greater(a, b):
            assert order.greater(a * c, b * c)
    if not a.is_unit:
        assert order.greater(a, UNIT)


def test_degrevlex_known_comparisons():
    # ties in degree are broken by the smallest-priority variable with
    # the smaller exponent winning
    assert DEGREVLEX.greater(mono(2, 3), mono(1, 4))
    assert DEGREVLEX.greater(mono(1, 1, 1), mono(2, 3))  # degree dominates
    assert LEX.greater(mono(8), mono(7, 7, 7))


def test_lex_with_explicit_priority():
    order = TermOrder("lex", head=(X[1], X[2], X[3]))
    assert order.greater(mono(1, 4), mono(2, 3))  # x1 beats x2 at the head
    assert DEGREVLEX.greater(mono(2, 3), mono(1, 4))


# -- spoly -------------------------------------------------------------------


def test_spoly_self_is_zero():
    f = bino((1, 4), (2, 3))
    assert spoly(f, f, DEGREVLEX) is ZERO


def test_spoly_coprime_leads_reduce_to_zero():
    f = bino((1, 4), (2, 3))   # lead x2*x3 under default degrevlex
    g = bino((3, 6), (4, 5))   # lead x4*x5; supports disjoint
    s = spoly(f, g, DEGREVLEX)
    assert isinstance(s, Binomial)
    assert reduce(s, [f, g], DEGREVLEX) is ZERO


def test_spoly_shared_lead_variable():
    f = bino((1, 4), (2, 3))
    g = bino((1, 6), (2, 5))
    # Under lex with x1 > ... > x6 the leads are x1*x4 and x1*x6 with
    # lcm x1*x4*x6, giving x2*x3*x6 - x2*x4*x5 (hand expansion).
    lex = TermOrder("lex", head=tuple(X[i] for i in range(1, 7)))
    assert spoly(f, g, lex) == bino((2, 3, 6), (2, 4, 5))
    # Under the default degrevlex the leads are x2*x3 and x2*x5 with
    # lcm x2*x3*x5, giving x1*x4*x5 - x1*x3*x6 (hand expansion).
    assert spoly(f, g, DEGREVLEX) == bino((1, 4, 5), (1, 3, 6))


def test_spoly_outputs_stay_pure_difference():
    rng = random.Random(5)
    pool = [bino((1, 4), (2, 3)), bino((1, 6), (2, 5)), bino((3, 6), (4, 5)),
            bino((1, 1), (2, 3)), bino((5, 6), (1, 2))]
    for _ in range(50):
        f, g = rng.choice(pool), rng.choice(pool)
        s = spoly(f, g, DEGREVLEX)
        assert s is ZERO or isinstance(s, Binomial)


# -- reduce ------------------------------------------------------------------


def test_reduce_generator_by_itself():
    f = bino((2, 3), (1, 4))
    nf, cert = reduce(f, [f], DEGREVLEX, track=True)
    assert nf is ZERO
    assert len(cert.terms) == 1
    assert cert.terms[0].multiplier == UNIT
    assert cert.terms[0].sign == 1
    assert certificate_is_exact(cert)


def test_reduce_no_divisibility_returns_input():
    f = bino((5, 6), (7, 8))
    assert reduce(f, [bino((1, 2), (3, 4))], DEGREVLEX) == f


def test_reduce_zero_input():
    assert reduce(ZERO, [bino((1, 2), (3, 4))], DEGREVLEX) is ZERO


def test_reduce_kernel_cubic_small_instance():
    """Degree-3 kernel binomials of the small instance reduce to zero
    against the Groebner basis of its inner minors."""
    from polytoric.labelling import build_label_map
    from polytoric.toric import phi_image_from_labels

    cfg = cfg_of(SMALL)
    lm = build_label_map(cfg)
    gb = buchberger(enumerate_inner_minors(build_rect_diff(cfg)), DEGREVLEX)

    x = lambda i, j: Monomial([(vertex_var((i, j)), 1)])
    member = Binomial(
        x(1, 2) * x(2, 4) * x(4, 1), x(1, 4) * x(2, 1) * x(4, 2)
    )
    images = (
        phi_image_from_labels(member.plus, lm),
        phi_image_from_labels(member.minus, lm),
    )
    assert images[0] == images[1]
    assert str(images[0]) == "r[1]*r[2]*r[4]*s[1]*s[2]*s[4]*t[1]*t[2]^2"
    assert reduce(member, gb, DEGREVLEX) is ZERO

    # A monomial pairing with unbalanced labels is provably outside the
    # kernel, hence outside the ideal: its normal form is nonzero.
    outside = Binomial(
        x(1, 1) * x(2, 4) * x(4, 2), x(1, 2) * x(2, 1) * x(4, 4)
    )
    assert phi_image_from_labels(outside.plus, lm) != phi_image_from_labels(
        outside.minus, lm
    )
    assert reduce(outside, gb, DEGREVLEX) is not ZERO


def test_tracked_reduce_division_identity():
    """normal_form + sum(sign * mult * gen) == target, exponent-exact."""
    cfg = cfg_of(SMALL)
    minors = enumerate_inner_minors(build_rect_diff(cfg))
    gb = buchberger(minors, DEGREVLEX)
    rng = random.Random(99)
    from polytoric.labelling import build_label_map
    from polytoric.verify import kernel_binomials_up_to_degree

    pool = kernel_binomials_up_to_degree(build_label_map(cfg), 3)
    for f in rng.sample(pool, 40):
        nf, cert = reduce(f, gb, DEGREVLEX, track=True)
        total = expand_certificate(cert)
        if nf is not ZERO:
            for m, c in ((nf.plus, 1), (nf.minus, -1)):
                total[m] = total.get(m, 0) + c
                if not total[m]:
                    del total[m]
        assert total == {f.plus: 1, f.minus: -1}


# -- buchberger --------------------------------------------------------------


def test_buchberger_principal():
    f = bino((1, 4), (2, 3))
    gb = buchberger([f], DEGREVLEX)
    assert gb.elements == (f.normalized(DEGREVLEX),)


def test_buchberger_domino_minors_are_a_basis():
    """The three inner minors of the two-cell rectangle already form the
    reduced basis: every S-pair reduces to zero (checked directly)."""
    from polytoric.grid import Cell, GridPoint, Polyomino

    p = Polyomino.of([Cell(GridPoint(1, 1)), Cell(GridPoint(2, 1))])
    minors = enumerate_inner_minors(p)
    assert len(minors) == 3
    gb = buchberger(minors, DEGREVLEX)
    assert set(gb.elements) == {m.normalized(DEGREVLEX) for m in minors}
    for i in range(3):
        for j in range(i + 1, 3):
            s = spoly(minors[i], minors[j], DEGREVLEX)
            assert s is ZERO or reduce(s, minors, DEGREVLEX) is ZERO


def test_buchberger_linear_chain_lex():
    order = TermOrder("lex", head=(X[1], X[2], X[3]))
    gb = buchberger([bino((1,), (2,)), bino((2,), (3,))], order)
    assert set(gb.elements) == {bino((1,), (3,)), bino((2,), (3,))}


def test_buchberger_canonical_under_permutation():
    minors = enumerate_inner_minors(build_rect_diff(cfg_of(SMALL)))
    reference = buchberger(minors, DEGREVLEX).elements
    rng = random.Random(2)
    for _ in range(5):
        shuffled = list(minors)
        rng.shuffle(shuffled)
        assert buchberger(shuffled, DEGREVLEX).elements == reference


def test_buchberger_reduced_basis_properties():
    minors = enumerate_inner_minors(build_rect_diff(cfg_of(SMALL)))
    gb = buchberger(minors, DEGREVLEX)
    leads = gb.leading_monomials()
    for i, lm in enumerate(leads):
        for j, other in enumerate(leads):
            if i != j:
                assert not lm.divides(other)
    # tails are irreducible too
    for g in gb.elements:
        assert not any(lm.divides(g.minus) for lm in leads)
    # every generator is a member
    for m in minors:
        assert reduce(m, gb, DEGREVLEX) is ZERO


def test_buchberger_budget():
    minors = enumerate_inner_minors(build_rect_diff(cfg_of(SMALL)))
    with pytest.raises(ResourceBudgetExceeded):
        buchberger(minors, DEGREVLEX, budget=0)


def test_buchberger_tracked_constructions_are_exact():
    minors = enumerate_inner_minors(build_rect_diff(cfg_of(SMALL)))
    gb = buchberger(minors, DEGREVLEX, track=True)
    assert gb.construction is not None
    assert len(gb.construction) == len(gb.elements)
    for cert in gb.construction:
        assert certificate_is_exact(cert)
        assert all(t.generator in minors for t in cert.terms)


def test_ideal_equal():
    def same_ideal(gens1, gens2):
        return (buchberger(gens1, DEGREVLEX).elements
                == buchberger(gens2, DEGREVLEX).elements)

    f = bino((1, 4), (2, 3))
    assert same_ideal([f], [f])
    assert not same_ideal([bino((1,), (2,))], [bino((1,), (3,))])
    assert same_ideal(
        [bino((1,), (2,)), bino((2,), (3,))],
        [bino((1,), (3,)), bino((2,), (3,))],
    )


# -- packed engine -------------------------------------------------------------

# Ten variables of every kind; the engine universe is a prefix of it.
ENGINE_POOL = [vertex_var((i, j)) for i in (1, 2) for j in (1, 2, 3)] + [
    r_var(1), r_var(2), s_var(1), t_var(1)]


@st.composite
def engine_monomial_pairs(draw):
    """A universe of at most ten variables and two monomials over it,
    each exponent below 2**15 and each degree below the engine cap."""
    n = draw(st.integers(min_value=1, max_value=len(ENGINE_POOL)))
    universe = ENGINE_POOL[:n]

    def monomial():
        room = draw(st.integers(min_value=0, max_value=_DEGREE_CAP - 1))
        exps = []
        for v in universe:
            e = draw(st.one_of(st.just(0), st.integers(0, min(room, 3)),
                               st.integers(0, room)))
            room -= e
            exps.append((v, e))
        return Monomial(exps)

    return universe, monomial(), monomial()


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
@given(case=engine_monomial_pairs())
@settings(max_examples=300)
def test_packed_primitives_match_sparse_reference(order, case):
    universe, a, b = case
    engine = _Engine(universe, order)
    pa, pb = engine.pack(a), engine.pack(b)
    assert pa[0] == a.degree and engine.unpack(pa[1]) == a
    # The lcm may pass the cap (up to twice it), so compare it unpacked.
    lcm_deg, lcm = engine.lcm(pa[1], pb[1])
    assert engine.unpack(lcm) == a.lcm(b) and lcm_deg == a.lcm(b).degree
    assert engine.divides(pa[1], pb[1]) == a.divides(b)
    assert engine.divides(pb[1], pa[1]) == b.divides(a)
    coprime = engine.mask_of(pa[1]) & engine.mask_of(pb[1]) == 0
    assert coprime == a.gcd(b).is_unit
    assert engine.mask_of(pa[1]) | engine.mask_of(pb[1]) == engine.mask_of(lcm)


PERM_POOL = ENGINE_POOL[:6]


@st.composite
def homogeneous_binomials(draw):
    """Two distinct products of d variables each.  Homogeneous, like the
    inner minors, so no run comes near the degree cap."""
    d = draw(st.integers(min_value=1, max_value=3))
    factors = st.lists(st.sampled_from(PERM_POOL), min_size=d, max_size=d)
    plus, minus = draw(factors), draw(factors)
    assume(sorted(plus, key=Variable.sort_key) != sorted(minus, key=Variable.sort_key))
    return Binomial(*(Monomial((v, side.count(v)) for v in set(side))
                      for side in (plus, minus)))


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_buchberger_random_input_order_is_irrelevant(order, data):
    gens = data.draw(st.lists(homogeneous_binomials(), min_size=1, max_size=5))
    shuffled = data.draw(st.permutations(gens))
    assert buchberger(shuffled, order).elements == buchberger(gens, order).elements


# A = x[1,1]^21900 * x[1,2]^21900 * x[1,3]^21900: every field fits its 2**15
# limit, but the degree 65700 is past the engine's degree cap.
_HEAVY = "x[1,1]^21900*x[1,2]^21900*x[1,3]^21900"
_HEAVY_COPRIME = "x[2,1]^21900*x[2,2]^21900*x[2,3]^21900"


@pytest.mark.parametrize("gens", [
    # The lcm of the leads has degree 65702 = 167 (mod 0xFFFF).
    [f"{_HEAVY}*x[4,4] - x[5,5]", f"{_HEAVY}*x[4,5] - x[5,6]"],
    # Coprime leads: the pair is never formed, so only pack sees the degree.
    [f"{_HEAVY}*x[4,4] - x[5,5]", f"{_HEAVY_COPRIME}*x[4,5] - x[5,6]"],
])
def test_buchberger_degree_past_cap_raises(gens):
    with pytest.raises(ResourceBudgetExceeded):
        buchberger([parse_binomial(g) for g in gens], DEGREVLEX)


# -- binomial type and text syntax -------------------------------------------


def test_zero_binomial_rejected():
    with pytest.raises(ValueError):
        Binomial(mono(1, 2), mono(1, 2))
    assert repr(ZERO) == "Zero"
    assert not ZERO


def test_normalized_orients_leading_monomial():
    f = bino((1, 4), (2, 3))
    assert f.normalized(DEGREVLEX).plus == mono(2, 3)
    lex = TermOrder("lex", head=tuple(X[i] for i in range(1, 5)))
    assert f.normalized(lex).plus == mono(1, 4)


def test_parse_format_round_trip():
    text = "x[1,1]*x[2,2] - x[1,2]*x[2,1]"
    b = parse_binomial(text)
    assert str(b) == text
    powered = parse_binomial("x[1,2]^2*r[3] - t[1]^3")
    assert parse_binomial(str(powered)) == powered
    assert parse_monomial("1") == UNIT
    assert parse_monomial("x[1,1] ^ 2") == parse_monomial("x[1,1]*x[1,1]")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "x[1,1]",                      # not a binomial
        "x[1] - x[2]",                 # vertex variables need two indices
        "r[1,2] - s[1]",               # target variables take one index
        "x[1,1] - x[1,1]",             # zero binomial
        "x[1,1] - x[2,2] - x[3,3]",    # too many terms
        "y[1] - x[1,1]",
        "x[1,1]^0 - x[2,2]",
    ],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_binomial(bad)


def test_variable_display_and_order():
    assert str(vertex_var((3, 4))) == "x[3,4]"
    assert str(r_var(2)) == "r[2]"
    vs = sorted([vertex_var((1, 2)), r_var(5), t_var(1)], key=Variable.sort_key)
    assert [v.kind for v in vs] == ["r", "t", "x"]
    with pytest.raises(ValueError):
        Variable("q", 1)
