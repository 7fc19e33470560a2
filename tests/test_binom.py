import copy
import pickle
import random

import pytest
from conftest import MEDIUM_A, SMALL, cfg_of
from helpers import (
    divides,
    exponent,
    gcd,
    greater,
    is_unit,
    lcm,
    leading_monomials,
    normalized,
    priority_sorted,
    quotient,
    reference_gm_update,
    spoly,
    standard_monomial_counts,
    variable_sort_key,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polytoric.binom import (
    _DEGREE_CAP,
    _GUARD,
    _Basis,
    _Elem,
    _Engine,
    _field_map,
    _gm_update,
    _low_hilbert,
    _repack,
    DEGREVLEX,
    LEX,
    UNIT,
    ZERO,
    Binomial,
    GroebnerBasis,
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
    saturate,
    t_var,
    vertex_var,
)
from polytoric.errors import ParseError, ResourceBudgetExceeded
from polytoric.grid import build_rect_diff, enumerate_inner_minors
from polytoric.verify import MembershipCertifier

# Generic variables x1..x8 for the classic examples; the default
# priority ranks later points higher.
X = {i: vertex_var((i, 1)) for i in range(1, 9)}


def lex_first(*indices) -> TermOrder:
    """Lex with x_i > x_j for i before j in ``indices``: the listed
    variables demoted in that order, so over a universe inside them they
    are the whole priority."""
    return TermOrder("lex", last=tuple(X[i] for i in indices))


def mono(*indices) -> Monomial:
    return Monomial((X[i], 1) for i in indices)


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
    assert exponent(a, vertex_var((1, 1))) == 2
    assert str(a) == "x[1,1]^2*x[2,2]"
    assert str(UNIT) == "1"
    assert is_unit(UNIT) and UNIT.degree == 0
    with pytest.raises(ValueError):
        Monomial([(r_var(1), -1)])


def test_monomial_merges_a_repeated_variable():
    v = vertex_var((1, 1))
    twice, squared = Monomial([(v, 1), (v, 1)]), Monomial([(v, 2)])
    assert twice == squared and hash(twice) == hash(squared)
    assert tuple(twice) == ((v, 2),)
    assert tuple(Monomial([(v, 1), (r_var(1), 0), (v, 2)])) == ((v, 3),)
    with pytest.raises(ValueError):
        Binomial(twice, squared)
    with pytest.raises(ValueError):
        Monomial([(v, 2), (v, -1)])


def test_term_order_rejects_a_variable_listed_twice():
    x11 = vertex_var((1, 1))
    with pytest.raises(ValueError):
        TermOrder("lex", last=(x11, x11))
    with pytest.raises(ValueError):
        TermOrder("degrevlex", last=(x11, vertex_var((1, 2)), x11))
    assert TermOrder("lex", last=(x11,)).last == (x11,)


@given(a=monomials, b=monomials)
def test_monomial_algebra_laws(a, b):
    assert a * b == b * a
    assert divides(b, a * b)
    assert quotient(a * b, b) == a
    assert lcm(a, b) * gcd(a, b) == a * b
    assert divides(gcd(a, b), a) and divides(a, lcm(a, b))


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
@given(a=monomials, b=monomials, c=monomials)
@settings(max_examples=200)
def test_order_laws(order, a, b, c):
    if a == b:
        assert not greater(order, a, b) and not greater(order, b, a)
    else:
        assert greater(order, a, b) != greater(order, b, a)
        if greater(order, a, b):
            assert greater(order, a * c, b * c)
    if not is_unit(a):
        assert greater(order, a, UNIT)


def test_degrevlex_known_comparisons():
    # ties in degree are broken by the smallest-priority variable with
    # the smaller exponent winning
    assert greater(DEGREVLEX, mono(2, 3), mono(1, 4))
    assert greater(DEGREVLEX, mono(1, 1, 1), mono(2, 3))  # degree dominates
    assert greater(LEX, mono(8), mono(7, 7, 7))


def test_lex_with_explicit_priority():
    order = lex_first(1, 2, 3, 4)
    assert greater(order, mono(1, 4), mono(2, 3))  # x1 ranks first
    assert greater(DEGREVLEX, mono(2, 3), mono(1, 4))


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
    lex = lex_first(1, 2, 3, 4, 5, 6)
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
    from polytoric.toric import phi_image

    cfg = cfg_of(SMALL)
    lm = build_label_map(cfg)
    gb = buchberger(enumerate_inner_minors(build_rect_diff(cfg)), DEGREVLEX)

    x = lambda i, j: Monomial([(vertex_var((i, j)), 1)])
    member = Binomial(
        x(1, 2) * x(2, 4) * x(4, 1), x(1, 4) * x(2, 1) * x(4, 2)
    )
    images = (phi_image(member.plus, lm), phi_image(member.minus, lm))
    assert images[0] == images[1]
    assert str(images[0]) == "r[1]*r[2]*r[4]*s[1]*s[2]*s[4]*t[1]*t[2]^2"
    assert reduce(member, gb, DEGREVLEX) is ZERO

    # A monomial pairing with unbalanced labels is provably outside the
    # kernel, hence outside the ideal: its normal form is nonzero.
    outside = Binomial(
        x(1, 1) * x(2, 4) * x(4, 2), x(1, 2) * x(2, 1) * x(4, 4)
    )
    assert phi_image(outside.plus, lm) != phi_image(outside.minus, lm)
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
    # The same basis with every element written trail first.
    flipped = [Binomial(g.minus, g.plus) for g in gb.elements]
    for f in rng.sample(pool, 40):
        for basis in (gb, flipped):
            nf, cert = reduce(f, basis, DEGREVLEX, track=True)
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
    assert gb.elements == (normalized(f, DEGREVLEX),)


def test_buchberger_domino_minors_are_a_basis():
    """The three inner minors of the two-cell rectangle already form the
    reduced basis: every S-pair reduces to zero (checked directly)."""
    from polytoric.grid import GridPoint, Polyomino

    p = Polyomino.of([GridPoint(1, 1), GridPoint(2, 1)])
    minors = enumerate_inner_minors(p)
    assert len(minors) == 3
    gb = buchberger(minors, DEGREVLEX)
    assert set(gb.elements) == {normalized(m, DEGREVLEX) for m in minors}
    for i in range(3):
        for j in range(i + 1, 3):
            s = spoly(minors[i], minors[j], DEGREVLEX)
            assert s is ZERO or reduce(s, minors, DEGREVLEX) is ZERO


def test_buchberger_linear_chain_lex():
    order = lex_first(1, 2, 3)
    gb = buchberger([bino((1,), (2,)), bino((2,), (3,))], order)
    assert set(gb.elements) == {bino((1,), (3,)), bino((2,), (3,))}


def test_buchberger_lex_elements_sorted_by_degree_first():
    order = lex_first(1, 2, 3)
    linear = bino((1,), (3,))
    cubic = bino((2, 2, 2), (3, 3, 3))
    # x1 > x2^3 under this lex order, yet the linear element comes first.
    assert greater(order, linear.plus, cubic.plus)
    assert buchberger([linear, cubic], order).elements == (linear, cubic)
    assert buchberger([cubic, linear], order).elements == (linear, cubic)


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
    leads = leading_monomials(gb)
    for i, lm in enumerate(leads):
        for j, other in enumerate(leads):
            if i != j:
                assert not divides(lm, other)
    # tails are irreducible too
    for g in gb.elements:
        assert not any(divides(lm, g.minus) for lm in leads)
    # every generator is a member
    for m in minors:
        assert reduce(m, gb, DEGREVLEX) is ZERO


def test_buchberger_budget():
    minors = enumerate_inner_minors(build_rect_diff(cfg_of(SMALL)))
    with pytest.raises(ResourceBudgetExceeded):
        buchberger(minors, DEGREVLEX, budget=0)


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
    """An ascending universe of at most ten variables, as the engine
    takes it, and two monomials over it, each exponent below 2**15 and
    each degree below the engine cap."""
    n = draw(st.integers(min_value=1, max_value=len(ENGINE_POOL)))
    universe = sorted(ENGINE_POOL[:n])

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


@pytest.mark.parametrize("order", [
    DEGREVLEX,
    LEX,
    TermOrder("degrevlex", last=(ENGINE_POOL[0],)),  # a saturation step
    # Lex with two variables demoted against their default ranks.
    TermOrder("lex", last=(ENGINE_POOL[0], ENGINE_POOL[2])),
])
@given(case=engine_monomial_pairs())
@settings(max_examples=300)
def test_packed_primitives_match_sparse_reference(order, case):
    universe, a, b = case
    engine = _Engine(universe, order)
    pa, pb = engine.pack(a), engine.pack(b)
    assert pa[0] == a.degree and engine.unpack(pa[1]) == a
    assert hash(engine.unpack(pa[1])) == hash(a)
    # The packed order, which orients every binomial the engine sees,
    # against the sparse reference.  A rotation c of a's exponents has
    # a's degree, so degrevlex always reaches its tie-break on (a, c).
    exps = [exponent(a, v) for v in universe]
    c = Monomial(zip(universe, exps[1:] + exps[:1]))
    for x, y in ((a, b), (b, a), (a, c), (c, a)):
        assert engine.greater(engine.pack(x), engine.pack(y)) == greater(order, x, y)
    # The lcm may pass the cap (up to twice it), so compare it unpacked.
    lcm_deg, packed_lcm = engine.lcm(pa[1], pb[1])
    assert engine.unpack(packed_lcm) == lcm(a, b) and lcm_deg == lcm(a, b).degree
    # The guard-bit divisibility test of the reducer index; the engine
    # never holds a unit lead.
    ma, mb = engine.mask_of(pa[1]), engine.mask_of(pb[1])
    for x, y, px, py, my in ((a, b, pa, pb, mb), (b, a, pb, pa, ma)):
        if x:
            held = _Basis(engine)
            held.append(_Elem(engine, px + (0, 0)))
            assert (held.find_reducer(py[0], py[1], my) == 0) == divides(x, y)
    coprime = ma & mb == 0
    assert coprime == is_unit(gcd(a, b))
    assert ma | mb == engine.mask_of(packed_lcm)


PERM_POOL = ENGINE_POOL[:6]


@st.composite
def homogeneous_binomials(draw):
    """Two distinct products of d variables each.  Homogeneous, like the
    inner minors, so no run comes near the degree cap."""
    d = draw(st.integers(min_value=1, max_value=3))
    factors = st.lists(st.sampled_from(PERM_POOL), min_size=d, max_size=d)
    plus, minus = draw(factors), draw(factors)
    assume(sorted(plus) != sorted(minus))
    return Binomial(*(Monomial((v, side.count(v)) for v in set(side))
                      for side in (plus, minus)))


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_buchberger_random_input_order_is_irrelevant(order, data):
    gens = data.draw(st.lists(homogeneous_binomials(), min_size=1, max_size=5))
    shuffled = data.draw(st.permutations(gens))
    assert buchberger(shuffled, order).elements == buchberger(gens, order).elements


@pytest.mark.parametrize("order", [DEGREVLEX, LEX, TermOrder("degrevlex", last=(PERM_POOL[0],))])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_saturate_from_a_groebner_basis_ends_in_its_order(order, data):
    """Saturated from ``buchberger(gens, order)``, the result is the
    reduced basis in that order of the saturation from the plain list,
    whether a step takes the given basis as its own or not, and whether
    a division grows the ideal or none does."""
    gens = data.draw(st.lists(homogeneous_binomials(), min_size=1, max_size=5))
    variables = data.draw(st.lists(st.sampled_from(PERM_POOL), min_size=1, max_size=3,
                                   unique=True))
    expected = buchberger(saturate(gens, variables), order).elements
    assert tuple(saturate(buchberger(gens, order), variables)) == expected


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
def test_saturate_from_a_groebner_basis_of_inhomogeneous_input(order):
    gens = [parse_binomial(g) for g in (
        "r[2]*r[3] - r[1]^2*r[3]",
        "r[1]*r[2]^2*r[3]^2 - r[1]*r[2]*r[4]",
        "r[1]*r[2]*r[3]^2 - r[2]^2*r[4]",
    )]
    variables = [r_var(1), r_var(2)]
    expected = buchberger(saturate(gens, variables), order).elements
    assert tuple(saturate(buchberger(gens, order), variables)) == expected


def test_a_grown_ideal_is_finished_by_counting(monkeypatch):
    """x1 (x2 - x3) saturated by x1 from its degrevlex basis: the one
    step is laid out as degrevlex (x1 is its lowest variable) and takes
    the basis as given, its division leaves x3 - x2, and the last step,
    in degrevlex, only interreduces, since its counts agree: no
    Buchberger run at all."""
    gb = buchberger([bino((1, 2), (1, 3))])
    runs = []
    monkeypatch.setattr("polytoric.binom._run_buchberger", lambda *args: runs.append(args))
    assert saturate(gb, [X[1]]) == [bino((3,), (2,))]
    assert runs == []


# Inhomogeneous lex input near the degree cap: 60 of the 120 input orders
# return the basis below, the other 60 pass the cap on the way.
_LEX_NEAR_CAP = [
    "1 - x[1,1]^2*x[2,1]^2*x[2,3]",
    "x[2,2] - x[1,3]*x[2,1]^2*x[2,3]",
    "x[2,2] - x[1,3]^2*x[2,2]^2*x[2,3]",
    "x[2,1] - x[1,1]*x[1,2]*x[1,3]*x[2,3]^2",
    "x[2,2] - x[1,1]*x[1,2]*x[1,3]^2*x[2,1]^2*x[2,2]^2",
]


def test_buchberger_input_order_decides_only_whether_it_returns():
    gens = [parse_binomial(g) for g in _LEX_NEAR_CAP]
    assert [str(g) for g in buchberger(gens, LEX).elements] == [
        "x[1,3] - x[1,1]^4*x[1,2]^4",
        "x[2,1] - x[1,1]^4*x[1,2]^6",
        "x[2,2] - x[1,1]^2*x[1,2]^4",
        "x[2,3] - x[1,1]^9*x[1,2]^13",
        "x[1,1]^19*x[1,2]^25 - 1",
    ]
    with pytest.raises(ResourceBudgetExceeded, match="degree cap"):
        buchberger([gens[1], gens[0]] + gens[2:], LEX)


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


# -- Hilbert function counts -------------------------------------------------

SERIES_POOL = ENGINE_POOL[:6]


def packed(engine, exps) -> int:
    return engine.pack(Monomial(zip(engine.vars, exps)))[1]


@st.composite
def low_degree_leads(draw):
    """At most six variables and up to sixteen leads of degree 1 to 4, as
    exponent tuples: linear leads, squares, cubics, repeated leads, and
    leads times one more variable, which the leads divide."""
    n = draw(st.integers(min_value=1, max_value=len(SERIES_POOL)))
    var = st.integers(0, n - 1)
    picks = draw(st.lists(st.lists(var, min_size=1, max_size=3), max_size=8))
    picks += [pick + [draw(var)] for pick in picks if draw(st.booleans())]
    if picks:
        picks += draw(st.lists(st.sampled_from(picks), max_size=2))
    return n, [tuple(pick.count(i) for i in range(n)) for pick in picks]


@given(ideal=low_degree_leads(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_low_hilbert_counts_the_standard_monomials(ideal, data):
    """HF(1), HF(2) and HF(3) by counting are the brute-force numbers of
    standard monomials, in any layout."""
    n, gens = ideal
    universe = SERIES_POOL[:n]
    engine = _Engine(universe, TermOrder("degrevlex", last=tuple(
        data.draw(st.lists(st.sampled_from(universe), unique=True)))))
    leads = [packed(engine, g) for g in gens]
    assert _low_hilbert(engine, leads) == tuple(standard_monomial_counts(gens, n, 3)[1:])


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_move_last_matches_repacking(data):
    """``_repack`` moves a monomial between the degrevlex layouts of two
    arbitrary ``last`` blocks over one universe."""
    n = data.draw(st.integers(min_value=1, max_value=len(ENGINE_POOL)))
    universe = sorted(ENGINE_POOL[:n])
    blocks = [tuple(data.draw(st.permutations(universe))[:data.draw(st.integers(0, n))])
              for _ in range(2)]
    mono = Monomial(zip(universe, data.draw(st.lists(
        st.integers(0, 40), min_size=n, max_size=n))))
    src, dst = (_Engine(universe, TermOrder("degrevlex", last=last)) for last in blocks)
    assert _repack(src.pack(mono)[1], _field_map(src, dst), src.H) == dst.pack(mono)[1]


@pytest.mark.parametrize("order", [
    DEGREVLEX,
    LEX,
    TermOrder("degrevlex", last=(ENGINE_POOL[3],)),
    TermOrder("lex", last=(ENGINE_POOL[0], ENGINE_POOL[8])),
])
def test_engine_fields_follow_priority(order):
    """Over an ascending universe, the one pass in ``_Engine`` puts the
    variables in the fields that sorting them by priority gives: under
    degrevlex the highest priority in field 0, under lex at the top."""
    universe = sorted(ENGINE_POOL)
    engine = _Engine(universe, order)
    fields = [engine.shift[engine.index[v]] // 16 for v in priority_sorted(order, universe)]
    n = len(universe)
    assert fields == (list(range(n)) if order.kind == "degrevlex" else list(range(n))[::-1])


def test_engine_rejects_a_universe_that_does_not_ascend():
    """The layout reads priority off the universe's order, so an unsorted
    one would lay out another term order; it is refused, and so is a
    repeated variable."""
    x11, r1 = vertex_var((1, 1)), r_var(1)
    for universe in ([x11, r1], [r1, x11, x11], [r1, r1]):
        with pytest.raises(ValueError, match="strictly ascending"):
            _Engine(universe, DEGREVLEX)
    engine = _Engine([r1, x11], DEGREVLEX)
    a, b = Monomial([(x11, 1)]), Monomial([(r1, 1)])
    assert greater(DEGREVLEX, a, b)
    assert engine.greater(engine.pack(a), engine.pack(b))


# -- reducer index -------------------------------------------------------------

def small_monomials_over(pool):
    return st.builds(
        lambda exps: Monomial(zip(pool, exps)),
        st.lists(st.integers(min_value=0, max_value=2),
                 min_size=len(pool), max_size=len(pool)),
    )


REDUCER_POOL = ENGINE_POOL[:5]
# Exponents up to 2 over five variables: leads collide, divide one another
# and share variables, so several buckets hold a divisor of one monomial.
small_monomials = small_monomials_over(REDUCER_POOL)


@pytest.mark.parametrize("order", [
    DEGREVLEX,
    LEX,
    TermOrder("degrevlex", last=(REDUCER_POOL[1],)),
])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_find_reducer_matches_linear_scan(order, data):
    """The bucketed index returns what a linear scan in reducer-key order
    returns: the first element whose lead divides the monomial."""
    pairs = data.draw(st.lists(st.tuples(small_monomials, small_monomials)
                               .filter(lambda p: p[0] != p[1]),
                               min_size=1, max_size=12))
    engine = _Engine(REDUCER_POOL, order)
    basis = _Basis(engine)
    for plus, minus in pairs:
        basis.append(_Elem(engine, engine.orient(Binomial(plus, minus))[0]))
    leads = [engine.unpack(e.lp) for e in basis.elems]
    ranked = sorted(range(len(leads)),
                    key=lambda k: engine.sort_key(*engine.pack(leads[k])) + (k,))
    queries = data.draw(st.lists(small_monomials, max_size=8))
    for t in queries + [a * b for a in leads[:3] for b in leads[:3]]:
        expected = next((k for k in ranked if divides(leads[k], t)), -1)
        deg, packed = engine.pack(t)
        assert basis.find_reducer(deg, packed, engine.mask_of(packed)) == expected


# -- pair update ---------------------------------------------------------------

UPDATE_POOL = ENGINE_POOL[:6]
update_monomials = small_monomials_over(UPDATE_POOL)


def assert_occurrences_match_leads(engine, basis):
    """Each variable's occurrence list is the ascending list of the
    elements whose lead holds it, found by a linear scan."""
    expected = {}
    for k, e in enumerate(basis.elems):
        for v, _ in engine.unpack(e.lp):
            expected.setdefault(_GUARD << engine.shift[engine.index[v]], []).append(k)
    assert basis.occurs == expected


@pytest.mark.parametrize("order", [
    DEGREVLEX,
    LEX,
    TermOrder("degrevlex", last=(UPDATE_POOL[2],)),
])
@given(pairs=st.lists(st.tuples(update_monomials, update_monomials)
                      .filter(lambda p: p[0] != p[1]), min_size=1, max_size=14))
@settings(max_examples=300, deadline=None)
def test_gm_update_queues_the_pairs_of_the_full_walk(order, pairs):
    """Fed the same unreduced binomials, the update that reads the
    occurrence index and the reference that gives every element a
    quotient hold the same queue after every update."""
    engine = _Engine(UPDATE_POOL, order)
    basis, reference = _Basis(engine), _Basis(engine)
    heap, reference_heap = [], []
    for plus, minus in pairs:
        b4 = engine.orient(Binomial(plus, minus))[0]
        _gm_update(engine, basis, heap, b4)
        reference_gm_update(engine, reference, reference_heap, b4)
        assert sorted(heap) == sorted(reference_heap)
        assert_occurrences_match_leads(engine, basis)


def test_gm_update_coprime_lead_check():
    """Leads a and a*c, then the new lead c.  Only a*c shares a variable
    with c, and its quotient a is divided by no other quotient, so only
    the reducer-index check, which finds the coprime lead a, keeps the
    pair (a*c, c) off the queue.  The full walk drops it too: a and a*c
    share the quotient a, and a is coprime to c."""
    a, c = X[2], X[3]
    engine = _Engine([X[1], a, c], DEGREVLEX)
    gens = [bino((2,), (1,)), bino((2, 3), (1, 1)), bino((3,), (1,))]
    oriented = [engine.orient(g) for g in gens]
    assert all(flip == 1 for _, flip in oriented)
    basis, reference = _Basis(engine), _Basis(engine)
    heap, reference_heap = [], []
    checks = []

    def spy(deg, packed, mask):
        found = _Basis.find_reducer(basis, deg, packed, mask)
        checks.append((engine.unpack(packed), found))
        return found

    basis.find_reducer = spy
    for b4, _ in oriented:
        _gm_update(engine, basis, heap, b4)
        reference_gm_update(engine, reference, reference_heap, b4)
    assert basis.occurs[_GUARD << engine.shift[engine.index[c]]] == [1, 2]
    assert checks[-1] == (Monomial([(a, 1)]), 0)
    assert sorted(heap) == sorted(reference_heap)
    assert [(i, j) for _, i, j, _ in heap] == [(0, 1)]


# Leads of degree 1 to 4 over four variables: enough overlap that
# criterion B holds for many pairs.
BOUND_POOL = ENGINE_POOL[:4]
bound_leads = st.builds(
    lambda exps: Monomial(zip(BOUND_POOL, exps)),
    st.lists(st.integers(min_value=0, max_value=2),
             min_size=len(BOUND_POOL), max_size=len(BOUND_POOL)),
).filter(lambda m: 1 <= m.degree <= 4)


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
@given(leads=st.lists(bound_leads, min_size=2, max_size=10))
@settings(max_examples=200, deadline=None)
def test_criterion_b_needs_lcm_degree_two_above_the_lowest_lead(order, leads):
    """``dominated``, called on every pair with no degree guard, agrees
    with criterion B read off the sparse leads, and holds only for lcm
    degrees of at least ``min_ld`` + 2, the bound ``_run_buchberger``
    tests before it calls it."""
    engine = _Engine(BOUND_POOL, order)
    basis = _Basis(engine)
    for lead in leads:
        deg, packed = engine.pack(lead)
        basis.append(_Elem(engine, (deg, packed, 0, 0)))
    assert basis.min_ld == min(lead.degree for lead in leads)
    for j in range(len(leads)):
        for i in range(j):
            big = lcm(leads[i], leads[j])
            expected = any(
                divides(leads[m], big) and lcm(leads[i], leads[m]) != big
                and lcm(leads[j], leads[m]) != big
                for m in range(j + 1, len(leads)))
            deg, lpk = engine.lcm(basis.elems[i].lp, basis.elems[j].lp)
            assert basis.dominated(i, j, lpk) == expected
            if expected:
                assert deg >= basis.min_ld + 2


def test_criterion_b_fires_at_the_degree_bound(monkeypatch):
    """The bound is tight.  Under degrevlex the leads are x4*x5, x2*x5
    and x5.  Their first pair (lcm degree 3) waits while the linear lead
    x5 joins, and criterion B drops it through that lead, at lcm degree
    exactly ``min_ld`` + 2.  A higher guard in ``_run_buchberger`` would
    reduce that pair."""
    seen = []
    real = _Basis.dominated

    def spy(basis, i, j, lpk):
        hit = real(basis, i, j, lpk)
        seen.append((i, j, lpk % 0xFFFF - basis.min_ld, hit))
        return hit

    monkeypatch.setattr(_Basis, "dominated", spy)
    gens = [bino((1, 2), (4, 5)), bino((1, 4), (2, 5)), bino((5,), (3,))]
    assert [normalized(g, DEGREVLEX).plus for g in gens] == [
        mono(4, 5), mono(2, 5), mono(5)]
    buchberger(gens)
    assert (0, 1, 2, True) in seen


# -- packed basis memo ---------------------------------------------------------


def assert_memo_matches_list(f, gb, order):
    """reduce against the GroebnerBasis, whose packed form is memoized,
    gives what it gives against the same elements as a plain list,
    which is packed afresh on every call: untracked and tracked."""
    plain = list(gb.elements)
    assert reduce(f, gb, order) == reduce(f, plain, order)
    nf, cert = reduce(f, gb, order, track=True)
    nf_plain, cert_plain = reduce(f, plain, order, track=True)
    assert nf == nf_plain
    assert cert.terms == cert_plain.terms


def kernel_and_mixed(coords, k, seed):
    """k kernel binomials of degree <= 3 of an instance (normal form
    zero), and k binomials that pair the plus side of one with the minus
    side of another (mostly a nonzero normal form)."""
    from polytoric.labelling import build_label_map
    from polytoric.verify import kernel_binomials_up_to_degree

    pool = kernel_binomials_up_to_degree(build_label_map(cfg_of(coords)), 3)
    rng = random.Random(seed)
    kernel = rng.sample(pool, k)
    mixed = [Binomial(f.plus, g.minus)
             for f, g in zip(kernel, rng.sample(pool, k)) if f.plus != g.minus]
    return kernel + mixed


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_memo_matches_list_on_random_sets(order, data):
    gens = data.draw(st.lists(homogeneous_binomials(), min_size=1, max_size=5))
    fs = data.draw(st.lists(homogeneous_binomials(), min_size=1, max_size=6))
    gb = buchberger(gens, order)
    for f in fs:
        assert_memo_matches_list(f, gb, order)


@pytest.mark.parametrize("coords", [SMALL, MEDIUM_A])
@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
def test_reduce_memo_matches_list_on_instances(coords, order):
    minors = enumerate_inner_minors(build_rect_diff(cfg_of(coords)))
    gb = buchberger(minors, order)
    fs = kernel_and_mixed(coords, 25, seed=5)
    for f in fs:
        assert_memo_matches_list(f, gb, order)
    assert all(reduce(f, gb, order) is ZERO for f in fs[:25])  # I_P = J_P
    assert any(reduce(f, gb, order) is not ZERO for f in fs[25:])


@pytest.mark.parametrize("orders", [(DEGREVLEX, LEX), (LEX, DEGREVLEX)])
def test_reduce_memo_keeps_one_packed_form_per_order(orders):
    minors = enumerate_inner_minors(build_rect_diff(cfg_of(SMALL)))
    gb = buchberger(minors, DEGREVLEX)
    fs = kernel_and_mixed(SMALL, 15, seed=8)
    plain = list(gb.elements)
    # The two orders give different normal forms, so a packed form
    # reused across them would show.
    assert any(reduce(f, plain, DEGREVLEX) != reduce(f, plain, LEX) for f in fs)
    for _ in range(2):
        for order in orders:
            for f in fs:
                assert_memo_matches_list(f, gb, order)


def test_reduce_memo_with_variables_outside_the_basis():
    minors = enumerate_inner_minors(build_rect_diff(cfg_of(SMALL)))
    inside = kernel_and_mixed(SMALL, 5, seed=3)
    extra = Monomial([(vertex_var((9, 9)), 2), (r_var(1), 1)])
    outside = [Binomial(f.plus * extra, f.minus) for f in inside] + [
        Binomial(f.plus * extra, f.minus * extra) for f in inside]
    # Either call sequence: the first call packs the basis, over the
    # variables of its own f.
    for first, then in ((inside, outside), (outside, inside)):
        gb = buchberger(minors, DEGREVLEX)
        for f in first + then + first:
            assert_memo_matches_list(f, gb, DEGREVLEX)
    # A kernel binomial times extra on both sides stays in the ideal.
    assert reduce(outside[len(inside)], gb, DEGREVLEX) is ZERO


def test_groebner_basis_equality_ignores_the_memo():
    minors = enumerate_inner_minors(build_rect_diff(cfg_of(SMALL)))
    gb = buchberger(minors, DEGREVLEX)
    fresh = GroebnerBasis(gb.order, gb.elements)
    for order in (DEGREVLEX, LEX):
        for f in minors:
            reduce(f, gb, order)
    assert gb == fresh and hash(gb) == hash(fresh)
    assert repr(gb) == repr(fresh)


# -- binomial type and text syntax -------------------------------------------


@pytest.mark.parametrize("entry", [
    buchberger,
    lambda gens: saturate(gens, [X[1]]),
    lambda gens: saturate(gens, []),
    lambda gens: reduce(bino((1,), (2,)), gens),
    lambda gens: reduce(ZERO, gens),
], ids=["buchberger", "saturate", "saturate_no_variables", "reduce", "reduce_zero"])
@pytest.mark.parametrize("bad", [ZERO, "x[1,1] - x[2,1]"], ids=["zero", "text"])
def test_engine_entries_reject_a_non_binomial_generator(entry, bad):
    with pytest.raises(ValueError, match="generators must be nonzero binomials"):
        entry([bino((1, 2), (3, 4)), bad])


def test_zero_binomial_rejected():
    with pytest.raises(ValueError):
        Binomial(mono(1, 2), mono(1, 2))
    assert repr(ZERO) == "Zero"
    assert not ZERO


def test_value_texts_are_pinned():
    """The str and repr of monomials, binomials and a basis, and the
    zero-binomial message, as the reports and the CLI print them."""
    m = parse_monomial("x[1,1]*x[2,2]")
    assert (str(m), repr(m)) == ("x[1,1]*x[2,2]", "Monomial(x[1,1]*x[2,2])")
    assert (str(UNIT), repr(UNIT)) == ("1", "Monomial(1)")
    b = parse_binomial("x[1,1]*x[2,2] - x[1,2]*x[2,1]")
    assert str(b) == "x[1,1]*x[2,2] - x[1,2]*x[2,1]"
    assert repr(b) == "Binomial(x[1,1]*x[2,2] - x[1,2]*x[2,1])"
    with pytest.raises(ValueError) as exc:
        Binomial(m, m)
    assert str(exc.value) == "zero binomial: use the ZERO sentinel instead"
    assert repr(GroebnerBasis(DEGREVLEX, (b,))) == (
        "GroebnerBasis(order=TermOrder(kind='degrevlex', last=()), "
        "elements=(Binomial(x[1,1]*x[2,2] - x[1,2]*x[2,1]),))"
    )


def test_normalized_orients_leading_monomial():
    f = bino((1, 4), (2, 3))
    assert normalized(f, DEGREVLEX).plus == mono(2, 3)
    assert normalized(f, lex_first(1, 2, 3, 4)).plus == mono(1, 4)


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
    vs = sorted([vertex_var((1, 2)), r_var(5), t_var(1)])
    assert [v.kind for v in vs] == ["r", "t", "x"]
    with pytest.raises(ValueError):
        Variable("q", 1)


variables = st.builds(
    Variable,
    st.sampled_from("rstx"),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
)


@given(vs=st.lists(variables, unique=True, max_size=12), data=st.data())
def test_variable_order_is_the_rank_order(vs, data):
    """The dataclass field order is the variable order: kind r < s < t <
    x, then i, then j.  Monomial factors, and so every engine universe
    and packed layout, follow it."""
    assert sorted(vs) == sorted(vs, key=variable_sort_key)
    shuffled = data.draw(st.permutations(vs))
    exps = [(v, k + 1) for k, v in enumerate(vs)]
    by_v = dict(exps)
    assert tuple(Monomial([(v, by_v[v]) for v in shuffled])) == tuple(
        sorted(exps, key=lambda p: variable_sort_key(p[0])))


@given(vs=st.lists(variables, min_size=1, max_size=12))
def test_variable_is_a_value_type(vs):
    """A variable is the tuple (kind, i, j): it hashes and sorts as that
    tuple, prints as before, refuses bad fields and assignment, holds no
    per-instance dict, and survives pickle and deepcopy."""
    from polytoric.grid import GridPoint

    fields = [(v.kind, v.i, v.j) for v in vs]
    assert [hash(v) for v in vs] == [hash(f) for f in fields]
    assert sorted(vs) == [Variable(*f) for f in sorted(fields)]
    restored = pickle.loads(pickle.dumps(vs))
    assert restored == vs and all(type(v) is Variable for v in restored)
    assert copy.deepcopy(vs) == vs
    v = vs[0]
    assert repr(v) == f"Variable(kind={v.kind!r}, i={v.i!r}, j={v.j!r})"
    assert str(v) == (f"x[{v.i},{v.j}]" if v.kind == "x" else f"{v.kind}[{v.i}]")
    assert not hasattr(v, "__dict__")
    with pytest.raises(AttributeError):
        v.kind = "x"
    with pytest.raises(AttributeError):
        v.weight = 1
    assert v != GridPoint(v.i, v.j) and GridPoint(v.i, v.j) != v


@pytest.fixture(scope="module")
def certificate():
    """The certifier's certificate of a cubic kernel binomial of SMALL."""
    f = parse_binomial("x[1,2]*x[2,4]*x[4,1] - x[1,4]*x[2,1]*x[4,2]")
    return MembershipCertifier(cfg_of(SMALL)).certify(f)


@given(ms=st.lists(monomials, min_size=2, max_size=8, unique=True))
def test_monomial_and_binomial_are_value_types(ms, certificate):
    """A monomial is the tuple of its (variable, exponent) pairs and a
    binomial the pair (plus, minus): each hashes and compares as that
    plain tuple, ``<`` is tuple order, neither holds a per-instance dict
    or takes an assignment, the constructors keep their checks, and both
    survive pickle and deepcopy, also inside a certificate."""
    bs = [Binomial(u, w) for u, w in zip(ms, ms[1:])]
    assert all(tuple(b) == (b.plus, b.minus) for b in bs)
    for values in (ms, bs):
        assert [hash(v) for v in values] == [hash(tuple(v)) for v in values]
        assert values == [tuple(v) for v in values]
        assert sorted(values) == sorted(values, key=tuple)
        for restored in (pickle.loads(pickle.dumps(values)), copy.deepcopy(values)):
            assert restored == values
            assert [type(v) for v in restored] == [type(v) for v in values]
        v = values[0]
        assert not hasattr(v, "__dict__")
        with pytest.raises(AttributeError):
            v.weight = 1
    with pytest.raises(AttributeError):
        bs[0].plus = bs[0].minus
    with pytest.raises(ValueError, match="negative exponent"):
        Monomial([(VAR_POOL[0], -1)])
    with pytest.raises(ValueError, match="zero binomial"):
        Binomial(ms[0], Monomial(tuple(ms[0])))
    assert len(certificate.terms) >= 2
    for restored in (pickle.loads(pickle.dumps(certificate)), copy.deepcopy(certificate)):
        assert restored == certificate
        binomials = [restored.target, *(t.generator for t in restored.terms)]
        assert all(type(t.multiplier) is Monomial for t in restored.terms)
        assert all(type(b) is Binomial for b in binomials)
        assert all(type(m) is Monomial for b in binomials for m in b)


def test_variable_repr_and_field_checks():
    assert repr(vertex_var((1, 2))) == "Variable(kind='x', i=1, j=2)"
    assert repr(r_var(3)) == "Variable(kind='r', i=3, j=0)"
    assert str(Variable(kind="s", i=4)) == "s[4]"
    with pytest.raises(ValueError, match="unknown variable kind"):
        Variable("y", 1)
    for i, j in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            Variable("x", i, j)
