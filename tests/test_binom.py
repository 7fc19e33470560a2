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
    numerator_by_inclusion_exclusion,
    priority_sorted,
    quotient,
    reference_gm_update,
    reference_hilbert_numerator,
    series_coefficients,
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
    _divisible,
    _gm_update,
    _hilbert_numerator,
    _move_last,
    _signed_digits,
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
    assert twice.exps == ((v, 2),)
    assert Monomial([(v, 1), (r_var(1), 0), (v, 2)]).exps == ((v, 3),)
    with pytest.raises(ValueError):
        Binomial(twice, squared)
    with pytest.raises(ValueError):
        Monomial([(v, 2), (v, -1)])


@given(st.lists(st.integers(min_value=0, max_value=5),
                min_size=len(VAR_POOL), max_size=len(VAR_POOL)))
def test_monomial_from_sorted_matches_the_constructor(exps):
    pairs = [(v, e) for v, e in zip(sorted(VAR_POOL), exps) if e]
    built, reference = Monomial._from_sorted(tuple(pairs)), Monomial(reversed(pairs))
    assert built == reference and built.exps == reference.exps
    assert hash(built) == hash(reference) and str(built) == str(reference)


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
    from polytoric.grid import Cell, GridPoint, Polyomino

    p = Polyomino.of([Cell(GridPoint(1, 1)), Cell(GridPoint(2, 1))])
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
    # The guard-bit divisibility test that the Hilbert series runs.
    ma, mb = engine.mask_of(pa[1]), engine.mask_of(pb[1])
    assert _divisible(pb[1], mb, [(pa[1], ma)], engine.H) == divides(a, b)
    assert _divisible(pa[1], ma, [(pb[1], mb)], engine.H) == divides(b, a)
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


# -- Hilbert series ------------------------------------------------------------

SERIES_POOL = ENGINE_POOL[:6]


@st.composite
def monomial_ideals(draw):
    """At most six variables and up to seven generators with exponents up
    to 3, the unit monomial included."""
    n = draw(st.integers(min_value=1, max_value=len(SERIES_POOL)))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=7))
    return n, gens


def packed(engine, exps) -> int:
    return engine.pack(Monomial(zip(engine.vars, exps)))[1]


@given(ideal=monomial_ideals())
@settings(max_examples=150, deadline=None)
def test_hilbert_numerator_counts_standard_monomials(ideal):
    n, gens = ideal
    engine = _Engine(SERIES_POOL[:n], DEGREVLEX)
    numerator = _hilbert_numerator(engine, [packed(engine, g) for g in gens], {})
    assert not numerator or numerator[-1] != 0
    assert series_coefficients(numerator, n, 8) == standard_monomial_counts(gens, n, 8)


@given(ideal=monomial_ideals(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_hilbert_numerator_memo_holds_across_layouts(ideal, data):
    """One memo serves two layouts of one universe: the packed sets of one
    layout read in another are renamed ideals with the same series."""
    n, gens = ideal
    universe = SERIES_POOL[:n]
    orders = [DEGREVLEX, TermOrder("degrevlex", last=(data.draw(st.sampled_from(universe)),))]
    memo: dict = {}
    for order in orders + orders[::-1]:
        engine = _Engine(universe, order)
        leads = [packed(engine, g) for g in gens]
        assert _hilbert_numerator(engine, leads, memo) == _hilbert_numerator(engine, leads, {})


@given(ideal=monomial_ideals())
@settings(max_examples=150, deadline=None)
def test_hilbert_numerator_matches_the_references(ideal):
    """The Kronecker-packed numerator against the coefficient lists it
    replaced and against inclusion-exclusion over the generators."""
    n, gens = ideal
    engine = _Engine(SERIES_POOL[:n], DEGREVLEX)
    leads = [packed(engine, g) for g in gens]
    numerator = _hilbert_numerator(engine, leads, {})
    assert numerator == reference_hilbert_numerator(engine, leads, {})
    assert numerator == numerator_by_inclusion_exclusion(gens)


@pytest.mark.parametrize("w", [2, 3, 16, 76, 200])
def test_signed_digits_decode_the_extreme_coefficients(w):
    """A polynomial packed at t = 2**w decodes back when every
    coefficient lies within 2**(w-1) - 1 of zero, both ends included."""
    top = (1 << (w - 1)) - 1
    for coeffs in ([top], [-top], [top, -top, 0, top], [-top, top, -top],
                   [0, 0, -top], [1, -top, top, -1], [top] * 5 + [-top] * 5):
        k = sum(c << (w * i) for i, c in enumerate(coeffs))
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        assert _signed_digits(k, w) == tuple(coeffs)
    assert _signed_digits(0, w) == ()


def _times(poly, d):
    out = list(poly) + [0] * d
    for k, c in enumerate(poly):
        out[k + d] -= c
    return out


def test_hilbert_numerator_closed_forms():
    engine = _Engine(SERIES_POOL, DEGREVLEX)
    assert _hilbert_numerator(engine, [], {}) == (1,)
    # The unit ideal: S / S is zero.
    for gens in ([], [(0, 1, 0, 0, 0, 0)], [(1, 1, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0)]):
        leads = [0] + [packed(engine, g) for g in gens]
        assert _hilbert_numerator(engine, leads, {}) == ()
    # Pairwise coprime generators, and the same with redundant multiples.
    coprime = [(2, 1, 0, 0, 0, 0), (0, 0, 3, 0, 0, 0), (0, 0, 0, 1, 1, 1)]
    expected = [1]
    for g in coprime:
        expected = _times(expected, sum(g))
    redundant = [(2, 1, 1, 0, 0, 0), (0, 1, 3, 0, 0, 2)]
    for gens in (coprime, coprime + redundant):
        leads = [packed(engine, g) for g in gens]
        assert _hilbert_numerator(engine, leads, {}) == tuple(expected)


def test_hilbert_numerator_deep_pivot_chain():
    # x is in most generators of <x^k y1, x^k y2, x^k y3, y1 y2>, and of
    # its colon by x, so the pivots go k deep, past Python's default
    # recursion limit of 1000.
    k = 1500
    gens = [(k, 1, 0, 0), (k, 0, 1, 0), (k, 0, 0, 1), (0, 1, 1, 0)]
    engine = _Engine(SERIES_POOL[:4], DEGREVLEX)
    leads = [packed(engine, g) for g in gens]
    assert _hilbert_numerator(engine, leads, {}) == numerator_by_inclusion_exclusion(gens)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_move_last_matches_repacking(data):
    n = data.draw(st.integers(min_value=1, max_value=len(ENGINE_POOL)))
    universe = sorted(ENGINE_POOL[:n])
    a, b = data.draw(st.sampled_from(universe)), data.draw(st.sampled_from(universe))
    mono = Monomial(zip(universe, data.draw(st.lists(
        st.integers(0, 40), min_size=n, max_size=n))))
    src = _Engine(universe, TermOrder("degrevlex", last=(a,)))
    dst = _Engine(universe, TermOrder("degrevlex", last=(b,)))
    rank = {v: n - 1 - i for i, v in enumerate(universe)}
    moved = _move_last(src.pack(mono)[1], rank[a], rank[b], 16 * (n - 1))
    assert moved == dst.pack(mono)[1]


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
        basis.append(_Elem(engine, engine.orient(Binomial(plus, minus))[0]), None)
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
        for v, _ in engine.unpack(e.lp).exps:
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
        _gm_update(engine, basis, heap, b4, None)
        reference_gm_update(engine, reference, reference_heap, b4, None)
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
        _gm_update(engine, basis, heap, b4, None)
        reference_gm_update(engine, reference, reference_heap, b4, None)
    assert basis.occurs[_GUARD << engine.shift[engine.index[c]]] == [1, 2]
    assert checks[-1] == (Monomial([(a, 1)]), 0)
    assert sorted(heap) == sorted(reference_heap)
    assert [(i, j) for _, i, j, _ in heap] == [(0, 1)]


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
    for gb in (buchberger(minors, DEGREVLEX), buchberger(minors, DEGREVLEX, track=True)):
        fresh = GroebnerBasis(gb.order, gb.elements, gb.construction)
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
    assert Monomial([(v, by_v[v]) for v in shuffled]).exps == tuple(
        sorted(exps, key=lambda p: variable_sort_key(p[0])))
