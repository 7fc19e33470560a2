"""Exact binomial algebra over a tagged variable universe.

Monomials are finitely supported exponent maps, binomials are pure
differences of two monomials, and every operation here (S-polynomials,
division, Buchberger completion) keeps all coefficients in {+1, -1}.
No field arithmetic ever happens, so every result is valid over an
arbitrary coefficient field.  Only division can record its quotients,
as a certificate over the divisors; completion records none.

The public types store exponents sparsely.  The Buchberger engine packs
an exponent vector into a single integer, 16 bits per variable, so that
monomial multiplication is integer addition and divisibility is one
masked subtraction; see :class:`_Engine` for the layout rules that make
term-order comparison an integer comparison as well.

:func:`saturate` saturates by a list of variables, one step per block
of them: a variable that divides no lead of a step's basis, or is the
image of one under a permutation that fixes the ideal, needs no step.
A step whose input counts as many standard monomials in degrees 1 to 3
as the ideal has is only interreduced, and a step laid out in the order
of a GroebnerBasis it starts from takes that basis as it is.  The proofs
are in ``toric.saturate_generators``.
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import comb
from operator import itemgetter
from typing import Iterable, Mapping, Sequence, Union

from .errors import ParseError, ResourceBudgetExceeded


class Variable(tuple):
    """A ring variable: vertex variable x[i,j] or target variable r/s/t[i].

    A variable is the tuple (kind, i, j), with j = 0 for r, s and t, and
    it hashes, compares and sorts as that tuple, all in C: kind first
    ("r" < "s" < "t" < "x"), then i, then j.  That order fixes the order
    of a monomial's factors and of every engine universe, so the packed
    layout, and with it every basis, depends on the field order.  Being
    a tuple, a variable also equals the plain tuple of its fields; no
    code here compares the two.
    """

    __slots__ = ()

    def __new__(cls, kind: str, i: int, j: int = 0):
        if kind not in ("r", "s", "t", "x"):
            raise ValueError(f"unknown variable kind {kind!r}")
        if i < 0 or j < 0:
            raise ValueError("variable indices must be non-negative")
        return tuple.__new__(cls, (kind, i, j))

    kind = property(itemgetter(0))
    i = property(itemgetter(1))
    j = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __str__(self) -> str:
        kind, i, j = self
        if kind == "x":
            return f"x[{i},{j}]"
        return f"{kind}[{i}]"

    def __repr__(self) -> str:
        return "Variable(kind={!r}, i={!r}, j={!r})".format(*self)


def vertex_var(point) -> Variable:
    """Vertex variable for a grid point or a plain (x, y) pair."""
    return Variable("x", *point)


def r_var(i: int) -> Variable:
    return Variable("r", i)


def s_var(j: int) -> Variable:
    return Variable("s", j)


def t_var(k: int) -> Variable:
    return Variable("t", k)


class Monomial(tuple):
    """A monomial: the sorted tuple of its (variable, exponent) pairs.

    Exponents are strictly positive; the empty tuple is the unit.  The
    constructor sorts the pairs by variable, sums a repeated variable's
    exponents and drops zero ones.  A monomial hashes and compares as
    that tuple, in C, and equals the plain tuple of its pairs.  ``<`` is
    tuple order, not a term order: only the engine orders terms.
    """

    __slots__ = ()

    def __new__(cls, exps: Iterable[tuple[Variable, int]] = ()):
        items: list[tuple[Variable, int]] = []
        for v, e in sorted(exps, key=itemgetter(0)):
            if e < 0:
                raise ValueError("negative exponent in monomial")
            if items and items[-1][0] == v:
                e += items.pop()[1]
            if e:
                items.append((v, e))
        return tuple.__new__(cls, items)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self + other)

    def __str__(self) -> str:
        if not self:
            return "1"
        parts = []
        for v, e in self:
            parts.append(str(v) if e == 1 else f"{v}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self})"


UNIT = Monomial()


class _ZeroBinomial:
    """Sentinel for the zero binomial; never encoded as plus == minus.
    ``ZERO`` is its one instance."""

    def __repr__(self):
        return "Zero"

    def __bool__(self):
        return False


ZERO = _ZeroBinomial()

BinomialOrZero = Union["Binomial", _ZeroBinomial]


class Binomial(tuple):
    """A pure difference plus - minus of two distinct monomials: the
    pair (plus, minus), which it hashes and compares as, in C, and
    equals.  ``<`` is tuple order, not a term order: only the engine
    orders terms."""

    __slots__ = ()

    def __new__(cls, plus: Monomial, minus: Monomial):
        if plus == minus:
            raise ValueError("zero binomial: use the ZERO sentinel instead")
        return tuple.__new__(cls, (plus, minus))

    plus = property(itemgetter(0))
    minus = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def degree(self) -> int:
        return max(self.plus.degree, self.minus.degree)

    def __str__(self) -> str:
        return f"{self.plus} - {self.minus}"

    def __repr__(self) -> str:
        return f"Binomial({self})"


@dataclass(frozen=True)
class TermOrder:
    """A monomial well-order: degrevlex or lex over a variable priority.

    The default priority follows the order of :class:`Variable`, larger
    variables ranking higher (for vertex variables: later points have
    higher priority).  ``last`` lists variables demoted below everything,
    most significant first (``saturate`` demotes the variables it has
    not certified yet).  The packed engine is the one implementation of
    the order.
    """

    kind: str = "degrevlex"
    last: tuple[Variable, ...] = ()

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex"):
            raise ValueError(f"unknown term order kind {self.kind!r}")
        if len(set(self.last)) != len(self.last):
            raise ValueError("a variable is listed twice in last")


DEGREVLEX = TermOrder("degrevlex")
LEX = TermOrder("lex")


@dataclass(frozen=True)
class CertTerm:
    """One telescoping step: sign * multiplier * generator."""

    generator: Binomial
    multiplier: Monomial
    sign: int


@dataclass(frozen=True)
class Certificate:
    """An explicit expression of a binomial as signed monomial multiples
    of generators; the signed sum telescopes exactly to the target."""

    target: Binomial
    terms: tuple[CertTerm, ...]


def expand_certificate(cert: Certificate) -> dict[Monomial, int]:
    """Expand the signed sum of a certificate into a coefficient map.

    For a complete membership certificate the result is exactly
    {target.plus: +1, target.minus: -1}.
    """
    acc: dict[Monomial, int] = {}
    for term in cert.terms:
        for mono, coeff in (
            (term.multiplier * term.generator.plus, term.sign),
            (term.multiplier * term.generator.minus, -term.sign),
        ):
            c = acc.get(mono, 0) + coeff
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
    return acc


def certificate_is_exact(cert: Certificate) -> bool:
    """True iff the certificate's expansion telescopes to its target."""
    return expand_certificate(cert) == {cert.target.plus: 1, cert.target.minus: -1}


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis, sorted by leading monomial: by degree
    first, then ascending in the term order.  Under degrevlex that is the
    term order itself; under lex a low-degree lead comes first even when
    it is the larger monomial.

    :func:`reduce` packs the elements once per term order and keeps the
    packed form here, so later normal forms against this basis reuse it.
    It reads only ``elements``, in their given order and signs, so any
    sequence of divisors may be wrapped to share one packed form.
    """

    order: TermOrder
    elements: tuple[Binomial, ...]
    # TermOrder -> (_Engine, _Basis, flips); only read after it is stored.
    _packed: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __len__(self):
        return len(self.elements)


# --------------------------------------------------------------------------
# Packed-exponent engine
# --------------------------------------------------------------------------

_FIELD = 16
_FMASK = (1 << _FIELD) - 1
_GUARD = 1 << (_FIELD - 1)
# Engine monomials stay below this degree; see _Engine for why.
_DEGREE_CAP = 1 << 12


def _degree_cap_exceeded() -> ResourceBudgetExceeded:
    return ResourceBudgetExceeded(
        f"degree cap {_DEGREE_CAP} exceeded; input outside supported scale"
    )


class _Engine:
    """Packed arithmetic for a fixed variable universe and term order.

    An exponent vector is one integer with variable ``v`` in a 16-bit
    field whose position depends on the order:

      degrevlex: lowest-priority variable in the most significant field,
                 so a > b iff (deg a, -packed a) > (deg b, -packed b);
      lex:       highest-priority variable in the most significant field,
                 so a > b iff packed a > packed b.

    ``H`` holds bit 15 (the guard bit) of every field.  The primitives act
    on all fields at once (SWAR) and rest on two invariants:

      * every engine monomial has degree below _DEGREE_CAP < 2**15, so
        every field stays below 2**15: `a divides b` is the guard-bit
        test ((b | H) - a) & H == H, and no field ever borrows from the
        next;
      * the degree of an lcm is the packed value mod 0xFFFF, because
        2**16 = 1 (mod 0xFFFF); it is exact since that degree is below
        2 * _DEGREE_CAP < 0xFFFF.  `pack`, `_spoly4`, `_Basis.reduce` and
        `_Basis.reduce_tail` raise ResourceBudgetExceeded before a
        monomial reaches the cap.

    A support mask (`mask_of`) holds the guard bit of each nonzero field,
    so `e.mask & m == e.mask` tests support inclusion and `ma & mb == 0`
    tests coprimality.

    Engine monomials are (degree, packed) pairs; engine binomials are
    4-tuples (lead_deg, lead, trail_deg, trail) with lead > trail.
    ``variables`` must ascend strictly, as ``_universe`` returns them, or
    the constructor raises ValueError: priority descends along them
    reversed, the demoted ones last, with no sort.
    """

    def __init__(self, variables: Sequence[Variable], order: TermOrder):
        self.vars = tuple(variables)
        if any(a >= b for a, b in zip(self.vars, self.vars[1:])):
            raise ValueError("the universe must be strictly ascending")
        self.index = {v: i for i, v in enumerate(self.vars)}
        n = len(self.vars)
        last = [self.index[v] for v in order.last if v in self.index]
        by_priority = [i for i in reversed(range(n)) if i not in last] + last
        fields = range(n) if order.kind == "degrevlex" else reversed(range(n))
        slot = dict(zip(by_priority, fields))
        self.shift = tuple(_FIELD * slot[i] for i in range(n))
        self.layout = (order.kind, self.shift)
        # guard bit of a field -> (its shift, its variable), for unpack
        self.fields = {_GUARD << s: (s, v) for s, v in zip(self.shift, self.vars)}
        self.H = sum(_GUARD << (_FIELD * s) for s in range(n))
        self.ONES = self.H >> (_FIELD - 1)
        self._drl = order.kind == "degrevlex"

    # -- conversions -------------------------------------------------------

    def pack(self, mono: Monomial) -> tuple[int, int]:
        packed = 0
        deg = 0
        for v, e in mono:
            i = self.index.get(v)
            if i is None:
                raise ValueError(f"variable {v} outside the engine universe")
            packed += e << self.shift[i]
            deg += e
        if deg >= _DEGREE_CAP:
            raise _degree_cap_exceeded()
        return deg, packed

    def unpack(self, packed: int) -> Monomial:
        pairs = []
        rest = self.mask_of(packed)
        while rest:
            low = rest & -rest
            rest ^= low
            s, v = self.fields[low]
            pairs.append((v, (packed >> s) & _FMASK))
        return Monomial(pairs)

    def mask_of(self, packed: int) -> int:
        return ((packed | self.H) - self.ONES) & self.H

    def orient(self, b: Binomial):
        """(b4, flip): the engine binomial, lead first, and +1 if the
        plus side of ``b`` leads, else -1 (so b = flip * b4)."""
        return self.orient_packed(self.pack(b.plus), self.pack(b.minus))

    def orient_packed(self, p: tuple[int, int], m: tuple[int, int]):
        """``orient`` for the engine monomials of p - m."""
        if self.greater(p, m):
            return p + m, 1
        return m + p, -1

    def from_binomial4(self, b4) -> Binomial:
        return Binomial(self.unpack(b4[1]), self.unpack(b4[3]))

    # -- order primitives ---------------------------------------------------

    def greater(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        if self._drl:
            if a[0] != b[0]:
                return a[0] > b[0]
            return a[1] < b[1]
        return a[1] > b[1]

    def sort_key(self, deg: int, packed: int):
        # Ascending in the term order under degrevlex.  Degree comes first
        # under lex too: find_reducer's early exit needs it, and it fixes
        # the element order of a GroebnerBasis.
        return (deg, -packed) if self._drl else (deg, packed)

    def lcm(self, a_packed: int, b_packed: int) -> tuple[int, int]:
        # Bit 15 of a field of (a | H) - b is set iff that field of a is
        # at least that of b; spread it to a 0xFFFF selector per field.
        sel = ((((a_packed | self.H) - b_packed) & self.H) >> (_FIELD - 1)) * _FMASK
        out = b_packed ^ ((a_packed ^ b_packed) & sel)
        return out % _FMASK, out


class _Elem:
    """A basis element with cached leading-term data."""

    __slots__ = ("ld", "lp", "td", "tp", "mask")

    def __init__(self, engine: _Engine, b4):
        self.ld, self.lp, self.td, self.tp = b4
        self.mask = engine.mask_of(self.lp)


class _Basis:
    """Growing basis with a reducer index and an occurrence index.

    The reducer index buckets the leads by their lowest variable (the
    lowest set guard bit of the lead's support mask).  A lead that
    divides t has all its variables in t's support, its lowest one
    included, so the elements whose lead divides t lie in the buckets of
    t's set bits.  Each bucket is sorted by reducer key: ``sort_key`` of
    the lead, then the element index.  The same buckets give the later
    leads that criterion B tests (``dominated``) on a popped pair whose
    lcm degree is at least ``min_ld + 2``, ``min_ld`` being the smallest
    lead degree held; no other pair can meet it.

    The occurrence index lists, for each variable (its guard bit), the
    indices of the elements whose lead holds it, ascending.  The elements
    sharing a variable with a monomial are those listed under its set
    bits; ``_gm_update``, its only reader, fills it and gives quotients
    to those alone.  A basis starts with the engine binomials ``basis``.
    """

    def __init__(self, engine: _Engine, basis=()):
        self.engine = engine
        self.elems: list[_Elem] = []
        # lowest guard bit -> sorted [(reducer key, element)]
        self.buckets: dict[int, list[tuple]] = {}
        # guard bit -> ascending indices of the leads holding it
        self.occurs: dict[int, list[int]] = {}
        # smallest lead degree held, the bound of criterion B
        self.min_ld = _DEGREE_CAP
        for b4 in basis:
            self.append(_Elem(engine, b4))

    def append(self, e: _Elem) -> int:
        idx = len(self.elems)
        if e.ld < self.min_ld:
            self.min_ld = e.ld
        self.elems.append(e)
        bucket = self.buckets.setdefault(e.mask & -e.mask, [])
        insort(bucket, (self.engine.sort_key(e.ld, e.lp) + (idx,), e))
        return idx

    def find_reducer(self, deg: int, packed: int, mask: int) -> int:
        """Index of the element with the smallest reducer key whose lead
        divides the monomial, or -1: the first hit of a linear scan in
        key order.  Only the buckets of the monomial's set bits can hold
        a hit.  Each bucket is scanned up to its own first hit, and a
        hit bounds the degree searched in the later buckets."""
        H = self.engine.H
        best = None
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            for key, e in self.buckets.get(low, ()):
                if e.ld > deg:
                    break
                if e.mask & mask == e.mask and ((packed | H) - e.lp) & H == H:
                    if best is None or key < best:
                        best, deg = key, e.ld
                    break
        return -1 if best is None else best[-1]

    def dominated(self, i: int, j: int, lpk: int) -> bool:
        """Gebauer-Moeller criterion B for the pair (i, j) with lcm
        ``lpk``: some element m > j has a lead dividing the lcm, and
        lcm(i, m) and lcm(j, m) both differ from it.

        It can only hold when deg L >= ``min_ld`` + 2, L = ``lpk``.  If m
        meets it, A = lcm(i, m) and B = lcm(j, m) are proper divisors of
        L, lcm(A, B) = L, and lead m divides gcd(A, B).  Since deg A +
        deg B = deg lcm(A, B) + deg gcd(A, B), deg L + deg lead m <=
        2 (deg L - 1), so deg lead m <= deg L - 2, for any order."""
        engine = self.engine
        H = engine.H
        li, lj = self.elems[i].lp, self.elems[j].lp
        deg = lpk % _FMASK
        rest = engine.mask_of(lpk)
        while rest:
            low = rest & -rest
            rest ^= low
            for key, e in self.buckets.get(low, ()):
                if e.ld > deg:
                    break
                if (key[-1] > j and ((lpk | H) - e.lp) & H == H
                        and engine.lcm(li, e.lp)[1] != lpk
                        and engine.lcm(lj, e.lp)[1] != lpk):
                    return True
        return False

    def reduce_tail(self, td: int, tp: int, steps: list | None, sign: int):
        """Normal form (deg, packed) of a trail monomial.  Each step adds
        mult * elems[idx] to lead - trail and is recorded as (idx, mult,
        sign) in ``steps`` unless that is None."""
        engine = self.engine
        while True:
            k = self.find_reducer(td, tp, engine.mask_of(tp))
            if k < 0:
                return td, tp
            e = self.elems[k]
            mult = (td - e.ld, tp - e.lp)
            if steps is not None:
                steps.append((k, mult, sign))
            td, tp = mult[0] + e.td, mult[1] + e.tp
            if td >= _DEGREE_CAP:
                raise _degree_cap_exceeded()

    def reduce(self, b4, steps: list | None):
        """Full normal form of an engine binomial against the basis.

        Returns (result_or_None, sigma) and appends the steps to
        ``steps`` unless it is None.  The input polynomial equals
        sigma * result + sum(sign * mult * elems[idx]) over the steps:
        the lead/trail representation is sign-agnostic, so a running sign
        tracks every step that swaps the two sides.
        """
        engine = self.engine
        ld, lp, td, tp = b4
        sigma = 1
        while True:
            k = self.find_reducer(ld, lp, engine.mask_of(lp))
            if k < 0:
                break
            e = self.elems[k]
            mult = (ld - e.ld, lp - e.lp)
            if steps is not None:
                steps.append((k, mult, sigma))
            ad, ap = mult[0] + e.td, mult[1] + e.tp
            if ad >= _DEGREE_CAP:
                raise _degree_cap_exceeded()
            if ap == tp:
                return None, sigma
            if engine.greater((ad, ap), (td, tp)):
                ld, lp = ad, ap
            else:
                ld, lp, td, tp = td, tp, ad, ap
                sigma = -sigma
        td, tp = self.reduce_tail(td, tp, steps, -sigma)
        return (ld, lp, td, tp), sigma


def _spoly4(engine: _Engine, f: _Elem, g: _Elem):
    """S-binomial of two basis elements, lead first, or None when it is
    zero."""
    ldeg, lpk = engine.lcm(f.lp, g.lp)
    if ldeg >= _DEGREE_CAP:
        raise _degree_cap_exceeded()
    uf = (ldeg - f.ld, lpk - f.lp)
    ug = (ldeg - g.ld, lpk - g.lp)
    a = (uf[0] + f.td, uf[1] + f.tp)
    b = (ug[0] + g.td, ug[1] + g.tp)
    # Below ldeg under degrevlex; a lex trail may be heavier than its lead.
    if a[0] >= _DEGREE_CAP or b[0] >= _DEGREE_CAP:
        raise _degree_cap_exceeded()
    # u_f * f - u_g * g = (L - a) - (L - b) = b - a
    if a[1] == b[1]:
        return None
    return b + a if engine.greater(b, a) else a + b


def _gm_update(engine: _Engine, basis: _Basis, heap: list, b4):
    """Add an element and queue its new S-pairs, thinned by the
    Gebauer-Moeller chain and coprime criteria.

    Every candidate lcm is lmf * q, with lmf the new lead and q the
    quotient, so one lcm divides another exactly when its quotient
    divides the other quotient.  A candidate is dropped when a kept
    quotient of lower degree divides it, and never queued when its
    partner's lead is coprime to lmf.  A quotient of degree 1 is a
    single variable: the kept ones are folded into one union mask, and a
    later quotient meeting it is dropped with one AND.  Only the kept
    quotients of degree 0 or 2+ are scanned; one of the same degree as
    the candidate is a distinct quotient and cannot divide it.
    Candidates are taken by (lcm degree, packed lcm), one pair per lcm,
    from the smallest partner index.

    Only the partners that share a variable with lmf, read from the
    occurrence index, get a quotient; the same pass lists the new
    element there.  The same pairs are queued as if every element got
    one:

      * "a kept quotient of lower degree divides q" reads the same with
        "any quotient", since a dropped divisor was itself dropped by a
        kept one that also divides q;
      * an element coprime to lmf has quotient = its own lead, and it is
        never queued;
      * so a coprime element can only drop a candidate q if its lead
        divides q, and q divides the partner's lead.  That one check
        goes to the reducer index: a lead that divides q and shares a
        variable with lmf has a quotient of lower degree that divides q,
        so q never gets that far.

    Criterion B, which drops an older pair whose lcm a later lead
    divides, runs when the pair is popped (see ``_run_buchberger``).
    """
    new_elem = _Elem(engine, b4)
    m = len(basis.elems)
    lmf = new_elem.lp
    H, ONES = engine.H, engine.ONES
    partners: set[int] = set()
    rest = new_elem.mask
    while rest:
        low = rest & -rest
        rest ^= low
        listed = basis.occurs.setdefault(low, [])
        partners.update(listed)
        listed.append(m)
    # quotient -> smallest partner index
    first: dict[int, int] = {}
    for i in sorted(partners):
        # The quotient keeps lead - lmf in the fields where the lead is
        # larger (guard bit of the SWAR difference set), and 0 elsewhere.
        diff = (basis.elems[i].lp | H) - lmf
        guards = diff & H
        first.setdefault((diff & ((guards >> (_FIELD - 1)) * _FMASK)) ^ guards, i)
    union = 0
    kept: list[int] = []
    for qdeg, q in sorted((q % _FMASK, q) for q in first):
        qmask = ((q | H) - ONES) & H
        if qmask & union or any(((q | H) - k) & H == H for k in kept):
            continue
        if qdeg == 1:
            union |= qmask
        else:
            kept.append(q)
        if basis.find_reducer(qdeg, q, qmask) < 0:
            heappush(heap, (new_elem.ld + qdeg, first[q], m, lmf + q))
    basis.append(new_elem)


def _interreduce(engine: _Engine, elems: list[_Elem]):
    """Reduced basis from a Groebner basis, given as its elements:
    minimal leads, reduced tails, as b4 tuples in ``engine.sort_key``
    order of their leads."""
    minimal = _Basis(engine)
    for e in sorted(elems, key=lambda e: engine.sort_key(e.ld, e.lp)):
        if minimal.find_reducer(e.ld, e.lp, e.mask) < 0:
            minimal.append(e)
    # An element's own lead never divides its tail (that would force
    # tail >= lead), so reducing against all kept leads is safe.
    return [(e.ld, e.lp) + minimal.reduce_tail(e.td, e.tp, None, 1) for e in minimal.elems]


def _run_buchberger(engine: _Engine, gens4, budget):
    """Buchberger completion with the Gebauer-Moeller criteria.

    ``gens4`` lists the generators as engine binomials, lead first;
    returns the reduced basis as ``_interreduce`` does.  The run keeps no
    record of how an element arose from the generators.

    The heap holds (lcm degree, i, j, packed lcm) and pops the smallest.
    Criterion B runs on the popped pair against the elements with index
    above j, through ``_Basis.dominated``.  Those are exactly the
    elements added while the pair waited in the queue, and the test
    reads only leads, which never change, so it drops the same pairs as
    testing each new element against every queued pair would.  A pair
    dropped there does not count against ``budget``.  The test is
    skipped when the lcm degree is below ``basis.min_ld`` + 2, where it
    cannot hold (see ``_Basis.dominated``).
    """
    basis = _Basis(engine)
    heap: list[tuple[int, int, int, int]] = []
    for b4 in gens4:
        _gm_update(engine, basis, heap, b4)
    reductions = 0
    while heap:
        d, i, j, lpk = heappop(heap)
        if d >= basis.min_ld + 2 and basis.dominated(i, j, lpk):
            continue
        reductions += 1
        if budget is not None and reductions > budget:
            raise ResourceBudgetExceeded(
                f"S-pair reduction budget of {budget} exceeded"
            )
        s = _spoly4(engine, basis.elems[i], basis.elems[j])
        if s is None:
            continue
        nf = basis.reduce(s, None)[0]
        if nf is None:
            continue
        _gm_update(engine, basis, heap, nf)
    return _interreduce(engine, basis.elems)


def _low_hilbert(engine: _Engine, leads: Iterable[int]) -> tuple[int, int, int]:
    """HF(S / <leads>)(d) for d = 1, 2, 3, for packed ``leads`` of any
    degree, by counting; leads of degree 4 or more do not reach degree 3.
    Setting the leads of degree 1 to zero leaves, over the m other
    variables, the ideal of the set Q of the quadric leads free of them
    and of the set C of the cubic leads free of them.  The degree-3 part
    of <Q> is the union of the sets q S_1, of size m each.  Two of them
    meet only when q and q' share a variable, in their lcm; three only
    when q, q' and q'' are ab, bc and ca, in abc; no cubic has four
    quadric divisors.  So by inclusion and exclusion it has m |Q| - P + T
    elements, P the pairs of Q sharing a variable and T the triangles of
    the graph of its squarefree leads.  A cubic of C adds one more unless
    c / x is in Q for a variable x of c."""
    H, ONES = engine.H, engine.ONES
    leads = set(leads)
    linear = sum(p for p in leads if p % _FMASK == 1)
    m = sum(not linear >> s & 1 for s in engine.shift)
    quads = pairs = triangles = cubics = 0
    # guard bit -> the number of quadric leads holding it, and -> the
    # other variables of the squarefree ones
    held: dict[int, int] = {}
    near: dict[int, set] = {}
    for q in leads:
        mask = ((q | H) - ONES) & H
        if q % _FMASK not in (2, 3) or mask >> (_FIELD - 1) & linear:
            continue
        if q % _FMASK == 3:
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                if q - (low >> (_FIELD - 1)) in leads:
                    break
            else:
                cubics += 1
            continue
        quads += 1
        a, b = mask & -mask, mask & (mask - 1)
        for v in (a, b) if b else (a,):
            pairs += held.get(v, 0)
            held[v] = held.get(v, 0) + 1
        if b:
            triangles += len(near.setdefault(a, set()) & near.setdefault(b, set()))
            near[a].add(b)
            near[b].add(a)
    return m, comb(m + 1, 2) - quads, comb(m + 2, 3) - (m * quads - pairs + triangles) - cubics


# --------------------------------------------------------------------------
# Public operations
# --------------------------------------------------------------------------


def _checked(gens: Iterable) -> tuple[Binomial, ...]:
    """``gens`` as a tuple, each checked to be a nonzero binomial."""
    gens = tuple(gens)
    if not all(isinstance(g, Binomial) for g in gens):
        raise ValueError("generators must be nonzero binomials")
    return gens


def _universe(binomials: Iterable[Binomial], extra: Iterable[Variable]) -> tuple[Variable, ...]:
    """The sorted variables of ``binomials`` and ``extra``."""
    seen = set(extra)
    for b in binomials:
        seen.update(v for v, _ in b.plus + b.minus)
    return tuple(sorted(seen))


def _pack_basis(gens: tuple[Binomial, ...], order: TermOrder, f: Binomial):
    """(engine, basis, flips): ``gens`` packed over their variables and
    those of ``f``, element k holding gens[k] = flips[k] * element."""
    engine = _Engine(_universe(gens + (f,), order.last), order)
    oriented = [engine.orient(g) for g in gens]
    return engine, _Basis(engine, [g4 for g4, _ in oriented]), [flip for _, flip in oriented]


def reduce(
    f: BinomialOrZero,
    basis: Sequence[Binomial] | GroebnerBasis,
    order: TermOrder = DEGREVLEX,
    track: bool = False,
):
    """Normal form of f modulo the basis; with track, also a Certificate.

    The certificate satisfies f = normal_form + sum(sign * mult * gen)
    over its terms, exactly at the exponent level.  It has one term per
    division step, in the order taken, and each term's generator is the
    divisor as given, sign included.

    A plain sequence is packed on each call.  A GroebnerBasis is packed
    once per order and the packed form is reused while the variables of
    f lie in its universe; the result is the same either way.
    """
    if isinstance(basis, GroebnerBasis):
        gens, memo = basis.elements, basis._packed
    else:
        gens, memo = tuple(basis), {}
    packed = memo.get(order)
    if packed is None:
        _checked(gens)
    if f is ZERO:
        return (ZERO, None) if track else ZERO
    oriented = None
    if packed is not None:
        try:
            oriented = packed[0].orient(f)
        except ValueError:
            pass  # a variable of f outside the packed universe
    if oriented is None:
        packed = _pack_basis(gens, order, f)
        memo.setdefault(order, packed)
        oriented = packed[0].orient(f)
    engine, b, flips = packed
    f4, f_flip = oriented
    steps = [] if track else None
    nf4, sigma = b.reduce(f4, steps)
    nf: BinomialOrZero = ZERO if nf4 is None else engine.from_binomial4(nf4)
    # The engine reduced f4 = f_flip * f, and its lead/trail
    # representation may carry an extra sign; undo both so the identity
    # f = nf + sum(sign * mult * gen) holds over the inputs as given.
    if f_flip * sigma < 0 and nf is not ZERO:
        nf = Binomial(nf.minus, nf.plus)
    if not track:
        return nf
    return nf, Certificate(f, tuple(
        CertTerm(gens[k], engine.unpack(mp), sign * flips[k] * f_flip)
        for k, (_, mp), sign in steps))


def buchberger(
    gens: Sequence[Binomial],
    order: TermOrder = DEGREVLEX,
    budget: int | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by pure-difference
    binomials.

    Whenever the run returns, the basis is canonical for the order: the
    same for every input order.  Whether it returns can depend on the
    input order, since the intermediate degrees (checked against the
    engine's degree cap) and the number of S-pair reductions do.
    ``budget`` caps the number of S-pair reductions and raises
    ResourceBudgetExceeded beyond it.
    """
    gens = _checked(gens)
    engine = _Engine(_universe(gens, order.last), order)
    final = _run_buchberger(engine, [engine.orient(g)[0] for g in gens], budget)
    return GroebnerBasis(order, tuple(engine.from_binomial4(b4) for b4 in final))


def _field_map(src: _Engine, dst: _Engine) -> dict[int, tuple[int, int]]:
    """For two engines over one universe: the guard bit of each field of
    ``src`` -> (that field's shift in ``src``, the same variable's shift
    in ``dst``), as ``_repack`` reads it."""
    return {_GUARD << a: (a, b) for a, b in zip(src.shift, dst.shift)}


def _repack(packed: int, fields: dict[int, tuple[int, int]], H: int) -> int:
    """A monomial moved from one layout of a universe to another by the
    ``_field_map`` between them, one step per nonzero field."""
    out = 0
    rest = ((packed | H) - (H >> (_FIELD - 1))) & H
    while rest:
        low = rest & -rest
        rest ^= low
        a, b = fields[low]
        out += ((packed >> a) & _FMASK) << b
    return out


def _uncertified(engine: _Engine, pending: list[Variable], basis) -> list[Variable]:
    """The variables of ``pending`` after the first that divide a lead of
    ``basis``, a Groebner basis as engine binomials.  A variable that
    divides no lead is a nonzerodivisor modulo the ideal of ``basis``,
    which saturating by it would leave as it is (proof in
    ``toric.saturate_generators``).  This is the seam of the
    certification by leads; ``_stabilizer`` is the seam of the
    certification by orbits.  Patched to return ``pending[1:]``, it
    certifies only each step's own variable and the orbits of those."""
    support = 0
    for b4 in basis:
        support |= b4[1]
    return [u for u in pending[1:] if (support >> engine.shift[engine.index[u]]) & _FMASK]


def _stabilizer(engine: _Engine, maps, basis) -> list:
    """The permutations of ``maps`` that fix the ideal of ``basis``, a
    Groebner basis as engine binomials: a map is kept when it permutes
    the universe and sends every element to a binomial that reduces to
    zero against ``basis`` (proof in ``toric.saturate_generators``); an
    image that is itself an element does, and is not reduced.  This is
    the seam of the certification by orbits: patched to return [], it
    certifies no orbit, and every step certifies what it would certify
    with no maps given."""
    kept = []
    members = set(basis)
    reducer = None
    H = engine.H
    for g in maps:
        target = [engine.index.get(g.get(u, u)) for u in engine.vars]
        if None in target or len(set(target)) != len(target):
            continue
        fields = {_GUARD << a: (a, engine.shift[i]) for a, i in zip(engine.shift, target)}
        missed = {engine.orient_packed(
            (ld, _repack(lp, fields, H)), (td, _repack(tp, fields, H)))[0]
            for ld, lp, td, tp in basis} - members
        if missed and reducer is None:
            reducer = _Basis(engine, basis)
        if all(reducer.reduce(b4, None)[0] is None for b4 in missed):
            kept.append(g)
    return kept


def saturate(
    gens: Sequence[Binomial] | GroebnerBasis,
    variables: Sequence[Variable],
    budget: int | None = None,
    symmetries: Sequence[Mapping[Variable, Variable]] = (),
) -> list[Binomial]:
    """Saturate by every variable of ``variables``, a block of them per
    step: ``toric.saturate_generators`` states the steps, the skip rule
    and the certificates, and proves them.  ``budget`` caps the S-pair
    reductions of each Buchberger run.  ``symmetries`` are candidate
    permutations of the variables, each a map from a variable to its
    image (unlisted variables stay put); the default certifies no orbit.

    ``gens`` may be a GroebnerBasis, trusted to be the reduced basis of
    its order.  The result is then the reduced basis of the saturation
    in that order; from a plain list it is the last step's basis.

    The basis stays packed over one universe (the variables of ``gens``
    and ``variables``), and each step moves it to its own layout with
    ``_repack``.  The seams are ``_uncertified`` (certification by the
    leads), ``_stabilizer`` (by orbits) and ``_low_hilbert`` (the skip
    rule), which, patched to return None, turns off the skips but not
    the drop.
    """
    given = gens if isinstance(gens, GroebnerBasis) else None
    gens = _checked(gens.elements if given is not None else gens)
    pending = list(dict.fromkeys(variables))
    if not pending:
        return list(gens)
    universe = _universe(gens, pending)
    top = _FIELD * (len(universe) - 1)
    homogeneous = all(g.plus.degree == g.minus.degree for g in gens)
    counts = engine = settled = None
    # The kept maps; None until the first step has tested them.
    group = None
    grown = False
    if given is not None:
        engine = own = _Engine(universe, given.order)
        current = [engine.orient(g)[0] for g in gens]
        # The layout that ``current`` is a reduced basis in.
        settled = engine.layout
        if homogeneous:
            counts = _low_hilbert(engine, [b4[1] for b4 in current])
    while True:
        if pending:
            step = _Engine(universe, TermOrder("degrevlex", last=tuple(reversed(pending))))
        elif grown and given is not None:
            step = own
        else:
            break
        if step.layout == settled:
            reduced = current
        else:
            if engine is None:
                gens4 = [step.orient(g)[0] for g in gens]
            else:
                # Every layout of one universe has the same guard bits.
                fields, H = _field_map(engine, step), step.H
                gens4 = [step.orient_packed((ld, _repack(lp, fields, H)),
                                            (td, _repack(tp, fields, H)))[0]
                         for ld, lp, td, tp in current]
                if homogeneous and any(b4[0] > 2 for b4 in gens4):
                    # Drop what reduces to zero against the quadrics and below.
                    low = _Basis(step, [b4 for b4 in gens4 if b4[0] <= 2])
                    gens4 = [b4 for b4 in gens4
                             if b4[0] <= 2 or low.reduce(b4, None)[0] is not None]
            if (counts is not None and all(b4[0] <= 2 for b4 in gens4)
                    and _low_hilbert(step, [b4[1] for b4 in gens4]) == counts):
                reduced = _interreduce(step, [_Elem(step, b4) for b4 in gens4])
            else:
                reduced = _run_buchberger(step, gens4, budget)
        engine = step
        if not pending:
            current = reduced
            break
        current = []
        changed = False
        for ld, lp, td, tp in reduced:
            k = min(lp >> top, tp >> top)
            if k:
                changed = True
                ld, lp, td, tp = ld - k, lp - (k << top), td - k, tp - (k << top)
            current.append((ld, lp, td, tp))
        grown |= changed
        settled = None if changed else engine.layout
        if not homogeneous:
            pending = pending[1:]
            continue
        if counts is None or changed:
            counts = _low_hilbert(engine, [b4[1] for b4 in current])
        left = _uncertified(engine, pending, current)
        if changed:
            group = []
        elif group is None:
            group = _stabilizer(engine, symmetries, current)
        if group:
            orbits, search = set(), set(pending).difference(left)
            while search:
                orbits |= search
                search = {g.get(u, u) for g in group for u in search} - orbits
            left = [u for u in left if u not in orbits]
        pending = left
    if given is not None and not grown:
        return list(gens)
    return [engine.from_binomial4(b4) for b4 in current]


# --------------------------------------------------------------------------
# Text syntax: x[i,j], r[i], s[j], t[k]; products with "*", powers with
# "^", binomial as "<monomial> - <monomial>".
# --------------------------------------------------------------------------

_FACTOR_RE = re.compile(
    r"^\s*(?:(x)\[\s*(\d+)\s*,\s*(\d+)\s*\]|([rst])\[\s*(\d+)\s*\])"
    r"(?:\s*\^\s*(\d+))?\s*$"
)


def parse_monomial(text: str) -> Monomial:
    text = text.strip()
    if text == "1":
        return UNIT
    if not text:
        raise ParseError("empty monomial")
    exps = []
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ParseError(f"bad monomial factor: {factor.strip()!r}")
        if m.group(1):
            v = Variable("x", int(m.group(2)), int(m.group(3)))
        else:
            v = Variable(m.group(4), int(m.group(5)))
        e = int(m.group(6)) if m.group(6) else 1
        if e == 0:
            raise ParseError(f"zero exponent in factor: {factor.strip()!r}")
        exps.append((v, e))
    return Monomial(exps)


def parse_binomial(text: str) -> Binomial:
    parts = text.split("-")
    if len(parts) != 2:
        raise ParseError("a binomial must be '<monomial> - <monomial>'")
    plus = parse_monomial(parts[0])
    minus = parse_monomial(parts[1])
    if plus == minus:
        raise ParseError("zero binomial (both monomials equal)")
    return Binomial(plus, minus)
