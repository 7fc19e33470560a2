"""Exact binomial algebra over a tagged variable universe.

Monomials are finitely supported exponent maps, binomials are pure
differences of two monomials, and every operation here (S-polynomials,
division with quotient tracking, Buchberger completion) keeps all
coefficients in {+1, -1}.  No field arithmetic ever happens, so every
result is valid over an arbitrary coefficient field.

The public types store exponents sparsely.  The Buchberger engine packs
an exponent vector into a single integer, 16 bits per variable, so that
monomial multiplication is integer addition and divisibility is one
masked subtraction; see :class:`_Engine` for the layout rules that make
term-order comparison an integer comparison as well.
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import zip_longest
from math import comb
from operator import itemgetter
from typing import Iterable, Sequence, Union

from .errors import ParseError, ResourceBudgetExceeded


@dataclass(frozen=True, order=True)
class Variable:
    """A ring variable: vertex variable x[i,j] or target variable r/s/t[i].

    Variables compare by their fields in order, kind first ("r" < "s" <
    "t" < "x"), then i, then j.  That order fixes the order of a monomial's
    factors and of every engine universe, so the packed layout, and with
    it every basis, depends on the field order.
    """

    kind: str
    i: int
    j: int = 0

    def __post_init__(self):
        if self.kind not in ("r", "s", "t", "x"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.i < 0 or self.j < 0:
            raise ValueError("variable indices must be non-negative")

    def __str__(self) -> str:
        if self.kind == "x":
            return f"x[{self.i},{self.j}]"
        return f"{self.kind}[{self.i}]"


def vertex_var(point) -> Variable:
    """Vertex variable for a grid point (anything with .x/.y or a pair)."""
    if hasattr(point, "x"):
        return Variable("x", point.x, point.y)
    x, y = point
    return Variable("x", x, y)


def r_var(i: int) -> Variable:
    return Variable("r", i)


def s_var(j: int) -> Variable:
    return Variable("s", j)


def t_var(k: int) -> Variable:
    return Variable("t", k)


class Monomial:
    """A monomial as a sorted tuple of (variable, exponent) pairs.

    Exponents are strictly positive; the empty tuple is the unit.  The
    constructor sums a repeated variable's exponents and drops zero ones.
    Instances are immutable and hashable.
    """

    __slots__ = ("exps", "_hash")

    def __init__(self, exps: Iterable[tuple[Variable, int]] = ()):
        items: list[tuple[Variable, int]] = []
        for v, e in sorted(exps, key=itemgetter(0)):
            if e < 0:
                raise ValueError("negative exponent in monomial")
            if items and items[-1][0] == v:
                e += items.pop()[1]
            if e:
                items.append((v, e))
        object.__setattr__(self, "exps", tuple(items))
        object.__setattr__(self, "_hash", hash(self.exps))

    @classmethod
    def _from_sorted(cls, exps: tuple[tuple[Variable, int], ...]) -> "Monomial":
        """``Monomial(exps)`` for pairs already in strictly ascending
        variable order with positive exponents, without the sort and the
        merge; the caller vouches for the order."""
        mono = object.__new__(cls)
        object.__setattr__(mono, "exps", exps)
        object.__setattr__(mono, "_hash", hash(exps))
        return mono

    def __setattr__(self, *_):
        raise AttributeError("Monomial is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.exps + other.exps)

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        parts = []
        for v, e in self.exps:
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


@dataclass(frozen=True)
class Binomial:
    """A pure difference plus - minus of two distinct monomials."""

    plus: Monomial
    minus: Monomial

    def __post_init__(self):
        if self.plus == self.minus:
            raise ValueError("zero binomial: use the ZERO sentinel instead")

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
    most significant first (used to saturate with respect to one
    variable).  The packed engine is the one implementation of the order.
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

    When built with tracking, ``construction`` holds one certificate per
    element expressing it in terms of the input generators.

    :func:`reduce` packs the elements once per term order and keeps the
    packed form here, so later normal forms against this basis reuse it.
    """

    order: TermOrder
    elements: tuple[Binomial, ...]
    construction: tuple[Certificate, ...] | None = None
    # TermOrder -> (_Engine, _Basis); only read after it is stored.
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
        self.H = sum(_GUARD << (_FIELD * s) for s in range(n))
        self.ONES = self.H >> (_FIELD - 1)
        self._drl = order.kind == "degrevlex"

    # -- conversions -------------------------------------------------------

    def pack(self, mono: Monomial) -> tuple[int, int]:
        packed = 0
        deg = 0
        for v, e in mono.exps:
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
        for i, v in enumerate(self.vars):
            e = (packed >> self.shift[i]) & _FMASK
            if e:
                pairs.append((v, e))
        return Monomial._from_sorted(tuple(pairs))

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
    """Growing basis with a reducer index and a provenance record per
    element (None when not tracking).

    The reducer index buckets the leads by their lowest variable (the
    lowest set guard bit of the lead's support mask).  A lead that
    divides t has all its variables in t's support, its lowest one
    included, so the elements whose lead divides t lie in the buckets of
    t's set bits.  Each bucket is sorted by reducer key: ``sort_key`` of
    the lead, then the element index.  The same buckets give the later
    leads that criterion B tests when a pair is popped (``dominated``).

    The occurrence index lists, for each variable (its guard bit), the
    indices of the elements whose lead holds it, ascending.  The elements
    sharing a variable with a monomial are those listed under its set
    bits; ``_gm_update``, its only reader, fills it and gives quotients
    to those alone.

    A provenance entry is a flat tuple of (gen_index, (deg, packed),
    sign) meaning value = sum sign * multiplier * gens[gen_index].
    """

    def __init__(self, engine: _Engine):
        self.engine = engine
        self.elems: list[_Elem] = []
        self.prov: list[tuple] = []
        # lowest guard bit -> sorted [(reducer key, element)]
        self.buckets: dict[int, list[tuple]] = {}
        # guard bit -> ascending indices of the leads holding it
        self.occurs: dict[int, list[int]] = {}

    def append(self, e: _Elem, prov) -> int:
        idx = len(self.elems)
        self.elems.append(e)
        self.prov.append(prov)
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
        lcm(i, m) and lcm(j, m) both differ from it."""
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

    def flatten(self, comb):
        """Flat provenance of sum(sign * mult * elems[idx]) over the
        (idx, (deg, packed), sign) steps of ``comb``."""
        return tuple(
            (k, (md + md2, mp + mp2), sg * sg2)
            for idx, (md, mp), sg in comb
            for k, (md2, mp2), sg2 in self.prov[idx]
        )

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
    """S-binomial of two basis elements.

    Returns (b4 or None, sigma, u_f, u_g) where the true S-polynomial
    u_f * f - u_g * g equals sigma * b4.
    """
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
        return None, 1, uf, ug
    if engine.greater(b, a):
        return b + a, 1, uf, ug
    return a + b, -1, uf, ug


def _gm_update(engine: _Engine, basis: _Basis, heap: list, b4, prov):
    """Add an element and queue its new S-pairs, thinned by the
    Gebauer-Moeller chain and coprime criteria.

    Every candidate lcm is lmf * q, with lmf the new lead and q the
    quotient, so one lcm divides another exactly when its quotient
    divides the other quotient.  A candidate is dropped when a kept
    quotient of lower degree divides it, and never queued when its
    partner's lead is coprime to lmf.  A quotient of degree 1 is a
    single variable: the kept ones are folded into one union mask, and a
    later quotient meeting it is dropped with one AND.  Only quotients
    of degree 0 or 2+ are scanned, and only by quotients of a higher
    degree.  Candidates are taken by (lcm degree, packed lcm), one pair
    per lcm, from the smallest partner index.

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
    # Kept quotients of degree 0 or 2+: those below the current degree,
    # and those of it, which cannot divide a distinct quotient of the
    # same degree and join the scan at the next degree.
    lower: list[int] = []
    level: list[int] = []
    level_deg = 0
    for qdeg, q in sorted((q % _FMASK, q) for q in first):
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
        if basis.find_reducer(qdeg, q, qmask) < 0:
            heappush(heap, (new_elem.ld + qdeg, first[q], m, lmf + q))
    basis.append(new_elem, prov)


def _interreduce(engine: _Engine, elems: list[_Elem], prov: list, track: bool):
    """Reduced basis from a Groebner basis, given as its elements and
    their provenance entries: minimal leads, reduced tails.

    Returns (elements as b4 tuples in ``engine.sort_key`` order of their
    leads, flat provenance per element when tracking).
    """
    minimal = _Basis(engine)
    for e, p in sorted(zip(elems, prov), key=lambda ep: engine.sort_key(ep[0].ld, ep[0].lp)):
        if minimal.find_reducer(e.ld, e.lp, e.mask) < 0:
            minimal.append(e, p)
    final = []
    final_prov = []
    for k, e in enumerate(minimal.elems):
        # The element's own lead never divides its tail (that would force
        # tail >= lead), so reducing against all kept leads is safe.
        steps = [(k, (0, 0), 1)] if track else None
        td, tp = minimal.reduce_tail(e.td, e.tp, steps, 1)
        final.append((e.ld, e.lp, td, tp))
        if track:
            final_prov.append(minimal.flatten(steps))
    return final, final_prov


def _run_buchberger(engine: _Engine, oriented, budget, track, gap=None):
    """Buchberger completion with the Gebauer-Moeller criteria.

    ``oriented`` lists the generators as (b4, flip) pairs, as
    ``_Engine.orient`` returns them; returns what ``_interreduce`` does,
    provenance over the generators' indices in ``oriented``.

    The heap holds (lcm degree, i, j, packed lcm) and pops the smallest.
    Criterion B runs on the popped pair against the elements with index
    above j, through ``_Basis.dominated``.  Those are exactly the
    elements added while the pair waited in the queue, and the test
    reads only leads, which never change, so it drops the same pairs as
    testing each new element against every queued pair would.  A pair
    dropped there does not count against ``budget``.

    ``gap``, when given, lists the Hilbert numerator of the generators'
    leads minus that of their ideal (see ``saturate``).  It gives the
    deficit HF_leads(d0) - HF_ideal(d0) at the lowest lcm degree d0
    queued after the generators.  Each nonzero reduction in degree d0
    lowers it by one, and once it is 0 the pairs left in that degree are
    dropped, uncounted (proof in ``toric.saturate_generators``).
    """
    basis = _Basis(engine)
    heap: list[tuple[int, int, int, int]] = []
    for k, (b4, flip) in enumerate(oriented):
        _gm_update(engine, basis, heap, b4, ((k, (0, 0), flip),))
    d0 = deficit = None
    if gap is not None and heap:
        d0, n = heap[0][0], len(engine.vars)
        deficit = sum(c * comb(n - 1 + d0 - i, n - 1) for i, c in enumerate(gap[:d0 + 1]))
    reductions = 0
    while heap:
        if deficit == 0:
            while heap and heap[0][0] == d0:
                heappop(heap)
            deficit = None
            continue
        d, i, j, lpk = heappop(heap)
        if basis.dominated(i, j, lpk):
            continue
        reductions += 1
        if budget is not None and reductions > budget:
            raise ResourceBudgetExceeded(
                f"S-pair reduction budget of {budget} exceeded"
            )
        s, sig_s, ui, uj = _spoly4(engine, basis.elems[i], basis.elems[j])
        if s is None:
            continue
        steps = [] if track else None
        nf, sig_f = basis.reduce(s, steps)
        if nf is None:
            continue
        prov = None
        if track:
            # stored = sig_f * (s - sum steps) and s = sig_s * (ui*e_i - uj*e_j)
            sf = sig_f * sig_s
            prov = basis.flatten(((i, ui, sf), (j, uj, -sf)) + tuple(
                (k, m, -sig_f * sg) for k, m, sg in steps
            ))
        _gm_update(engine, basis, heap, nf, prov)
        if d == d0:
            deficit -= 1
    return _interreduce(engine, basis.elems, basis.prov, track)


# Largest node that _hilbert_numerator memoizes.  Over the 35 series of
# the 7x5 frame's saturation, 97 % of memo hits were on nodes of at most
# 16 generators, and memoizing every node held 2.5 MB against 0.6 MB.
_MEMO_SIZE = 16


def _divisible(p: int, mask: int, gens: list[tuple[int, int]], H: int) -> bool:
    """True iff one of the (packed, mask) ``gens`` divides ``p``."""
    return any(qm & mask == qm and ((p | H) - q) & H == H for q, qm in gens)


def _signed_digits(k: int, w: int) -> tuple[int, ...]:
    """The coefficients, lowest first, of P with P(2**w) = k and each
    coefficient in [-2**(w-1), 2**(w-1)), trailing zeros dropped."""
    digits, mask, sign = [], (1 << w) - 1, 1 << (w - 1)
    while k:
        c = k & mask
        c -= (c & sign) << 1
        digits.append(c)
        k = (k - c) >> w
    return tuple(digits)


def _hilbert_numerator(engine: _Engine, leads: Iterable[int], memo: dict) -> tuple[int, ...]:
    """Numerator K of the Hilbert series K(t) / (1 - t)^n of S / <leads>,
    for packed monomials ``leads`` of ``engine``: K's coefficients from
    t^0 up, trailing zeros dropped.

    Bigatti's pivot algorithm on minimal generators.  A generator that
    shares no variable with the others splits off as a factor
    1 - t^deg, the variable-disjoint components of the rest multiply,
    and a connected set pivots on the variable x in most generators:
    K(I) = (1 - t) K(J) + t K(I : x), with J the generators free of x
    (I + <x> = J + <x>).  Both branches strictly lower the total degree
    of the shared generators, so the splitting ends.  It runs on an
    explicit stack, post-order, so no input can exhaust Python's
    recursion limit.

    A polynomial is Kronecker-packed as its value at t = 2**w, exact
    since that is a ring map: a factor 1 - t^d is a shift, a product one
    integer product, and only the root is decoded (``_signed_digits``).
    With m minimal generators, K is the sum over their subsets s of
    (-1)^|s| t^deg lcm(s) (Taylor's resolution), so no coefficient
    exceeds 2**m in absolute value, and w = m + 2 decodes it.

    ``memo`` maps a width w to a table from the frozenset of a node's
    shared generators to its packed K, for nodes of at most
    ``_MEMO_SIZE`` generators.  K does not change when variables are
    renamed, and a packed set read in another layout of one universe is
    that renaming, so one memo serves every layout of the universe.
    """
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
    w = len(minimal) + 2
    table = memo.setdefault(w, {})
    # A task is a generator list to evaluate, or a combine step
    # (None, (key, factor, parts)) that pops ``parts`` values, the
    # components' K, or when parts is 0 the two values K(J), K(I : x).
    values: list[int] = []
    tasks: list = [(minimal, None)]
    while tasks:
        gens, step = tasks.pop()
        if gens is None:
            key, factor, parts = step
            if parts:
                k = 1
                for _ in range(parts):
                    k *= values.pop()
            else:
                free, colon = values.pop(), values.pop()
                k = free + ((colon - free) << w)
            if key is not None:
                table[key] = k
            values.append(factor * k)
            continue
        seen = twice = 0
        for _, mask in gens:
            twice |= seen & mask
            seen |= mask
        factor = 1
        shared = []
        for g in gens:
            if g[1] & twice:
                shared.append(g)
            else:
                factor -= factor << (w * (g[0] % _FMASK))
        key = frozenset(p for p, _ in shared) if len(shared) <= _MEMO_SIZE else None
        known = table.get(key)
        if known is not None or not shared:
            values.append(factor if known is None else factor * known)
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
    return _signed_digits(values.pop(), w)



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
        seen.update(v for v, _ in b.plus.exps + b.minus.exps)
    return tuple(sorted(seen))


def _cert_terms(engine: _Engine, gens, flat, sign: int = 1) -> tuple[CertTerm, ...]:
    """The CertTerms of flat provenance over ``gens``, signs times ``sign``."""
    return tuple(CertTerm(gens[k], engine.unpack(mp), sg * sign) for k, (_, mp), sg in flat)


def _pack_basis(gens: tuple[Binomial, ...], order: TermOrder, f: Binomial):
    """(engine, basis) holding ``gens`` over their variables and those of
    ``f``, each element with its generator as provenance."""
    engine = _Engine(_universe(gens + (f,), order.last), order)
    b = _Basis(engine)
    for k, g in enumerate(gens):
        g4, flip = engine.orient(g)
        b.append(_Elem(engine, g4), ((k, (0, 0), flip),))
    return engine, b


def reduce(
    f: BinomialOrZero,
    basis: Sequence[Binomial] | GroebnerBasis,
    order: TermOrder = DEGREVLEX,
    track: bool = False,
):
    """Normal form of f modulo the basis; with track, also a Certificate.

    The certificate satisfies f = normal_form + sum(sign * mult * gen)
    over its terms, exactly at the exponent level.

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
    engine, b = packed
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
    return nf, Certificate(f, _cert_terms(engine, gens, b.flatten(steps), f_flip))


def buchberger(
    gens: Sequence[Binomial],
    order: TermOrder = DEGREVLEX,
    budget: int | None = None,
    track: bool = False,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by pure-difference
    binomials.

    Whenever the run returns, the basis is canonical for the order: the
    same for every input order.  Whether it returns can depend on the
    input order, since the intermediate degrees (checked against the
    engine's degree cap) and the number of S-pair reductions do.
    ``budget`` caps the number of S-pair reductions and raises
    ResourceBudgetExceeded beyond it.  With ``track``, each basis element
    carries a certificate over the input generators.
    """
    gens = _checked(gens)
    engine = _Engine(_universe(gens, order.last), order)
    final, final_prov = _run_buchberger(
        engine, [engine.orient(g) for g in gens], budget, track)
    elements = tuple(engine.from_binomial4(b4) for b4 in final)
    construction = None
    if track:
        construction = tuple(Certificate(b, _cert_terms(engine, gens, flat))
                             for b, flat in zip(elements, final_prov))
    return GroebnerBasis(order, elements, construction)


def _natural(packed: int, r: int, top: int) -> int:
    """Repack a monomial from the degrevlex layout with the variable of
    priority rank r (0 for the highest) last to the natural one, where
    field r holds it: demoting it moved its field to the top, field
    n - 1 at bit ``top``, and the fields above rank r down by one."""
    low = _FIELD * r
    return ((packed & ((1 << low) - 1)) | ((packed >> top) << low)
            | ((packed & ((1 << top) - 1)) >> low << (low + _FIELD)))


def _move_last(packed: int, ra: int, rb: int, top: int) -> int:
    """Repack a monomial from the degrevlex layout with variable a last
    to the one with variable b last, over one universe; ``ra`` and ``rb``
    are the ranks of a and b (see ``_natural``)."""
    natural, low = _natural(packed, ra, top), _FIELD * rb
    return ((natural & ((1 << low) - 1)) | ((natural >> (low + _FIELD)) << low)
            | (((natural >> low) & _FMASK) << top))


def saturate(
    gens: Sequence[Binomial],
    variables: Sequence[Variable],
    budget: int | None = None,
) -> list[Binomial]:
    """Saturate by each variable v in turn: the reduced Groebner basis
    under degrevlex with v last, then every element divided by the
    largest power of v dividing both its terms.  ``budget`` caps the
    S-pair reductions of each Buchberger run, not counting the pairs
    that the Hilbert series proves zero.

    The basis stays packed from step to step, over one universe (the
    variables of ``gens`` and ``variables``), and each step repacks it
    with ``_move_last``.  A step after the first only interreduces its
    input when the input's leads have the Hilbert series of the ideal,
    and otherwise prunes its full run by the difference of the two
    series (the theorems are in ``toric.saturate_generators``).  The
    ideal's series is read off the previous step's leads, again only
    when the division changed an element, and never for inhomogeneous
    ``gens``, which the division keeps no Groebner basis of.  Every
    series is read in the natural layout, so one memo serves all steps,
    and from ``_hilbert_numerator``: patched to return None, it turns off
    the skips and the pruning both.
    """
    gens = _checked(gens)
    if not variables:
        return list(gens)
    universe = _universe(gens, variables)
    rank = {v: len(universe) - 1 - i for i, v in enumerate(universe)}
    top = _FIELD * (len(universe) - 1)
    homogeneous = all(g.plus.degree == g.minus.degree for g in gens)
    memo: dict = {}
    series = prev = gap = None
    for v in variables:
        engine = _Engine(universe, TermOrder("degrevlex", last=(v,)))
        r = rank[v]
        if prev is None:
            oriented = [engine.orient(g) for g in gens]
        else:
            ra = rank[prev]
            oriented = [
                engine.orient_packed((ld, _move_last(lp, ra, r, top)),
                                     (td, _move_last(tp, ra, r, top)))
                for ld, lp, td, tp in current
            ]
        if series is not None:
            leads = _hilbert_numerator(
                engine, (_natural(b4[1], r, top) for b4, _ in oriented), memo)
            gap = [a - b for a, b in zip_longest(leads, series, fillvalue=0)]
        if gap is not None and not any(gap):
            elems = [_Elem(engine, b4) for b4, _ in oriented]
            reduced = _interreduce(engine, elems, [None] * len(elems), False)[0]
        else:
            reduced = _run_buchberger(engine, oriented, budget, False, gap)[0]
        current = []
        changed = False
        for ld, lp, td, tp in reduced:
            k = min(lp >> top, tp >> top)
            if k:
                changed = True
                ld, lp, td, tp = ld - k, lp - (k << top), td - k, tp - (k << top)
            current.append((ld, lp, td, tp))
        if homogeneous and (series is None or changed):
            series = _hilbert_numerator(
                engine, (_natural(b4[1], r, top) for b4 in current), memo)
        prev = v
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
