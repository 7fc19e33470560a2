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
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Sequence, Union

from .errors import ParseError, ResourceBudgetExceeded

_KIND_RANK = {"r": 0, "s": 1, "t": 2, "x": 3}


@dataclass(frozen=True)
class Variable:
    """A ring variable: vertex variable x[i,j] or target variable r/s/t[i]."""

    kind: str
    i: int
    j: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.i < 0 or self.j < 0:
            raise ValueError("variable indices must be non-negative")

    def sort_key(self) -> tuple[int, int, int]:
        return (_KIND_RANK[self.kind], self.i, self.j)

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

    Exponents are strictly positive; the empty tuple is the unit.
    Instances are immutable and hashable.
    """

    __slots__ = ("exps", "_hash")

    def __init__(self, exps: Iterable[tuple[Variable, int]] = ()):
        items = [(v, e) for v, e in exps if e != 0]
        for _, e in items:
            if e < 0:
                raise ValueError("negative exponent in monomial")
        items.sort(key=lambda p: p[0].sort_key())
        object.__setattr__(self, "exps", tuple(items))
        object.__setattr__(self, "_hash", hash(self.exps))

    def __setattr__(self, *_):
        raise AttributeError("Monomial is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def is_unit(self) -> bool:
        return not self.exps

    def exponent(self, v: Variable) -> int:
        for w, e in self.exps:
            if w == v:
                return e
        return 0

    def variables(self) -> tuple[Variable, ...]:
        return tuple(v for v, _ in self.exps)

    def as_dict(self) -> dict[Variable, int]:
        return dict(self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        d = self.as_dict()
        for v, e in other.exps:
            d[v] = d.get(v, 0) + e
        return Monomial(d.items())

    def divides(self, other: "Monomial") -> bool:
        od = other.as_dict()
        return all(od.get(v, 0) >= e for v, e in self.exps)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        d = self.as_dict()
        for v, e in other.exps:
            r = d.get(v, 0) - e
            if r < 0:
                raise ValueError(f"{other} does not divide {self}")
            d[v] = r
        return Monomial(d.items())

    def lcm(self, other: "Monomial") -> "Monomial":
        d = self.as_dict()
        for v, e in other.exps:
            if d.get(v, 0) < e:
                d[v] = e
        return Monomial(d.items())

    def gcd(self, other: "Monomial") -> "Monomial":
        od = other.as_dict()
        return Monomial((v, min(e, od.get(v, 0))) for v, e in self.exps)

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
    """Sentinel for the zero binomial; never encoded as plus == minus."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

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

    def variables(self) -> tuple[Variable, ...]:
        seen = dict.fromkeys(self.plus.variables())
        seen.update(dict.fromkeys(self.minus.variables()))
        return tuple(sorted(seen, key=Variable.sort_key))

    def normalized(self, order: "TermOrder") -> "Binomial":
        """Copy with plus the leading monomial under the given order."""
        if order.greater(self.plus, self.minus):
            return self
        return Binomial(self.minus, self.plus)

    def __str__(self) -> str:
        return f"{self.plus} - {self.minus}"

    def __repr__(self) -> str:
        return f"Binomial({self})"


@dataclass(frozen=True)
class TermOrder:
    """A monomial well-order: degrevlex or lex over a variable priority.

    The default priority compares variables by their sort key, larger
    keys ranking higher (for vertex variables: later points have higher
    priority).  ``head`` lists variables promoted above everything, most
    significant first; ``last`` lists variables demoted below everything
    (used to saturate with respect to one variable).
    """

    kind: str = "degrevlex"
    head: tuple[Variable, ...] = ()
    last: tuple[Variable, ...] = ()

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex"):
            raise ValueError(f"unknown term order kind {self.kind!r}")

    def priority_sorted(self, variables: Iterable[Variable]) -> list[Variable]:
        """The universe sorted by descending priority."""
        universe = set(variables)
        head = [v for v in self.head if v in universe]
        last = [v for v in self.last if v in universe and v not in head]
        special = set(head) | set(last)
        mid = sorted((v for v in universe - special), key=Variable.sort_key, reverse=True)
        return head + mid + last

    def greater(self, a: Monomial, b: Monomial) -> bool:
        """True iff a > b under this order."""
        if a == b:
            return False
        if self.kind == "degrevlex":
            da, db = a.degree, b.degree
            if da != db:
                return da > db
        support = {v for v, _ in a.exps} | {v for v, _ in b.exps}
        pr = self.priority_sorted(support)
        if self.kind == "lex":
            for v in pr:
                ea, eb = a.exponent(v), b.exponent(v)
                if ea != eb:
                    return ea > eb
            return False
        for v in reversed(pr):
            ea, eb = a.exponent(v), b.exponent(v)
            if ea != eb:
                return ea < eb
        return False


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
    """A reduced Groebner basis, sorted ascending by leading monomial.

    When built with tracking, ``construction`` holds one certificate per
    element expressing it in terms of the input generators.
    """

    order: TermOrder
    elements: tuple[Binomial, ...]
    construction: tuple[Certificate, ...] | None = None

    def __len__(self):
        return len(self.elements)

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.plus for g in self.elements)


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
        `_interreduce` raise ResourceBudgetExceeded before a monomial
        reaches the cap.

    A support mask (`mask_of`) holds the guard bit of each nonzero field,
    so `e.mask & m == e.mask` tests support inclusion and `ma & mb == 0`
    tests coprimality.

    Engine monomials are (degree, packed) pairs; engine binomials are
    4-tuples (lead_deg, lead, trail_deg, trail) with lead > trail.
    """

    def __init__(self, variables: Sequence[Variable], order: TermOrder):
        self.vars = tuple(variables)
        self.order = order
        self.n = len(self.vars)
        self.index = {v: i for i, v in enumerate(self.vars)}
        if len(self.index) != self.n:
            raise ValueError("duplicate variables in universe")
        pr = order.priority_sorted(self.vars)
        if order.kind == "degrevlex":
            slot = {v: k for k, v in enumerate(pr)}
        else:
            slot = {v: len(pr) - 1 - k for k, v in enumerate(pr)}
        self.shift = tuple(_FIELD * slot[v] for v in self.vars)
        self.H = sum(_GUARD << (_FIELD * s) for s in range(self.n))
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
        return Monomial(pairs)

    def mask_of(self, packed: int) -> int:
        return ((packed | self.H) - self.ONES) & self.H

    def to_binomial4(self, b: Binomial):
        p = self.pack(b.plus)
        m = self.pack(b.minus)
        if self.greater(p, m):
            return p + m
        return m + p

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
        # Ascending in the term order; degree first is harmless for lex
        # because it is only used to sort reducers.
        return (deg, -packed) if self._drl else (deg, packed)

    def divides(self, a_packed: int, b_packed: int) -> bool:
        return ((b_packed | self.H) - a_packed) & self.H == self.H

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
    """Growing basis with a degree-sorted reducer index and, when
    tracking, a provenance record per element.

    Provenance entries are ("gen", k) for input generator k, or
    ("comb", steps) with steps a tuple of (elem_index, (deg, packed),
    sign) meaning value = sum sign * multiplier * value(elem_index).
    """

    def __init__(self, engine: _Engine, track: bool):
        self.engine = engine
        self.track = track
        self.elems: list[_Elem] = []
        self.prov: list[tuple] = []
        self._keys: list[tuple] = []   # sorted reducer keys
        self._order: list[int] = []    # element indices aligned with _keys

    def append(self, e: _Elem, prov) -> int:
        idx = len(self.elems)
        self.elems.append(e)
        if self.track:
            self.prov.append(prov)
        key = self.engine.sort_key(e.ld, e.lp) + (idx,)
        pos = bisect_left(self._keys, key)
        self._keys.insert(pos, key)
        self._order.insert(pos, idx)
        return idx

    def find_reducer(self, deg: int, packed: int, mask: int) -> int:
        """Index of the first (smallest-lead) element whose lead divides
        the monomial, or -1."""
        engine = self.engine
        elems = self.elems
        for pos, idx in enumerate(self._order):
            e = elems[idx]
            if e.ld > deg:
                return -1
            if (e.mask & mask) == e.mask and engine.divides(e.lp, packed):
                return idx
        return -1

    def reduce(self, b4, collect_steps: bool):
        """Full normal form of an engine binomial against the basis.

        Returns (result_or_None, steps, sigma).  The input polynomial
        equals sigma * result + sum(sign * mult * elems[idx]) over the
        steps: the lead/trail representation is sign-agnostic, so a
        running sign tracks every step that swaps the two sides.
        """
        engine = self.engine
        ld, lp, td, tp = b4
        sigma = 1
        steps: list[tuple[int, tuple[int, int], int]] = []
        while True:
            k = self.find_reducer(ld, lp, engine.mask_of(lp))
            if k < 0:
                break
            e = self.elems[k]
            mult = (ld - e.ld, lp - e.lp)
            if collect_steps:
                steps.append((k, mult, sigma))
            ad, ap = mult[0] + e.td, mult[1] + e.tp
            if ad >= _DEGREE_CAP:
                raise _degree_cap_exceeded()
            if ap == tp:
                return None, steps, sigma
            if engine.greater((ad, ap), (td, tp)):
                ld, lp = ad, ap
            else:
                ld, lp, td, tp = td, tp, ad, ap
                sigma = -sigma
        while True:
            k = self.find_reducer(td, tp, engine.mask_of(tp))
            if k < 0:
                break
            e = self.elems[k]
            mult = (td - e.ld, tp - e.lp)
            if collect_steps:
                steps.append((k, mult, -sigma))
            td, tp = mult[0] + e.td, mult[1] + e.tp
            if td >= _DEGREE_CAP:
                raise _degree_cap_exceeded()
        return (ld, lp, td, tp), steps, sigma


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


def _gm_update(engine: _Engine, basis: _Basis, pairs: dict, heap: list, b4, prov):
    """Add an element and refresh the S-pair queue with the
    Gebauer-Moeller criteria.

    ``pairs`` maps each live pair (i, j) to its packed lcm; ``heap``
    orders them by (lcm degree, i, j) and may still hold pairs pruned
    here, which the caller skips when it pops them.
    """
    new_elem = _Elem(engine, b4)
    m = len(basis.elems)
    lmf, maskf = new_elem.lp, new_elem.mask
    H = engine.H
    # Prune existing pairs strictly dominated by the new element.
    for (i, j), lpk in list(pairs.items()):
        if ((lpk | H) - lmf) & H == H:
            li = engine.lcm(basis.elems[i].lp, lmf)[1]
            lj = engine.lcm(basis.elems[j].lp, lmf)[1]
            if lpk != li and lpk != lj:
                del pairs[(i, j)]
    # Minimal new lcms, one pair per lcm, coprime pairs dropped.
    by_lcm: dict[int, tuple[int, list[int]]] = {}
    for i, e in enumerate(basis.elems):
        deg, lpk = engine.lcm(e.lp, lmf)
        by_lcm.setdefault(lpk, (deg, []))[1].append(i)
    kept: list[int] = []
    for lpk in sorted(by_lcm, key=lambda p: (by_lcm[p][0], p)):
        if any(((lpk | H) - other) & H == H for other in kept):
            continue
        kept.append(lpk)
        deg, group = by_lcm[lpk]
        if any(basis.elems[i].mask & maskf == 0 for i in group):
            continue
        first = min(group)
        pairs[(first, m)] = lpk
        heappush(heap, (deg, first, m))
    basis.append(new_elem, prov)


def _interreduce(engine: _Engine, basis: _Basis):
    """Reduced basis from a Groebner basis: minimal leads, reduced tails.

    Returns (elements as b4 tuples sorted ascending by lead, provenance
    per element when tracking).
    """
    order = sorted(
        range(len(basis.elems)),
        key=lambda i: engine.sort_key(basis.elems[i].ld, basis.elems[i].lp) + (i,),
    )
    minimal = _Basis(engine, track=False)
    kept: list[int] = []
    for idx in order:
        e = basis.elems[idx]
        if minimal.find_reducer(e.ld, e.lp, e.mask) < 0:
            minimal.append(e, None)
            kept.append(idx)
    final = []
    final_prov = []
    for idx in kept:
        e = basis.elems[idx]
        td, tp = e.td, e.tp
        steps = []
        while True:
            # The element's own lead never divides its tail (that would
            # force tail >= lead), so reducing against all kept leads is
            # safe.
            k = minimal.find_reducer(td, tp, engine.mask_of(tp))
            if k < 0:
                break
            r = minimal.elems[k]
            mult = (td - r.ld, tp - r.lp)
            steps.append((kept[k], mult, -1))
            td, tp = mult[0] + r.td, mult[1] + r.tp
            if td >= _DEGREE_CAP:
                raise _degree_cap_exceeded()
        final.append((e.ld, e.lp, td, tp))
        if basis.track:
            comb = (((idx, (0, 0), 1),) + tuple((i, m, -s) for i, m, s in steps))
            final_prov.append(("comb", comb))
    return final, final_prov


def _flatten_entry(entry, memo, flips):
    """Flatten one provenance entry against fully-expanded references."""
    if entry[0] == "gen":
        k = entry[1]
        return ((k, (0, 0), flips[k]),)
    flat = []
    for ref, (md, mp), sg in entry[1]:
        for k, (md2, mp2), sg2 in memo[ref]:
            flat.append((k, (md + md2, mp + mp2), sg * sg2))
    return tuple(flat)


def _expand_provenance(basis: _Basis, entries, flips):
    """Flatten provenance entries to ((gen_index, (deg, packed), sign), ...).

    References always point to earlier basis indices, so one ascending
    pass expands everything without recursion.
    """
    needed = set()
    stack = []
    for entry in entries:
        if entry[0] == "comb":
            stack.extend(ref for ref, _, _ in entry[1])
    while stack:
        ref = stack.pop()
        if ref in needed:
            continue
        needed.add(ref)
        entry = basis.prov[ref]
        if entry[0] == "comb":
            stack.extend(r for r, _, _ in entry[1])
    memo: dict[int, tuple] = {}
    for ref in sorted(needed):
        memo[ref] = _flatten_entry(basis.prov[ref], memo, flips)
    return [_flatten_entry(entry, memo, flips) for entry in entries]


def _run_buchberger(engine: _Engine, gens: Sequence[Binomial], budget, track):
    basis = _Basis(engine, track)
    pairs: dict[tuple[int, int], int] = {}
    heap: list[tuple[int, int, int]] = []
    flips = []
    for k, g in enumerate(gens):
        p = engine.pack(g.plus)
        m = engine.pack(g.minus)
        flips.append(1 if engine.greater(p, m) else -1)
        b4 = p + m if flips[-1] == 1 else m + p
        _gm_update(engine, basis, pairs, heap, b4, ("gen", k))
    reductions = 0
    while heap:
        _, i, j = heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue  # pruned after it was queued
        reductions += 1
        if budget is not None and reductions > budget:
            raise ResourceBudgetExceeded(
                f"S-pair reduction budget of {budget} exceeded"
            )
        s, sig_s, ui, uj = _spoly4(engine, basis.elems[i], basis.elems[j])
        if s is None:
            continue
        nf, steps, sig_f = basis.reduce(s, collect_steps=track)
        if nf is None:
            continue
        prov = None
        if track:
            # stored = sig_f * (s - sum steps) and s = sig_s * (ui*e_i - uj*e_j)
            sf = sig_f * sig_s
            comb = ((i, ui, sf), (j, uj, -sf)) + tuple(
                (k, m, -sig_f * sg) for k, m, sg in steps
            )
            prov = ("comb", comb)
        _gm_update(engine, basis, pairs, heap, nf, prov)
    final, final_prov = _interreduce(engine, basis)
    elements = tuple(engine.from_binomial4(b4) for b4 in final)
    construction = None
    if track:
        certs = []
        for b4, flat in zip(final, _expand_provenance(basis, final_prov, flips)):
            terms = tuple(
                CertTerm(gens[k], engine.unpack(mp), sg) for k, (_, mp), sg in flat
            )
            certs.append(Certificate(engine.from_binomial4(b4), terms))
        construction = tuple(certs)
    return elements, construction


# --------------------------------------------------------------------------
# Public operations
# --------------------------------------------------------------------------


def _universe(
    order: TermOrder,
    binomials: Iterable[Binomial],
    variables: Iterable[Variable] | None,
) -> tuple[Variable, ...]:
    seen: dict[Variable, None] = {}
    if variables is not None:
        seen.update(dict.fromkeys(variables))
    for b in binomials:
        seen.update(dict.fromkeys(b.variables()))
    seen.update(dict.fromkeys(order.head))
    seen.update(dict.fromkeys(order.last))
    return tuple(sorted(seen, key=Variable.sort_key))


def spoly(f: Binomial, g: Binomial, order: TermOrder = DEGREVLEX) -> BinomialOrZero:
    """S-polynomial of two pure-difference binomials (or ZERO)."""
    engine = _Engine(_universe(order, (f, g), None), order)
    ef = _Elem(engine, engine.to_binomial4(f))
    eg = _Elem(engine, engine.to_binomial4(g))
    s, _, _, _ = _spoly4(engine, ef, eg)
    if s is None:
        return ZERO
    return engine.from_binomial4(s)


def reduce(
    f: BinomialOrZero,
    basis: Sequence[Binomial] | GroebnerBasis,
    order: TermOrder = DEGREVLEX,
    track: bool = False,
):
    """Normal form of f modulo the basis; with track, also a Certificate.

    The certificate satisfies f = normal_form + sum(sign * mult * gen)
    over its terms, exactly at the exponent level.
    """
    gens = tuple(basis.elements if isinstance(basis, GroebnerBasis) else basis)
    for g in gens:
        if not isinstance(g, Binomial):
            raise ValueError("basis elements must be nonzero binomials")
    if f is ZERO:
        return (ZERO, None) if track else ZERO
    engine = _Engine(_universe(order, gens + (f,), None), order)
    b = _Basis(engine, track=False)
    for g in gens:
        b.append(_Elem(engine, engine.to_binomial4(g)), None)
    nf4, steps, sigma = b.reduce(engine.to_binomial4(f), collect_steps=track)
    nf: BinomialOrZero = ZERO if nf4 is None else engine.from_binomial4(nf4)
    # The engine reduced the normalized image of f, and its lead/trail
    # representation may carry an extra sign; undo both so the identity
    # f = nf + sum(sign * mult * gen) holds over the inputs as given.
    f_flip = 1 if order.greater(f.plus, f.minus) else -1
    if f_flip * sigma < 0 and nf is not ZERO:
        nf = Binomial(nf.minus, nf.plus)
    if not track:
        return nf
    terms = []
    for k, (_, mp), sg in steps:
        gen = gens[k]
        gen_flip = 1 if order.greater(gen.plus, gen.minus) else -1
        terms.append(CertTerm(gen, engine.unpack(mp), sg * gen_flip * f_flip))
    return nf, Certificate(f, tuple(terms))


def buchberger(
    gens: Sequence[Binomial],
    order: TermOrder = DEGREVLEX,
    variables: Iterable[Variable] | None = None,
    budget: int | None = None,
    track: bool = False,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by pure-difference
    binomials; canonical for a fixed order, independent of input order.

    ``budget`` caps the number of S-pair reductions and raises
    ResourceBudgetExceeded beyond it.  With ``track``, each basis element
    carries a certificate over the input generators.
    """
    gens = tuple(gens)
    for g in gens:
        if g is ZERO or not isinstance(g, Binomial):
            raise ValueError("generators must be nonzero binomials")
    engine = _Engine(_universe(order, gens, variables), order)
    elements, construction = _run_buchberger(engine, gens, budget, track)
    return GroebnerBasis(order, elements, construction)


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
    exps: dict[Variable, int] = {}
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
        exps[v] = exps.get(v, 0) + e
    return Monomial(exps.items())


def parse_binomial(text: str) -> Binomial:
    parts = text.split("-")
    if len(parts) != 2:
        raise ParseError("a binomial must be '<monomial> - <monomial>'")
    plus = parse_monomial(parts[0])
    minus = parse_monomial(parts[1])
    if plus == minus:
        raise ParseError("zero binomial (both monomials equal)")
    return Binomial(plus, minus)
