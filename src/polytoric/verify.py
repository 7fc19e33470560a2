"""Machine verification of the ideal equality and its supporting facts.

``check_theorem`` builds the polyomino, the labelling, the inner-minor
generators and the independently computed toric basis, and certifies
equality of the two ideals by comparing reduced Groebner bases under
one fixed order.  The brute-force scans (quadratic classification,
hole containment) take a label map as input so corrupted labellings can
be pushed through the same code paths by mutation tests.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import combinations

from .binom import (
    DEGREVLEX,
    ZERO,
    Binomial,
    Certificate,
    GroebnerBasis,
    TermOrder,
    buchberger,
    certificate_is_exact,
    reduce as binom_reduce,
)
from .errors import NotInKernel, PolytoricError, ResourceBudgetExceeded
from .grid import (
    GridInterval,
    GridPoint,
    RectDiffConfig,
    build_rect_diff,
    enumerate_inner_minors,
    inner_intervals,
)
from .labelling import LabelMap, build_label_map
from .toric import _fiber_binomials, _fibers, phi_image, toric_generators


@dataclass
class VerificationReport:
    """Everything the equality check establishes for one instance."""

    instance: RectDiffConfig
    num_cells: int = 0
    num_vertices: int = 0
    max_label: int = 0
    num_inner_minors: int = 0
    ip_in_jp: bool = False
    quadratic_classification_violations: list = field(default_factory=list)
    ideals_equal: bool = False
    gb_sizes: tuple[int, int] = (0, 0)
    max_gb_degree: int = 0
    prime_corollary: bool = False
    budget_exceeded_stage: str | None = None
    timings: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        body = {f.name: getattr(self, f.name) for f in fields(self)}
        body["instance"] = self.instance.to_json_dict()
        body["gb_sizes"] = list(self.gb_sizes)
        return body

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _t_multisets(lm: LabelMap, iv: GridInterval):
    e1, e2 = iv.anti_diagonal()
    diag = tuple(sorted((lm.labels[iv.lo], lm.labels[iv.hi])))
    anti = tuple(sorted((lm.labels[e1], lm.labels[e2])))
    return diag, anti


def minors_balanced(lm: LabelMap) -> bool:
    """True iff the map annihilates every inner minor: for each inner
    interval the diagonal and anti-diagonal label multisets agree."""
    p = build_rect_diff(lm.cfg)
    for iv in inner_intervals(p):
        diag, anti = _t_multisets(lm, iv)
        if diag != anti:
            return False
    return True


@dataclass(frozen=True)
class QuadraticScan:
    """Exhaustive classification of the kernel's quadratic binomials."""

    balanced_pairs: list
    violations: list
    hole_violations: list


def _violation(kind: str, lm: LabelMap, points) -> dict:
    return {
        "kind": kind,
        "vertices": list(points),
        "labels": [lm.labels.get(p) for p in points],
    }


def quadratic_scan(lm: LabelMap) -> QuadraticScan:
    """Scan all pairs of degree-2 vertex monomials with equal images.

    Each unordered pair {u, w} with u != w and equal images must be the
    diagonal / anti-diagonal pair of an inner interval; anything else is
    a violation.  The hole-containment subcase is scanned as well: every
    proper interval strictly containing the hole must carry diagonal
    labels {1, 1} and anti-diagonal labels {2, 2}.
    """
    # Each side is a point tuple in (x, y) order, as in the fibers.
    minor_pairs = {
        frozenset(((iv.lo, iv.hi), iv.anti_diagonal()))
        for iv in inner_intervals(build_rect_diff(lm.cfg))
    }
    fibers = _fibers(lm, 2)
    balanced = []
    violations = []
    for image in sorted(fibers):
        for pair in combinations(fibers[image], 2):
            balanced.append(pair)
            if frozenset(pair) not in minor_pairs:
                violations.append(
                    _violation("balanced_pair_not_inner_minor", lm,
                               [*pair[0], *pair[1]])
                )
    return QuadraticScan(balanced, violations, hole_containment_violations(lm))


def hole_containing_intervals(cfg: RectDiffConfig):
    """Proper intervals within the outer rectangle whose cell region
    strictly contains the hole's cell region."""
    out = []
    for cx in range(cfg.a.x, cfg.a_inner.x + 1):
        for cy in range(cfg.a.y, cfg.a_inner.y + 1):
            for dx in range(cfg.b_inner.x, cfg.b.x + 1):
                for dy in range(cfg.b_inner.y, cfg.b.y + 1):
                    lo, hi = GridPoint(cx, cy), GridPoint(dx, dy)
                    if lo == cfg.a_inner and hi == cfg.b_inner:
                        continue
                    out.append(GridInterval(lo, hi))
    return out


def hole_containment_violations(lm: LabelMap) -> list:
    """Intervals strictly containing the hole whose diagonal labels are
    not {1, 1} or anti-diagonal labels not {2, 2}."""
    violations = []
    for iv in hole_containing_intervals(lm.cfg):
        diag, anti = _t_multisets(lm, iv)
        if diag != (1, 1) or anti != (2, 2):
            violations.append(
                _violation("hole_containment", lm, list(iv.corners()))
            )
    return violations


def kernel_binomials_up_to_degree(lm: LabelMap, max_degree: int) -> list[Binomial]:
    """Every binomial u - w with deg u = deg w <= max_degree over the
    vertex variables and equal images, by brute-force enumeration of
    monomial pairs grouped by image (``toric._fibers``).  Per degree the
    groups come sorted by the text of their image, and the members of a
    group in enumeration order."""
    return [f for deg in range(1, max_degree + 1) for f in _fiber_binomials(lm, deg)]


def check_theorem(
    cfg: RectDiffConfig,
    order: TermOrder = DEGREVLEX,
    budget: int | None = None,
) -> VerificationReport:
    """Full verification for one instance.

    On a budget overrun the report is returned with the exceeded stage
    marked and the equality flags left False.
    """
    report = VerificationReport(instance=cfg)

    @contextmanager
    def stage(name: str):
        # The time is recorded even when the stage overruns its budget.
        t0 = time.perf_counter()
        try:
            yield
        except ResourceBudgetExceeded:
            report.budget_exceeded_stage = name
            raise
        finally:
            report.timings[f"{name}_ms"] = (time.perf_counter() - t0) * 1000.0

    try:
        with stage("build"):
            p = build_rect_diff(cfg)
            lm = build_label_map(cfg)
            report.num_cells = len(p.cells)
            report.num_vertices = len(lm.labels)
            report.max_label = lm.max_label

        with stage("inner_minors"):
            minors = enumerate_inner_minors(p)
            report.num_inner_minors = len(minors)
            report.ip_in_jp = minors_balanced(lm)

        with stage("quadratic_scan"):
            scan = quadratic_scan(lm)
            report.quadratic_classification_violations = (
                scan.violations + scan.hole_violations
            )

        with stage("toric_generators"):
            jp = toric_generators(lm, order=order, budget=budget)

        with stage("groebner_inner_minors"):
            gb_ip = buchberger(minors, order, budget=budget)

        with stage("compare"):
            report.gb_sizes = (len(gb_ip.elements), len(jp))
            degrees = [g.degree for g in gb_ip.elements] + [g.degree for g in jp]
            report.max_gb_degree = max(degrees, default=0)
            report.ideals_equal = list(gb_ip.elements) == list(jp)
            report.prime_corollary = report.ideals_equal
    except ResourceBudgetExceeded:
        pass
    return report


class MembershipCertifier:
    """Reusable certifier: expresses kernel binomials as signed monomial
    multiples of the inner minors.

    The constructor checks that the reduced degrevlex basis of the minors
    is the minors, up to the sign of each, or raises PolytoricError.  So
    the minors are a Groebner basis, and ``certify`` divides by them as
    given: each term names a minor.  The GroebnerBasis wrapper only keeps
    one packed form across calls; ``reduce`` reads its elements in their
    given order and signs, as it would a plain list.
    """

    def __init__(self, cfg: RectDiffConfig):
        self.cfg = cfg
        self.labels = build_label_map(cfg)
        self.minors = enumerate_inner_minors(build_rect_diff(cfg))
        reduced = buchberger(self.minors, DEGREVLEX).elements
        if (len(reduced) != len(self.minors)
                or set(map(frozenset, reduced)) != set(map(frozenset, self.minors))):
            raise PolytoricError(
                f"the inner minors are not their own reduced Groebner basis: "
                f"{len(self.minors)} minors, {len(reduced)} basis elements"
            )
        self.basis = GroebnerBasis(DEGREVLEX, tuple(self.minors))

    def certify(self, f: Binomial) -> Certificate:
        if phi_image(f.plus, self.labels) != phi_image(f.minus, self.labels):
            raise NotInKernel(
                f"images differ, {f} is provably outside the ideal"
            )
        nf, cert = binom_reduce(f, self.basis, DEGREVLEX, track=True)
        if nf is not ZERO:
            raise PolytoricError(
                f"kernel binomial {f} does not reduce to zero against the inner minors"
            )
        if not certificate_is_exact(cert):
            raise AssertionError("certificate expansion does not telescope")
        return cert
