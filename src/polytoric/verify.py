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
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .binom import (
    DEGREVLEX,
    ZERO,
    Binomial,
    CertTerm,
    Certificate,
    Monomial,
    TermOrder,
    buchberger,
    certificate_is_exact,
    reduce as binom_reduce,
    vertex_var,
)
from .errors import NotInKernel, ResourceBudgetExceeded
from .grid import (
    GridInterval,
    GridPoint,
    RectDiffConfig,
    build_rect_diff,
    enumerate_inner_minors,
    inner_intervals,
    is_inner_interval,
    point_key,
)
from .labelling import LabelMap, build_label_map
from .toric import phi_image_from_labels, toric_generators


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
        a, b, ai, bi = self.instance.as_tuples()
        return {
            "instance": {"outer": {"a": list(a), "b": list(b)},
                         "hole": {"a": list(ai), "b": list(bi)}},
            "num_cells": self.num_cells,
            "num_vertices": self.num_vertices,
            "max_label": self.max_label,
            "num_inner_minors": self.num_inner_minors,
            "ip_in_jp": self.ip_in_jp,
            "quadratic_classification_violations":
                self.quadratic_classification_violations,
            "ideals_equal": self.ideals_equal,
            "gb_sizes": list(self.gb_sizes),
            "max_gb_degree": self.max_gb_degree,
            "prime_corollary": self.prime_corollary,
            "budget_exceeded_stage": self.budget_exceeded_stage,
            "timings": self.timings,
        }

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
        "vertices": [p.as_tuple() for p in points],
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
    p = build_rect_diff(lm.cfg)
    points = sorted(lm.labels, key=point_key)
    groups: dict[tuple, list[tuple[GridPoint, GridPoint]]] = {}
    for i, u in enumerate(points):
        for w in points[i:]:
            image = (
                tuple(sorted((u.x, w.x))),
                tuple(sorted((u.y, w.y))),
                tuple(sorted((lm.labels[u], lm.labels[w]))),
            )
            groups.setdefault(image, []).append((u, w))
    balanced = []
    violations = []
    for image in sorted(groups):
        members = groups[image]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pair = (members[i], members[j])
                balanced.append(pair)
                if not _is_minor_pair(p, *pair):
                    violations.append(
                        _violation("balanced_pair_not_inner_minor", lm,
                                   [*pair[0], *pair[1]])
                    )
    return QuadraticScan(balanced, violations, hole_containment_violations(lm))


def _is_minor_pair(p, m1: tuple[GridPoint, GridPoint], m2) -> bool:
    pts = [*m1, *m2]
    lo = GridPoint(min(q.x for q in pts), min(q.y for q in pts))
    hi = GridPoint(max(q.x for q in pts), max(q.y for q in pts))
    if not lo.lt(hi):
        return False
    iv = GridInterval(lo, hi)
    diag = {iv.lo, iv.hi}
    anti = set(iv.anti_diagonal())
    sets = (set(m1), set(m2))
    if not ((sets[0] == diag and sets[1] == anti)
            or (sets[0] == anti and sets[1] == diag)):
        return False
    return is_inner_interval(p, iv)


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
    monomial pairs grouped by image."""
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
            groups.setdefault(phi_image_from_labels(mono, lm), []).append(mono)
        for image in sorted(groups, key=str):
            members = groups[image]
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    out.append(Binomial(members[i], members[j]))
    return out


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
    """Reusable certifier: tracked degrevlex Groebner basis of the inner
    minors, ready to express kernel binomials as combinations of minors."""

    def __init__(self, cfg: RectDiffConfig):
        self.cfg = cfg
        self.labels = build_label_map(cfg)
        self.minors = enumerate_inner_minors(build_rect_diff(cfg))
        self.basis = buchberger(self.minors, DEGREVLEX, track=True)

    def certify(self, f: Binomial) -> Certificate:
        if phi_image_from_labels(f.plus, self.labels) != phi_image_from_labels(
            f.minus, self.labels
        ):
            raise NotInKernel(
                f"images differ, {f} is provably outside the ideal"
            )
        nf, cert = binom_reduce(f, self.basis, DEGREVLEX, track=True)
        if nf is not ZERO:
            raise AssertionError(
                f"kernel binomial {f} did not reduce to zero against the basis"
            )
        terms = []
        for step in cert.terms:
            idx = self.basis.elements.index(step.generator)
            for inner in self.basis.construction[idx].terms:
                terms.append(
                    CertTerm(
                        inner.generator,
                        step.multiplier * inner.multiplier,
                        step.sign * inner.sign,
                    )
                )
        out = Certificate(f, tuple(terms))
        if not certificate_is_exact(out):
            raise AssertionError("certificate expansion does not telescope")
        return out
