import hashlib
import json
import random

import pytest
from conftest import FRAME_7X5, MEDIUM_A, MEDIUM_B, SMALL, THICK_FRAME, cfg_of, sweep_configs
from helpers import is_minor_pair, kernel_binomials_reference

from polytoric.binom import (
    DEGREVLEX,
    UNIT,
    ZERO,
    Binomial,
    Monomial,
    buchberger,
    certificate_is_exact,
    expand_certificate,
    parse_binomial,
    reduce,
    vertex_var,
)
from polytoric.errors import NotInKernel
from polytoric.grid import (
    GridInterval,
    GridPoint,
    build_rect_diff,
    enumerate_inner_minors,
    inner_intervals,
)
from polytoric.labelling import LabelMap, build_label_map
from polytoric.toric import (
    build_matrix,
    lattice_kernel,
    phi_image,
    toric_generators,
)
from polytoric.verify import (
    MembershipCertifier,
    check_theorem,
    hole_containing_intervals,
    hole_containment_violations,
    kernel_binomials_up_to_degree,
    minors_balanced,
    quadratic_scan,
)


def x(i, j) -> Monomial:
    return Monomial([(vertex_var((i, j)), 1)])


# -- the easy inclusion -------------------------------------------------------


@pytest.mark.parametrize("coords", [SMALL, MEDIUM_A, MEDIUM_B, FRAME_7X5])
def test_check_ip_in_jp(coords):
    assert minors_balanced(build_label_map(cfg_of(coords)))


def test_minor_balance_breaks_under_any_label_perturbation():
    lm = build_label_map(cfg_of(SMALL))
    for v in lm.points():
        assert not minors_balanced(lm.with_label(v, lm.labels[v] + 1))


def test_phi_annihilation_matches_label_balance():
    """The two formulations of the inclusion agree interval by interval:
    the minor's two monomials have equal images iff the diagonal and
    anti-diagonal label multisets coincide."""
    for coords in (SMALL, FRAME_7X5):
        cfg = cfg_of(coords)
        lm = build_label_map(cfg)
        p = build_rect_diff(cfg)
        inner = {(iv.lo, iv.hi) for iv in inner_intervals(p)}
        for lx in range(cfg.a.x, cfg.b.x):
            for ly in range(cfg.a.y, cfg.b.y):
                for hx in range(lx + 1, cfg.b.x + 1):
                    for hy in range(ly + 1, cfg.b.y + 1):
                        iv = GridInterval(GridPoint(lx, ly), GridPoint(hx, hy))
                        if not all(c in lm.labels for c in iv.corners()):
                            continue
                        e1, e2 = iv.anti_diagonal()
                        diag = x(lx, ly) * x(hx, hy)
                        anti = x(e1.x, e1.y) * x(e2.x, e2.y)
                        annihilated = phi_image(diag, lm) == phi_image(anti, lm)
                        balanced = sorted(
                            (lm.labels[iv.lo], lm.labels[iv.hi])
                        ) == sorted((lm.labels[e1], lm.labels[e2]))
                        assert annihilated == balanced
                        assert annihilated == ((iv.lo, iv.hi) in inner)


# -- quadratic classification -------------------------------------------------


@pytest.mark.parametrize(
    "coords,expected_pairs", [(SMALL, 20), (MEDIUM_A, 28), (FRAME_7X5, 74)]
)
def test_quadratic_scan_counts(coords, expected_pairs):
    cfg = cfg_of(coords)
    scan = quadratic_scan(build_label_map(cfg))
    assert scan.violations == []
    assert len(scan.balanced_pairs) == expected_pairs
    assert scan.violations + scan.hole_violations == []


def test_quadratic_scan_matches_quadruple_loop_oracle():
    """Literal scan over all vertex quadruples for the small instance."""
    cfg = cfg_of(SMALL)
    lm = build_label_map(cfg)
    points = sorted(lm.labels, key=lambda p: (p.x, p.y))
    image = lambda u, w: (
        tuple(sorted((u.x, w.x))),
        tuple(sorted((u.y, w.y))),
        tuple(sorted((lm.labels[u], lm.labels[w]))),
    )
    expected = set()
    monos = [(u, w) for i, u in enumerate(points) for w in points[i:]]
    for i, m1 in enumerate(monos):
        for m2 in monos[i + 1:]:
            if image(*m1) == image(*m2):
                expected.add((m1, m2))
    scan = quadratic_scan(lm)
    assert {tuple(pair) for pair in scan.balanced_pairs} == expected


@pytest.mark.parametrize("coords, digest", [
    (SMALL, "a9901afa01638a75bd82cc94ea62d2a9281072b0527c38ba02fb37b7b8214a1e"),
    (MEDIUM_A, "01a5a87114b05c7deb4cd6de9a80845cb51326977b33937a929702c415c0e3a3"),
], ids=["SMALL", "MEDIUM_A"])
def test_quadratic_scan_violations_on_random_labellings(coords, digest):
    """Labels drawn from {1, 2} balance pairs that are no inner minor.
    The violations are the balanced pairs the cell-by-cell reference
    rejects, in scan order; the SHA-256 of all five scans was recorded
    before ``quadratic_scan`` read innerness from ``inner_intervals``."""
    lm = build_label_map(cfg_of(coords))
    p = build_rect_diff(lm.cfg)
    rng = random.Random(0)
    scans = []
    for _ in range(5):
        labels = {q: rng.randint(1, 2) for q in lm.points()}
        scan = quadratic_scan(LabelMap(lm.cfg, labels, 2))
        rejected = [pair for pair in scan.balanced_pairs if not is_minor_pair(p, *pair)]
        assert rejected
        assert [v["vertices"] for v in scan.violations] == [
            [tuple(q) for q in (*m1, *m2)] for m1, m2 in rejected
        ]
        scans.append(scan.violations)
    assert hashlib.sha256(json.dumps(scans).encode()).hexdigest() == digest


def test_quadratic_scan_flags_corrupted_labelling():
    lm = build_label_map(cfg_of(SMALL))
    bad = lm.with_label(GridPoint(2, 2), 2)
    scan = quadratic_scan(bad)
    assert scan.violations or len(scan.balanced_pairs) != 20


# -- hole containment ---------------------------------------------------------


def test_hole_containing_interval_count_frame():
    cfg = cfg_of(FRAME_7X5)
    assert len(hole_containing_intervals(cfg)) == 23  # 4*6 - 1


@pytest.mark.parametrize("coords", [SMALL, MEDIUM_A, MEDIUM_B, FRAME_7X5])
def test_hole_containment_clean(coords):
    lm = build_label_map(cfg_of(coords))
    assert hole_containment_violations(lm) == []


def test_outer_box_has_unbalanced_corner_labels():
    cfg = cfg_of(FRAME_7X5)
    lm = build_label_map(cfg)
    iv = GridInterval(GridPoint(1, 1), GridPoint(7, 5))
    e1, e2 = iv.anti_diagonal()
    assert sorted((lm.labels[iv.lo], lm.labels[iv.hi])) == [1, 1]
    assert sorted((lm.labels[e1], lm.labels[e2])) == [2, 2]


def test_hole_containment_flags_corrupted_labelling():
    lm = build_label_map(cfg_of(SMALL))
    bad = lm.with_label(GridPoint(1, 1), 3)
    assert hole_containment_violations(bad)


# -- the full theorem check ---------------------------------------------------


@pytest.mark.parametrize(
    "coords,cells,verts,m,minors",
    [(SMALL, 8, 16, 2, 20), (MEDIUM_A, 10, 20, 4, 28), (MEDIUM_B, 12, 24, 6, 36)],
)
def test_check_theorem(coords, cells, verts, m, minors):
    report = check_theorem(cfg_of(coords))
    assert report.num_cells == cells
    assert report.num_vertices == verts
    assert report.max_label == m
    assert report.num_inner_minors == minors
    assert report.ip_in_jp
    assert report.quadratic_classification_violations == []
    assert report.ideals_equal
    assert report.prime_corollary
    assert report.gb_sizes[0] == report.gb_sizes[1]
    assert report.max_gb_degree == 2
    assert report.budget_exceeded_stage is None


def test_check_theorem_report_deterministic():
    r1 = check_theorem(cfg_of(SMALL)).to_json_dict()
    r2 = check_theorem(cfg_of(SMALL)).to_json_dict()
    r1.pop("timings")
    r2.pop("timings")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_check_theorem_budget_exceeded():
    report = check_theorem(cfg_of(SMALL), budget=0)
    assert report.budget_exceeded_stage == "toric_generators"
    assert not report.ideals_equal
    # the cheap stages still ran
    assert report.num_inner_minors == 20
    assert report.ip_in_jp


def test_report_json_round_trip():
    report = check_theorem(cfg_of(SMALL))
    data = json.loads(report.to_json())
    assert data["ideals_equal"] is True
    assert data["gb_sizes"] == [20, 20]
    assert data["instance"]["hole"]["a"] == [2, 2]


def test_double_inclusion_cross_check():
    """Equality is certified by one reduced-basis comparison; the two
    divisions give an independent confirmation of both inclusions."""
    cfg = cfg_of(SMALL)
    minors = enumerate_inner_minors(build_rect_diff(cfg))
    jp = toric_generators(build_label_map(cfg))
    gb_ip = buchberger(minors, DEGREVLEX)
    gb_jp = buchberger(jp, DEGREVLEX)
    for m in minors:
        assert reduce(m, gb_jp, DEGREVLEX) is ZERO
    for g in jp:
        assert reduce(g, gb_ip, DEGREVLEX) is ZERO


# -- certificates -------------------------------------------------------------


def test_certify_inner_minor_single_term():
    cfg = cfg_of(SMALL)
    minor = parse_binomial("x[1,1]*x[2,2] - x[1,2]*x[2,1]")
    cert = MembershipCertifier(cfg).certify(minor)
    assert len(cert.terms) == 1
    assert cert.terms[0].multiplier == UNIT
    assert cert.terms[0].sign == 1
    assert cert.terms[0].generator == minor
    assert certificate_is_exact(cert)


def test_certify_cubic_kernel_binomial():
    cfg = cfg_of(SMALL)
    member = Binomial(x(1, 2) * x(2, 4) * x(4, 1), x(1, 4) * x(2, 1) * x(4, 2))
    cert = MembershipCertifier(cfg).certify(member)
    assert len(cert.terms) >= 2
    assert certificate_is_exact(cert)
    minors = set(enumerate_inner_minors(build_rect_diff(cfg)))
    assert all(t.generator in minors for t in cert.terms)


def test_certify_rejects_unbalanced_binomial():
    certifier = MembershipCertifier(cfg_of(SMALL))
    with pytest.raises(NotInKernel):
        certifier.certify(parse_binomial("x[1,1]*x[4,4] - x[1,4]*x[4,1]"))
    # the spelled-out cubic with one corner swapped is outside too
    with pytest.raises(NotInKernel):
        certifier.certify(
            Binomial(x(1, 1) * x(2, 4) * x(4, 2), x(1, 2) * x(2, 1) * x(4, 4))
        )


def test_certifier_random_kernel_binomials():
    cfg = cfg_of(SMALL)
    lm = build_label_map(cfg)
    certifier = MembershipCertifier(cfg)
    pool = kernel_binomials_up_to_degree(lm, 3)
    rng = random.Random(1234)
    minors = set(certifier.minors)
    for f in rng.sample(pool, 50):
        cert = certifier.certify(f)
        assert expand_certificate(cert) == {f.plus: 1, f.minus: -1}
        assert all(t.generator in minors for t in cert.terms)


def test_certifier_reuse_gives_identical_certificates():
    cfg = cfg_of(MEDIUM_A)
    pool = kernel_binomials_up_to_degree(build_label_map(cfg), 3)
    batch = random.Random(77).sample(pool, 12)
    certifier = MembershipCertifier(cfg)
    first = [certifier.certify(f) for f in batch]
    again = [certifier.certify(f) for f in batch]
    fresh = [MembershipCertifier(cfg).certify(f) for f in batch]
    assert first == again == fresh


@pytest.mark.parametrize("side", [5, pytest.param(6, marks=pytest.mark.slow)])
def test_minors_are_their_reduced_basis_sweep(side):
    """The inner minors are the reduced degrevlex basis of I_P, up to the
    sign of each, on every configuration with a = (0,0) and b <= (side,
    side): 100 for side 5, 400 for side 6.  This is the fact that lets
    the certifier divide by the minors directly."""
    for coords in sweep_configs(side):
        minors = enumerate_inner_minors(build_rect_diff(cfg_of(coords)))
        reduced = buchberger(minors, DEGREVLEX).elements
        assert len(reduced) == len(minors), coords
        assert set(map(frozenset, reduced)) == set(map(frozenset, minors)), coords


@pytest.mark.parametrize("coords", list(sweep_configs()), ids=str)
def test_kernel_enumeration_matches_reference(coords):
    """On the map and on two mutations of it: a label raised past
    ``max_label`` and a label other than 1 set to 1.  Either leaves label
    values a correct map never has, for the packed fiber keys to meet."""
    lm = build_label_map(cfg_of(coords))
    points = lm.points()
    raised = lm.with_label(points[len(points) // 2], lm.max_label + 1)
    lowered = lm.with_label(next(p for p in points if lm.labels[p] != 1), 1)
    for labels in (lm, raised, lowered):
        for degree in (1, 2, 3):
            got = kernel_binomials_up_to_degree(labels, degree)
            expected = kernel_binomials_reference(labels, degree)
            assert got == expected
            assert [hash(f) for f in got] == [hash(f) for f in expected]


def test_kernel_enumeration_properties():
    cfg = cfg_of(SMALL)
    lm = build_label_map(cfg)
    pool = kernel_binomials_up_to_degree(lm, 3)
    assert len(pool) == 372
    degree2 = [f for f in pool if f.degree == 2]
    assert len(degree2) == 20  # exactly the inner-minor pairs
    for f in pool:
        assert phi_image(f.plus, lm) == phi_image(f.minus, lm)


# -- mutation sensitivity -----------------------------------------------------


def test_label_mutation_flips_some_check():
    """Perturbing any single label breaks minor balance, and the
    quadratic or hole scan notices as well."""
    lm = build_label_map(cfg_of(FRAME_7X5))
    minors = enumerate_inner_minors(build_rect_diff(lm.cfg))
    for v in lm.points():
        bad = lm.with_label(v, lm.labels[v] + 1)
        assert not minors_balanced(bad)
        scan = quadratic_scan(bad)
        scan_flags = bool(scan.violations) or len(scan.balanced_pairs) != len(minors)
        hole_flags = bool(hole_containment_violations(bad))
        assert scan_flags or hole_flags, v


def test_matrix_mutation_flips_kernel_or_pattern():
    cfg = cfg_of(SMALL)
    lm = build_label_map(cfg)
    a = build_matrix(lm)
    kernel = lattice_kernel(a)

    def column_pattern_ok(matrix) -> bool:
        for j, p in enumerate(matrix.cols):
            col = matrix.column(j)
            ones = {matrix.rows[i] for i, e in enumerate(col) if e == 1}
            expect = {("r", p.x), ("s", p.y), ("t", lm.labels[p])}
            if {(v.kind, v.i) for v in ones} != expect or sum(col) != 3:
                return False
        return True

    assert column_pattern_ok(a)
    entries = [list(row) for row in a.entries]
    entries[0][0] ^= 1  # corrupt one entry
    from polytoric.toric import ExponentMatrix

    bad = ExponentMatrix(a.rows, a.cols, tuple(tuple(r) for r in entries))
    assert not column_pattern_ok(bad)
    broken = any(
        any(sum(e * c for e, c in zip(row, z)) != 0 for row in bad.entries)
        for z in kernel
    )
    assert broken


def test_minor_mutation_flips_balance_check():
    cfg = cfg_of(SMALL)
    lm = build_label_map(cfg)
    minors = enumerate_inner_minors(build_rect_diff(cfg))

    def all_balanced(gens) -> bool:
        return all(phi_image(g.plus, lm) == phi_image(g.minus, lm) for g in gens)

    assert all_balanced(minors)
    corrupted = list(minors)
    g = corrupted[0]
    corrupted[0] = Binomial(g.plus * x(4, 4), g.minus * x(1, 1))
    assert not all_balanced(corrupted)


@pytest.mark.slow
def test_theorem_thick_frame():
    report = check_theorem(cfg_of(THICK_FRAME))
    assert report.ideals_equal
    assert report.gb_sizes == (144, 144)
