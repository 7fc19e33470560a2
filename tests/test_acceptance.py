"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s, or on
failure) and enforces the stated runtime budget.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time
from contextlib import contextmanager

from conftest import (
    CORRECTED_CELLS,
    FRAME_7X5,
    GOLDEN_LABELS,
    MEDIUM_A,
    MEDIUM_B,
    SMALL,
    cfg_of,
    fraction_rank,
)

from polytoric.binom import expand_certificate
from polytoric.cli import main
from polytoric.grid import GridPoint, build_rect_diff, enumerate_inner_minors
from polytoric.labelling import build_label_map, render_label_grid
from polytoric.toric import build_matrix, lattice_kernel
from polytoric.verify import (
    MembershipCertifier,
    check_theorem,
    hole_containment_violations,
    kernel_binomials_up_to_degree,
    minors_balanced,
    quadratic_scan,
)


@contextmanager
def criterion(number, description, max_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{description}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < max_seconds, (
        f"criterion {number} exceeded its {max_seconds}s budget: {elapsed:.1f}s"
    )
    print(f"criterion {number} [{description}]: PASS ({elapsed:.2f}s)")


def write_instance(tmp_path, coords, name):
    (a, b, ai, bi) = coords
    path = tmp_path / name
    path.write_text(json.dumps(
        {"outer": {"a": list(a), "b": list(b)},
         "hole": {"a": list(ai), "b": list(bi)}}
    ))
    return str(path)


def test_criterion_1_golden_labelling():
    with criterion(1, "golden labelling of the 7x5 frame", 1.0):
        lm = build_label_map(cfg_of(FRAME_7X5))
        grid = render_label_grid(lm)
        rendered = {}
        for row in grid.splitlines():
            for token in row.split():
                r, rest = token[1:].split("s")
                s, t = rest.split("t")
                rendered[(int(r), int(s))] = int(t)
        assert len(rendered) == 33
        verbatim = 0
        for (xy, expected) in GOLDEN_LABELS.items():
            assert rendered[xy] == expected, xy
            verbatim += xy not in CORRECTED_CELLS
        assert verbatim == 31
        assert all(rendered[xy] == GOLDEN_LABELS[xy] for xy in CORRECTED_CELLS)
        assert lm.max_label == 8


def test_criterion_2_theorem_small(tmp_path):
    with criterion(2, "theorem on the 4x4 instance", 5.0):
        minors = enumerate_inner_minors(build_rect_diff(cfg_of(SMALL)))
        assert len(minors) == 20
        report_path = tmp_path / "small.json"
        code = main(["verify", "--instance",
                     write_instance(tmp_path, SMALL, "small_in.json"),
                     "--order", "degrevlex", "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["ideals_equal"] is True


def test_criterion_3_theorem_medium():
    for coords in (MEDIUM_A, MEDIUM_B):
        with criterion(3, f"theorem on {coords}", 60.0):
            assert check_theorem(cfg_of(coords)).ideals_equal


def test_criterion_4_theorem_frame():
    with criterion(4, "theorem on the 7x5 frame", 600.0):
        report = check_theorem(cfg_of(FRAME_7X5))
        assert report.budget_exceeded_stage is None
        assert report.num_inner_minors == 74
        assert report.ideals_equal


def test_criterion_5_quadratic_classification():
    with criterion(5, "quadratic classification scans", 30.0):
        for coords, expected in ((SMALL, 20), (FRAME_7X5, 74)):
            cfg = cfg_of(coords)
            scan = quadratic_scan(build_label_map(cfg))
            minors = enumerate_inner_minors(build_rect_diff(cfg))
            assert len(minors) == expected
            assert len(scan.balanced_pairs) == expected
            assert scan.violations == []


def test_criterion_6_hole_containment():
    with criterion(6, "hole containment labels", 30.0):
        for coords in (SMALL, MEDIUM_A, MEDIUM_B, FRAME_7X5):
            assert hole_containment_violations(build_label_map(cfg_of(coords))) == []


def test_criterion_7_kernel_exactness():
    with criterion(7, "integer kernel exactness", 30.0):
        for coords in (SMALL, MEDIUM_A, MEDIUM_B, FRAME_7X5):
            matrix = build_matrix(build_label_map(cfg_of(coords)))
            kernel = lattice_kernel(matrix)
            for z in kernel:
                for row in matrix.entries:
                    assert sum(e * c for e, c in zip(row, z)) == 0
            assert len(kernel) == len(matrix.cols) - fraction_rank(matrix.entries)


def test_criterion_8_certificate_round_trip():
    with criterion(8, "certificate round trips", 120.0):
        rng = random.Random(0x5EED)
        for coords in (SMALL, MEDIUM_A):
            cfg = cfg_of(coords)
            pool = kernel_binomials_up_to_degree(build_label_map(cfg), 3)
            sample = rng.sample(pool, min(100, len(pool)))
            assert len(sample) == 100
            certifier = MembershipCertifier(cfg)
            for f in sample:
                cert = certifier.certify(f)
                assert expand_certificate(cert) == {f.plus: 1, f.minus: -1}


def test_criterion_9_mutation_sensitivity():
    with criterion(9, "label mutation sensitivity", 120.0):
        lm = build_label_map(cfg_of(FRAME_7X5))
        minors = enumerate_inner_minors(build_rect_diff(lm.cfg))
        for v in lm.points():
            bad = lm.with_label(v, lm.labels[v] + 1)
            golden_fails = any(
                bad.labels[GridPoint(*xy)] != expected
                for xy, expected in GOLDEN_LABELS.items()
            )
            scan = quadratic_scan(bad)
            scan_fails = bool(scan.violations) or (
                len(scan.balanced_pairs) != len(minors)
            )
            hole_fails = bool(hole_containment_violations(bad))
            assert golden_fails or scan_fails or hole_fails, v
            # the corrupted labelling also breaks the easy inclusion
            assert not minors_balanced(bad)


def test_criterion_10_report_determinism(tmp_path):
    with criterion(10, "verify report determinism", 60.0):
        instance = write_instance(tmp_path, SMALL, "det.json")
        payloads = []
        for name in ("det1.json", "det2.json"):
            report_path = tmp_path / name
            assert main(["verify", "--instance", instance,
                         "--report", str(report_path)]) == 0
            data = json.loads(report_path.read_text())
            data.pop("timings")
            payloads.append(json.dumps(data, sort_keys=True).encode())
        assert payloads[0] == payloads[1]
