import hashlib
import json
from pathlib import Path

import pytest
from conftest import (
    FRAME_7X5,
    FRAME_8X5,
    MEDIUM_A,
    MEDIUM_B,
    SMALL,
    THICK_FRAME,
    THIN_6X6,
    cfg_of,
    fraction_rank,
    sweep_configs,
)
from helpers import (
    exponent,
    hermite_normal_form,
    lattice_toric_basis,
    matrix_csv,
    normalized,
    saturation_one_variable_reference,
    saturation_steps_reference,
    spairs_per_step,
    without_orbits,
    without_skips,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from polytoric import binom, toric
from polytoric.binom import (
    DEGREVLEX,
    TermOrder,
    UNIT,
    ZERO,
    Binomial,
    Monomial,
    buchberger,
    parse_binomial,
    r_var,
    reduce,
    s_var,
    t_var,
    vertex_var,
)
from polytoric.errors import VertexOutsidePolyomino
from polytoric.grid import GridPoint, build_rect_diff, enumerate_inner_minors
from polytoric.labelling import build_label_map
from polytoric.toric import (
    ExponentMatrix,
    build_matrix,
    lattice_kernel,
    lattice_vector_to_binomial,
    phi_image,
    _candidate_symmetries,
    saturate_generators,
    toric_generators,
)
from polytoric.verify import minors_balanced

# The top rungs of the ladder: frames with a ring two or three cells
# wide, and two off-centre holes that no box map fixes.
WIDE_7X7 = ((1, 1), (7, 7), (3, 3), (5, 5))
WIDE_8X8 = ((1, 1), (8, 8), (3, 3), (6, 6))
WIDE_9X9 = ((1, 1), (9, 9), (4, 4), (6, 6))
OFF_CENTRE_9X7 = ((0, 0), (9, 7), (1, 2), (6, 4))
OFF_CENTRE_10X8 = ((0, 0), (10, 8), (2, 1), (7, 6))


def test_matrix_shape_frame():
    a = build_matrix(build_label_map(cfg_of(FRAME_7X5)))
    assert a.shape() == (20, 33)  # 7 r-rows, 5 s-rows, 8 t-rows
    assert a.rows[:7] == tuple(r_var(i) for i in range(1, 8))
    assert a.rows[7:12] == tuple(s_var(j) for j in range(1, 6))
    assert a.rows[12:] == tuple(t_var(k) for k in range(1, 9))


def test_matrix_shape_small():
    a = build_matrix(build_label_map(cfg_of(SMALL)))
    assert a.shape() == (10, 16)  # 4 + 4 + 2 rows


def test_matrix_column_pattern():
    a = build_matrix(build_label_map(cfg_of(FRAME_7X5)))
    j = a.cols.index(GridPoint(1, 5))
    col = a.column(j)
    ones = {a.rows[i] for i, e in enumerate(col) if e == 1}
    assert ones == {r_var(1), s_var(5), t_var(2)}
    assert sum(col) == 3
    # every column: exactly one 1 per block
    for j in range(len(a.cols)):
        col = a.column(j)
        assert all(e in (0, 1) for e in col)
        assert sum(col[:7]) == 1 and sum(col[7:12]) == 1 and sum(col[12:]) == 1


def test_matrix_block_row_sums_agree():
    for coords in (SMALL, MEDIUM_A, MEDIUM_B, FRAME_7X5):
        a = build_matrix(build_label_map(cfg_of(coords)))
        nr = sum(1 for v in a.rows if v.kind == "r")
        ns = sum(1 for v in a.rows if v.kind == "s")
        blocks = (a.entries[:nr], a.entries[nr:nr + ns], a.entries[nr + ns:])
        sums = [
            tuple(sum(row[j] for row in block) for j in range(len(a.cols)))
            for block in blocks
        ]
        assert sums[0] == sums[1] == sums[2]
        assert fraction_rank(a.entries) <= len(a.rows) - 2


def test_phi_image_values():
    lm = build_label_map(cfg_of(FRAME_7X5))
    x = lambda i, j: Monomial([(vertex_var((i, j)), 1)])
    assert str(phi_image(x(3, 1), lm)) == "r[3]*s[1]*t[3]"
    diag = phi_image(x(1, 1) * x(2, 2), lm)
    anti = phi_image(x(1, 2) * x(2, 1), lm)
    assert diag == anti
    assert str(diag) == "r[1]*r[2]*s[1]*s[2]*t[1]^2"
    assert phi_image(UNIT, lm) == UNIT
    with pytest.raises(VertexOutsidePolyomino):
        phi_image(x(3, 3), lm)
    with pytest.raises(VertexOutsidePolyomino):
        phi_image(Monomial([(r_var(1), 1)]), lm)


def test_lattice_kernel_duplicate_columns():
    a = ExponentMatrix(
        rows=(r_var(1), r_var(2)),
        cols=(GridPoint(0, 0), GridPoint(1, 1)),
        entries=((1, 1), (1, 1)),
    )
    kernel = lattice_kernel(a)
    assert kernel == [(1, -1)]


def test_lattice_kernel_injective_matrix():
    a = ExponentMatrix(
        rows=(r_var(1), r_var(2)),
        cols=(GridPoint(0, 0), GridPoint(1, 1)),
        entries=((1, 0), (0, 1)),
    )
    assert lattice_kernel(a) == []


@pytest.mark.parametrize("coords", [SMALL, MEDIUM_A, MEDIUM_B, FRAME_7X5])
def test_lattice_kernel_exactness_and_dimension(coords):
    a = build_matrix(build_label_map(cfg_of(coords)))
    kernel = lattice_kernel(a)
    n = len(a.cols)
    for z in kernel:
        assert len(z) == n
        for row in a.entries:
            assert sum(e * c for e, c in zip(row, z)) == 0
        assert sum(z) == 0  # total-degree homogeneity
    assert len(kernel) == n - fraction_rank(a.entries)


@pytest.mark.parametrize("entries, spanning", [
    # 4a + 6b = 0: the kernel is spanned by (3, -2), not by (6, -4).
    (((4, 6, 0), (0, 0, 0)), [(3, -2, 0), (0, 0, 1)]),
    # a = 3c - 2b, d = b, e = 5a, with b and c free.
    (((2, 4, -6, 0, 0), (0, 3, 0, -3, 0), (5, 0, 0, 0, -1)),
     [(-2, 1, 0, 1, -10), (3, 0, 1, 0, 15)]),
], ids=["one-row", "three-rows"])
def test_lattice_kernel_on_entries_outside_zero_one(entries, spanning):
    """A hand-built matrix with entries other than 0 and 1: the kernel
    basis spans the lattice of a basis worked out by hand, and passes
    the re-check that reads only each row's nonzero entries."""
    a = ExponentMatrix(tuple(r_var(i) for i in range(1, len(entries) + 1)),
                       tuple(GridPoint(j, 0) for j in range(len(entries[0]))),
                       entries)
    kernel = lattice_kernel(a)
    for z in spanning:
        assert all(sum(e * c for e, c in zip(row, z)) == 0 for row in entries)
    assert hermite_normal_form(kernel) == hermite_normal_form(spanning)


def test_lattice_vector_to_binomial():
    cols = (GridPoint(1, 1), GridPoint(1, 2), GridPoint(2, 1))
    b = lattice_vector_to_binomial((2, -1, -1), cols)
    assert b == parse_binomial("x[1,1]^2 - x[1,2]*x[2,1]")


def _ladder_and_sweep():
    for coords in sweep_configs():
        yield pytest.param(coords, id=str(coords))
    yield pytest.param(SMALL, id="SMALL")
    yield pytest.param(MEDIUM_A, id="MEDIUM_A")
    yield pytest.param(MEDIUM_B, id="MEDIUM_B")
    yield pytest.param(FRAME_7X5, id="FRAME_7X5")
    yield pytest.param(THIN_6X6, id="THIN_6X6")
    yield pytest.param(FRAME_8X5, id="FRAME_8X5")
    yield pytest.param(THICK_FRAME, id="THICK_FRAME")


@pytest.mark.parametrize("coords", list(_ladder_and_sweep()))
def test_inner_minors_span_the_kernel(coords):
    """The exponent vectors of the inner minors span ker_Z A: their
    Hermite normal form is that of ``lattice_kernel``'s basis."""
    lm = build_label_map(cfg_of(coords))
    a = build_matrix(lm)
    variables = [vertex_var(p) for p in a.cols]
    vectors = [[exponent(m.plus, v) - exponent(m.minus, v) for v in variables]
               for m in enumerate_inner_minors(build_rect_diff(lm.cfg))]
    assert hermite_normal_form(vectors) == hermite_normal_form(lattice_kernel(a))


@st.composite
def zero_one_matrices(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=8))
    entries = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                            min_size=m, max_size=m))
    return ExponentMatrix(tuple(r_var(i) for i in range(1, m + 1)),
                          tuple(GridPoint(j, 0) for j in range(n)),
                          tuple(map(tuple, entries)))


@given(a=zero_one_matrices())
@settings(max_examples=200, deadline=None)
def test_lattice_kernel_on_random_matrices(a):
    kernel = lattice_kernel(a)
    n = len(a.cols)
    assert len(kernel) == n - fraction_rank(a.entries)
    for z in kernel:
        assert len(z) == n
        for row in a.entries:
            assert sum(e * c for e, c in zip(row, z)) == 0
        assert next(c for c in z if c) > 0
    assert kernel == sorted(kernel)


@pytest.mark.parametrize("coords", list(sweep_configs()), ids=str)
def test_toric_generators_match_the_unreduced_route(coords):
    """``toric_generators`` (quadratic start, skipped steps, certified orbits)
    and the saturation from ``lattice_kernel``'s basis alone reach the
    same basis on every sweep configuration."""
    lm = build_label_map(cfg_of(coords))
    assert toric_generators(lm) == lattice_toric_basis(lm)


def test_saturation_already_saturated_generator():
    # x1*x2 - x3*x4 has no variable dividing both terms, so one pass is a
    # no-op (up to normalization).
    gens = [parse_binomial("r[1]*r[2] - r[3]*r[4]")]
    variables = [r_var(1), r_var(2), r_var(3), r_var(4)]
    out = saturate_generators(buchberger(gens), variables)
    assert [normalized(g, DEGREVLEX) for g in out] == [
        normalized(gens[0], DEGREVLEX)
    ]


def test_saturation_removes_common_variable():
    gens = [parse_binomial("r[1]*r[2] - r[1]*r[3]")]
    variables = [r_var(1), r_var(2), r_var(3)]
    out = saturate_generators(buchberger(gens), variables)
    assert [str(normalized(g, DEGREVLEX)) for g in out] == ["r[3] - r[2]"]


@pytest.mark.parametrize("coords", [SMALL, MEDIUM_A, MEDIUM_B])
def test_toric_generators_match_inner_minors(coords):
    cfg = cfg_of(coords)
    minors = enumerate_inner_minors(build_rect_diff(cfg))
    jp = toric_generators(build_label_map(cfg))
    gb_ip = buchberger(minors, DEGREVLEX)
    assert list(gb_ip.elements) == jp
    assert gb_ip.elements == buchberger(jp, DEGREVLEX).elements


def test_toric_generators_are_balanced():
    lm = build_label_map(cfg_of(MEDIUM_A))
    for g in toric_generators(lm):
        assert phi_image(g.plus, lm) == phi_image(g.minus, lm)


def test_saturation_idempotent():
    cfg = cfg_of(SMALL)
    matrix = build_matrix(build_label_map(cfg))
    variables = [vertex_var(p) for p in matrix.cols]
    gens = [lattice_vector_to_binomial(z, matrix.cols)
            for z in lattice_kernel(matrix)]
    once = saturate_generators(buchberger(gens), variables)
    twice = saturate_generators(buchberger(once), variables)
    assert once == twice


def test_degree3_completeness_small():
    """Every degree-<=3 binomial with equal images reduces to zero
    against the toric basis (brute-force enumeration oracle)."""
    from polytoric.verify import kernel_binomials_up_to_degree

    cfg = cfg_of(SMALL)
    jp = toric_generators(build_label_map(cfg))
    pool = kernel_binomials_up_to_degree(build_label_map(cfg), 3)
    assert pool, "enumeration found no kernel binomials"
    for f in pool:
        assert reduce(f, jp, DEGREVLEX) is ZERO


def test_matrix_csv():
    import csv
    import io

    a = build_matrix(build_label_map(cfg_of(SMALL)))
    text = matrix_csv(a)
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 1 + 10
    assert rows[0][:3] == ["variable", "x[1,1]", "x[1,2]"]
    assert rows[1][:6] == ["r[1]", "1", "1", "1", "1", "0"]
    assert all(len(row) == 17 for row in rows)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the reduced toric basis, one element per line, recorded
# before the Buchberger bookkeeping moved to quotient masks, pop-time
# criterion B and a bucketed reducer index.
@pytest.mark.parametrize("coords, size, digest", [
    pytest.param(SMALL, 20,
                 "fd5d243da2eb79d890a9c6cfbf17edc7c0b80abe8b951b1d571077c4567dac06",
                 id="SMALL"),
    pytest.param(MEDIUM_B, 36,
                 "cf4d8160e0e686c7a5308ab0c4b521acee29257780e1bccf49ec3197c61038f5",
                 id="MEDIUM_B"),
    pytest.param(FRAME_7X5, 74,
                 "8be0192216a4a39fa3e4fbdf49b17ec177201781a07d31f09d7e0ec3160eddb4",
                 id="FRAME_7X5"),
    pytest.param(FRAME_8X5, 88,
                 "0cbb72b30c32373c74b8af07d83d1f67fd80d71f2b3f009df2491ae2df0577f5",
                 id="FRAME_8X5"),
    pytest.param(THICK_FRAME, 144,
                 "b6f76a79c66a7a5a7d5909497840e236e4dee02f971afac09d5942a75259e694",
                 id="THICK_FRAME"),
    # Frames with a ring two cells wide, recorded before the saturation
    # ran its steps under block orders.
    pytest.param(WIDE_7X7, 216,
                 "299c090de42f3046b6e9a4c166dd3c46915f35ee0f09da371b2be7da5f563882",
                 id="WIDE_7X7"),
    pytest.param(WIDE_8X8, 300,
                 "074adc3406f71c12861d50f4cae541e6ccaaf62779d6b3c033d18fa5d2374871",
                 id="WIDE_8X8"),
    # The rungs that only the line swaps bring within a second, recorded
    # before the saturation took the swaps.
    pytest.param(WIDE_9X9, 720,
                 "1711bebf74b79e7ade3106d7fccca7b86ab2c4715330ab91f9c9ec802a1450a8",
                 id="WIDE_9X9"),
    pytest.param(OFF_CENTRE_9X7, 538,
                 "6fed32d2bfdc06ffbf5c716684351d870718b295c4147742dad4a0ce14764099",
                 id="OFF_CENTRE_9X7"),
    pytest.param(OFF_CENTRE_10X8, 508,
                 "0f862abd070175ce68e22c9e6adcbb4630e207862f24cf5bef26e76a25af6d72",
                 id="OFF_CENTRE_10X8"),
])
def test_toric_basis_digest(coords, size, digest):
    basis = toric_generators(build_label_map(cfg_of(coords)))
    assert len(basis) == size
    assert sha256("\n".join(str(g) for g in basis)) == digest


SWEEP_5X5_DIGESTS = json.loads(
    Path(__file__).with_name("toric_basis_digests.json").read_text())


# The same digests for every configuration with a = (0,0) and b <= (5,5),
# recorded before the saturation started from the quadratic kernel
# binomials; about 40 s in all.
@pytest.mark.slow
@pytest.mark.parametrize("coords", list(sweep_configs(5)), ids=str)
def test_toric_basis_digest_sweep(coords):
    size, digest = SWEEP_5X5_DIGESTS[str(coords)]
    basis = toric_generators(build_label_map(cfg_of(coords)))
    assert len(basis) == size
    assert sha256("\n".join(str(g) for g in basis)) == digest


@pytest.mark.parametrize("coords", [
    pytest.param(SMALL, id="SMALL"),
    pytest.param(MEDIUM_B, id="MEDIUM_B", marks=pytest.mark.slow),
])
def test_quadratic_start_changes_no_basis(coords):
    """The saturation from ``lattice_kernel``'s basis alone and from it
    together with every quadratic kernel binomial reach the same basis,
    on the instance and on every labelling with one label raised by 1.
    A raised label takes some inner minor out of the kernel, so there the
    quadratic binomials are not the minors, and the agreement rests on
    the saturation lemma alone."""
    lm = build_label_map(cfg_of(coords))
    assert toric_generators(lm) == lattice_toric_basis(lm)
    for v in lm.points():
        bad = lm.with_label(v, lm.labels[v] + 1)
        assert not minors_balanced(bad)
        assert toric_generators(bad) == lattice_toric_basis(bad), v


def spair_trace(monkeypatch, run):
    """(count, SHA-256) of the leads of every S-pair the engine reduces
    during ``run()``, in the order it reduces them."""
    seen = []
    real = binom._spoly4

    def spy(engine, f, g):
        seen.append(f"{engine.unpack(f.lp)} {engine.unpack(g.lp)}")
        return real(engine, f, g)

    with monkeypatch.context() as m:
        m.setattr(binom, "_spoly4", spy)
        run()
    return len(seen), sha256("\n".join(seen))


def saturation_input(coords, raised=None):
    """The binomials of ``lattice_kernel``'s basis and the variables to
    saturate by; with the label of the point ``raised`` raised by 1."""
    lm = build_label_map(cfg_of(coords))
    if raised is not None:
        lm = lm.with_label(raised, lm.labels[raised] + 1)
    matrix = build_matrix(lm)
    gens = [lattice_vector_to_binomial(z, matrix.cols) for z in lattice_kernel(matrix)]
    return gens, [vertex_var(p) for p in matrix.cols]


# The bases are canonical, so their digests cannot see a change in which
# S-pairs the engine reduces; these traces can.  Recorded when the
# saturation steps started to run under block orders and to certify
# variables by the leads, with a full Buchberger run at every step
# (``without_skips``).  The input is ``lattice_kernel``'s basis alone,
# without the quadratic kernel binomials that ``toric_generators`` adds
# (pinned further below).  Re-recorded when each step after the first
# started to drop the generators of degree 3 or more that reduce to zero
# against those of degree 2 or less.
@pytest.mark.parametrize("coords, count, digest", [
    pytest.param(SMALL, 938,
                 "259db428dfc284201bca2ebbd4a1a38c7c2c0524673e676de10c025461b3de16",
                 id="SMALL"),
    pytest.param(MEDIUM_B, 3111,
                 "5708851f72599120d756d226610466bf2ab5b3e4a60f627ae1e0b34e9a90bd3d",
                 id="MEDIUM_B"),
])
def test_spair_trace_toric(monkeypatch, coords, count, digest):
    without_skips(monkeypatch)
    lm = build_label_map(cfg_of(coords))
    assert spair_trace(monkeypatch, lambda: lattice_toric_basis(lm)) == (count, digest)


# The same traces with the skip rule on: the skipped steps reduce no
# S-pair (see test_skipped_steps_leave_the_other_steps_spairs_alone).
# Recorded with the block orders, as above, and again when the steps
# started to drop generators (as above), and again when the skips came
# to be decided by counting alone and no step was pruned any more.
# Re-recorded when the saturation came to end in the order of the basis
# it starts from: the last step is decided by counting, so each trace
# is the old one (842 and 2763 pairs) with the final degrevlex run's
# pairs cut off its end.
@pytest.mark.parametrize("coords, count, digest", [
    pytest.param(SMALL, 794,
                 "76e76233fd79c6b6b113788a9ceb6dae40ff26cb49ca60a83da40eb4ddbc17c7",
                 id="SMALL"),
    pytest.param(MEDIUM_B, 2647,
                 "fbe7826b99428bd806d779cab2723ccb507dd9f1cd9143e9a0ebd6a89d0c0119",
                 id="MEDIUM_B"),
])
def test_spair_trace_toric_with_skipped_steps(monkeypatch, coords, count, digest):
    lm = build_label_map(cfg_of(coords))
    assert spair_trace(monkeypatch, lambda: lattice_toric_basis(lm)) == (count, digest)


# ``toric_generators``' own S-pairs, from ``lattice_kernel``'s basis and
# every quadratic kernel binomial: at every step (``without_skips``) and
# with skipped steps.  Recorded when the saturation started to certify
# the orbits of the line swaps as well as the box's maps, closed under
# the group they generate, which leaves one Buchberger run per
# saturation.  Re-recorded when that run became the public degrevlex
# run the saturation starts from, and the final run went: each trace is
# the old one (97, 97, 349, 233, 1136, 758 and 2364 pairs) with the
# final run's pairs cut off its end.  SMALL's skips cost no pair: no
# step of it is skipped.
@pytest.mark.parametrize("coords, mode, count, digest", [
    pytest.param(SMALL, "every-step", 49,
                 "1c1cd9962c991d63be9f5db0d96f329e5168d81db2bb2d19f4391e3396ac7bee",
                 id="SMALL-every-step"),
    pytest.param(SMALL, "skips", 49,
                 "1c1cd9962c991d63be9f5db0d96f329e5168d81db2bb2d19f4391e3396ac7bee",
                 id="SMALL-skips"),
    pytest.param(MEDIUM_B, "every-step", 233,
                 "5a4e42ec203b77c6b63885bd83893ea47f5308e041fdb86873f3a25cc773faec",
                 id="MEDIUM_B-every-step"),
    pytest.param(MEDIUM_B, "skips", 117,
                 "ab1dc86fbc2b983fb9429e3cd0aae1a75ba56c8f4d3de903e2b2cad986409ae8",
                 id="MEDIUM_B-skips"),
    pytest.param(FRAME_7X5, "every-step", 758,
                 "3059287ccc57204b5d9847966c9507ead7aaddda3a08f6ed27175ce363fde4a7",
                 id="FRAME_7X5-every-step"),
    pytest.param(FRAME_7X5, "skips", 380,
                 "ba752223728d246a435ee5555f53fa167ba8ea302d311ead7e5d99ad799134e0",
                 id="FRAME_7X5-skips"),
    pytest.param(THICK_FRAME, "skips", 1184,
                 "57013f7108660905da5a7540b929bdef1443744368f6f4d703838bc163c1225d",
                 id="THICK_FRAME-skips", marks=pytest.mark.slow),
])
def test_spair_trace_toric_generators_with_quadrics(monkeypatch, coords, mode,
                                                     count, digest):
    lm = build_label_map(cfg_of(coords))
    if mode == "every-step":
        without_skips(monkeypatch)
    assert spair_trace(monkeypatch, lambda: toric_generators(lm)) == (count, digest)


@pytest.mark.parametrize("coords", [FRAME_7X5, WIDE_8X8, WIDE_9X9, OFF_CENTRE_9X7,
                                    OFF_CENTRE_10X8],
                         ids=["FRAME_7X5", "WIDE_8X8", "WIDE_9X9", "OFF_CENTRE_9X7",
                              "OFF_CENTRE_10X8"])
def test_toric_generators_runs_buchberger_once(monkeypatch, coords):
    """On a correct labelling the public degrevlex run the saturation
    starts from is the only Buchberger run: every step after it is
    certified or decided by counting, and no final run follows."""
    runs = []
    run = binom._run_buchberger
    monkeypatch.setattr(binom, "_run_buchberger", lambda *args: runs.append(None) or run(*args))
    toric_generators(build_label_map(cfg_of(coords)))
    assert len(runs) == 1


def final_steps(monkeypatch, run):
    """The interreductions (each closing a skipped step or a run) that
    come after the last division of the saturation in ``run()``, each as
    whether its layout is the one of ``DEGREVLEX``."""
    events = []
    interreduce, uncertified = binom._interreduce, binom._uncertified

    def record_step(engine, elems):
        plain = binom._Engine(engine.vars, DEGREVLEX)
        events.append(engine.layout == plain.layout)
        return interreduce(engine, elems)

    def record_division(engine, pending, basis):
        events.clear()
        return uncertified(engine, pending, basis)

    with monkeypatch.context() as m:
        m.setattr(binom, "_interreduce", record_step)
        m.setattr(binom, "_uncertified", record_division)
        run()
    return events


def test_a_grown_ideal_takes_one_last_step(monkeypatch):
    """When a division changes an element, the saturation ends with one
    step in degrevlex and no division; when none does, it returns the
    basis it started from and takes no such step.  On SMALL no division
    changes an element; on some labellings with one label raised by 1
    one does, and ``test_quadratic_start_changes_no_basis`` checks their
    bases against the saturation from the lattice basis alone."""
    lm = build_label_map(cfg_of(SMALL))
    assert final_steps(monkeypatch, lambda: toric_generators(lm)) == []
    grown = 0
    for v in lm.points():
        bad = lm.with_label(v, lm.labels[v] + 1)
        last = final_steps(monkeypatch, lambda: toric_generators(bad))
        assert last in ([], [True])
        grown += last == [True]
    assert grown


def test_spair_trace_minors_lex(monkeypatch):
    minors = enumerate_inner_minors(build_rect_diff(cfg_of(MEDIUM_A)))
    trace = spair_trace(monkeypatch, lambda: buchberger(minors, binom.LEX))
    assert trace == (
        80, "61df7729f60ca38fd3bb566beedf23ad8d68875a23a353d88fbf49b4206d8e8e")


def pending_per_step(monkeypatch, run):
    """The variables still uncertified at each saturation step of
    ``run()``, the step's own variable first."""
    seen = []
    uncertified = binom._uncertified

    def record(engine, pending, basis):
        seen.append(list(pending))
        return uncertified(engine, pending, basis)

    with monkeypatch.context() as m:
        m.setattr(binom, "_uncertified", record)
        run()
    return seen


@pytest.mark.parametrize("coords", [SMALL, MEDIUM_B], ids=["SMALL", "MEDIUM_B"])
def test_skipped_steps_leave_the_other_steps_spairs_alone(monkeypatch, coords):
    """A step reduces either no S-pair (skipped) or the S-pairs it
    reduces when no step is skipped.  Both runs take the same steps, by
    the same variables: a step's reduced basis, which certifies the
    variables, is the same skipped or run.  One interreduction per step:
    the first step's is the degrevlex run the saturation starts from,
    and no final run follows.  The orbits are patched out, since with
    them the instances take too few steps to skip one."""
    lm = build_label_map(cfg_of(coords))
    without_orbits(monkeypatch)

    def run():
        return toric_generators(lm)

    with_skips = spairs_per_step(monkeypatch, run)
    pending = pending_per_step(monkeypatch, run)
    without_skips(monkeypatch)
    without = spairs_per_step(monkeypatch, run)
    assert pending_per_step(monkeypatch, run) == pending
    assert len(with_skips) == len(without) == len(pending)
    skipped = [k for k, (a, b) in enumerate(zip(with_skips, without)) if a != b]
    assert skipped and all(with_skips[k] == [] for k in skipped)


def recorded_saturation(monkeypatch, gens, variables, certified=None, symmetries=()):
    """``saturate_generators``'s output from ``buchberger(gens)``, each
    step's reduced basis (the output of its one interreduction: the
    public run it starts from, a skipped step or a full run), and the
    number of full Buchberger runs, the public one among them.  The
    first step takes the public run's basis as it is, since
    ``saturation_input`` lists the variables in the order of the
    universe.  ``certified``, when given, gets one
    (pending, still pending, divided basis) triple per call of
    ``binom._uncertified``, the basis as binomials."""
    steps = []
    runs = []
    interreduce, run, uncertified = binom._interreduce, binom._run_buchberger, binom._uncertified

    def record_step(engine, elems):
        out = interreduce(engine, elems)
        steps.append(tuple(engine.from_binomial4(b4) for b4 in out))
        return out

    def count_run(*args):
        runs.append(None)
        return run(*args)

    def record_certified(engine, pending, basis):
        kept = uncertified(engine, pending, basis)
        if certified is not None:
            certified.append((list(pending), kept,
                              [engine.from_binomial4(b4) for b4 in basis]))
        return kept

    with monkeypatch.context() as m:
        m.setattr(binom, "_interreduce", record_step)
        m.setattr(binom, "_run_buchberger", count_run)
        m.setattr(binom, "_uncertified", record_certified)
        out = saturate_generators(buchberger(gens), variables, symmetries=symmetries)
    return out, steps, len(runs)


def _saturation_cases():
    yield pytest.param(SMALL, None, id="SMALL")
    # The ideal changes between steps here, so its counts are read again
    # and later steps are decided against the new ones.
    yield pytest.param(SMALL, GridPoint(1, 1), id="SMALL-raised")
    yield pytest.param(MEDIUM_B, None, id="MEDIUM_B")
    yield pytest.param(FRAME_7X5, None, id="FRAME_7X5")
    for coords in sweep_configs():
        yield pytest.param(coords, None, id=str(coords))
    yield pytest.param(FRAME_8X5, None, id="FRAME_8X5", marks=pytest.mark.slow)
    yield pytest.param(THICK_FRAME, None, id="THICK_FRAME", marks=pytest.mark.slow)


@pytest.mark.parametrize("coords, raised", list(_saturation_cases()))
def test_saturation_steps_match_full_runs(monkeypatch, coords, raised):
    """Every step's reduced basis, skipped or run, is the one a
    full Buchberger run from the previous step's output gives."""
    gens, variables = saturation_input(coords, raised)
    out, steps, _ = recorded_saturation(monkeypatch, gens, variables)
    ref_steps, ref_out = saturation_steps_reference(gens, variables)
    assert steps == ref_steps
    assert out == ref_out


# Full Buchberger runs and skipped steps of the saturation, recorded when
# the steps started to run under block orders and to certify by the
# leads; the first step always runs.  Re-recorded when only steps whose
# generators are all quadrics or below could be skipped, by counting (5
# + 6, 5 + 9 and 7 + 10 before, with the steps of higher degree decided
# by the Hilbert series).  Re-recorded when the saturation came to end
# in the order of the basis it starts from: the first run is now the
# public one, and the last step, in degrevlex, is decided by counting
# (9 + 2, 11 + 3 and 14 + 3 before, with a final run after the
# saturation).
@pytest.mark.parametrize("coords, runs, skips", [
    pytest.param(SMALL, 9, 3, id="SMALL"),
    pytest.param(MEDIUM_B, 11, 4, id="MEDIUM_B"),
    pytest.param(FRAME_7X5, 14, 4, id="FRAME_7X5"),
])
def test_saturation_skips_steps(monkeypatch, coords, runs, skips):
    gens, variables = saturation_input(coords)
    _, steps, got = recorded_saturation(monkeypatch, gens, variables)
    assert (got, len(steps) - got) == (runs, skips)
    assert len(steps) < len(variables)


@pytest.mark.parametrize("coords, raised", [
    pytest.param(SMALL, None, id="SMALL"),
    pytest.param(SMALL, GridPoint(1, 1), id="SMALL-raised"),
    pytest.param(MEDIUM_B, None, id="MEDIUM_B"),
])
def test_saturation_by_one_variable_per_step_keeps_the_bases(monkeypatch, coords, raised):
    """With ``_uncertified`` patched to certify only the step's own
    variable, every variable gets a step of its own, lowest in its order,
    and the output and ``toric_generators``' basis stay the same.  The
    divisions grow the ideal, so one last step in degrevlex follows."""
    gens, variables = saturation_input(coords, raised)
    out = saturate_generators(buchberger(gens), variables)
    lm = build_label_map(cfg_of(coords))
    if raised is not None:
        lm = lm.with_label(raised, lm.labels[raised] + 1)
    basis = toric_generators(lm)
    monkeypatch.setattr(binom, "_uncertified", lambda engine, pending, basis: pending[1:])
    certified = []
    one_by_one, steps, _ = recorded_saturation(monkeypatch, gens, variables, certified)
    assert len(steps) == len(variables) + 1
    assert [pending[0] for pending, _, _ in certified] == variables
    _, reference = saturation_one_variable_reference(gens, variables)
    assert tuple(one_by_one) == buchberger(reference).elements
    assert one_by_one == out
    assert toric_generators(lm) == basis


@pytest.mark.parametrize("coords, raised", [
    pytest.param(SMALL, None, id="SMALL"),
    pytest.param(SMALL, GridPoint(1, 1), id="SMALL-raised"),
    pytest.param(MEDIUM_B, None, id="MEDIUM_B"),
])
def test_certified_variables_are_nonzerodivisors(monkeypatch, coords, raised):
    """Every variable u certified without a step of its own passes the
    Bayer-Stillman test on the basis it was certified by: under
    degrevlex with u last, no element of the reduced basis has u in both
    terms, so u is a nonzerodivisor modulo the ideal.  Every step but
    the last, in degrevlex, certifies."""
    gens, variables = saturation_input(coords, raised)
    certified = []
    _, steps, _ = recorded_saturation(monkeypatch, gens, variables, certified)
    assert len(certified) == len(steps) - 1
    checked = 0
    for pending, kept, basis in certified:
        for u in pending[1:]:
            if u in kept:
                continue
            checked += 1
            gb = buchberger(basis, TermOrder("degrevlex", last=(u,)))
            assert not any(exponent(g.plus, u) and exponent(g.minus, u)
                           for g in gb.elements), u
    assert checked == len(variables) - len(certified)


@pytest.mark.parametrize("coords", [
    pytest.param(SMALL, id="SMALL"),
    pytest.param(MEDIUM_B, id="MEDIUM_B", marks=pytest.mark.slow),
])
def test_one_variable_reference_matches_toric_generators_on_mutations(coords):
    """On every labelling with one label moved by 1 (to 1 or more), the
    saturation by one variable at a time from ``lattice_kernel``'s basis,
    over the sparse types, then a degrevlex run, gives the basis that
    ``toric_generators`` gives."""
    lm = build_label_map(cfg_of(coords))
    mutations = 0
    for v in lm.points():
        for value in (lm.labels[v] - 1, lm.labels[v] + 1):
            if value < 1:
                continue
            bad = lm.with_label(v, value)
            matrix = build_matrix(bad)
            gens = [lattice_vector_to_binomial(z, matrix.cols) for z in lattice_kernel(matrix)]
            variables = [vertex_var(p) for p in matrix.cols]
            _, out = saturation_one_variable_reference(gens, variables)
            assert list(buchberger(out, DEGREVLEX).elements) == toric_generators(bad), (v, value)
            mutations += 1
    assert mutations > len(lm.points())


def image(g, b: Binomial) -> Binomial:
    """The binomial b with every variable v replaced by g.get(v, v)."""
    return Binomial(*(Monomial([(g.get(v, v), e) for v, e in side]) for side in b))


@pytest.mark.parametrize("coords, count", [
    pytest.param(SMALL, 7 + 4, id="SMALL"),
    pytest.param(THIN_6X6, 7 + 6, id="THIN_6X6"),
    pytest.param(MEDIUM_A, 3 + 4, id="MEDIUM_A"),
    pytest.param(FRAME_7X5, 1 + 6, id="FRAME_7X5"),
    pytest.param(((0, 0), (6, 5), (1, 1), (3, 3)), 0 + 7, id="corner_hole"),
])
def test_box_symmetries_permute_the_vertices(coords, count):
    """The candidates fix the vertex set.  They are the box's maps that
    fix it: all seven of the square's on a centred square hole, the
    reflections and the half turn on a hole centred in a wider box, one
    reflection on the 7x5 frame.  They are also the swaps of adjacent
    lines within a band, the second term of each count."""
    lm = build_label_map(cfg_of(coords))
    variables = {vertex_var(p) for p in lm.points()}
    maps = _candidate_symmetries(lm)
    assert len(maps) == count
    for g in maps:
        assert set(g) == set(g.values()) == variables
        assert any(g[v] != v for v in g)
    assert len({tuple(sorted(g.items())) for g in maps}) == count


def line_swap(lm, axis: int, i: int) -> dict:
    """The map of the vertex variables that swaps the grid lines i and
    i + 1 of ``axis``, 0 for the vertical lines and 1 for the horizontal
    ones.  It may send a vertex to a point that is no vertex."""
    def moved(p):
        q = list(p)
        q[axis] += (p[axis] == i) - (p[axis] == i + 1)
        return vertex_var(q)

    return {vertex_var(p): moved(p) for p in lm.points()}


def orbit_closure(maps, seeds) -> set:
    """The images of ``seeds`` under every product of ``maps``, each map
    given on every variable."""
    closed = set(seeds)
    while True:
        more = {g[u] for g in maps for u in closed} - closed
        if not more:
            return closed
        closed |= more


def orbit_steps(monkeypatch, run):
    """The saturation steps of ``run()``, each as (pending, what
    ``_uncertified`` left of it, the step's divided basis), the calls of
    ``_stabilizer``, each as (maps offered, maps kept, basis), the bases
    as binomials, and what ``run()`` returned."""
    steps, tests = [], []
    uncertified, stabilizer = binom._uncertified, binom._stabilizer

    def record_step(engine, pending, basis):
        left = uncertified(engine, pending, basis)
        steps.append((list(pending), left, [engine.from_binomial4(b4) for b4 in basis]))
        return left

    def record_test(engine, maps, basis):
        kept = stabilizer(engine, maps, basis)
        tests.append((list(maps), kept, [engine.from_binomial4(b4) for b4 in basis]))
        return kept

    with monkeypatch.context() as m:
        m.setattr(binom, "_uncertified", record_step)
        m.setattr(binom, "_stabilizer", record_test)
        out = run()
    return steps, tests, out


@pytest.mark.parametrize("coords", [
    pytest.param(MEDIUM_B, id="MEDIUM_B"),
    pytest.param(THIN_6X6, id="THIN_6X6"),
])
def test_one_step_certifies_a_whole_orbit(monkeypatch, coords):
    """On a frame whose square box's seven maps and line swaps fix the
    ideal, the first step keeps all of them, and some step certifies
    more variables than ``_uncertified`` left it: the images of those it
    certified under the group the maps generate.  Each variable
    certified by an orbit alone passes the Bayer-Stillman test on that
    step's basis: under degrevlex with it last, no element of the
    reduced basis has it in both terms."""
    lm = build_label_map(cfg_of(coords))
    maps = _candidate_symmetries(lm)
    steps, tests, _ = orbit_steps(monkeypatch, lambda: toric_generators(lm))
    assert [(offered, kept) for offered, kept, _ in tests] == [(maps, maps)]
    assert len(maps) > 7
    by_orbit = 0
    for k, (pending, left, basis) in enumerate(steps):
        after = steps[k + 1][0] if k + 1 < len(steps) else []
        assert set(after) <= set(left)
        certified = set(pending) - set(left)
        for u in set(left) - set(after):
            assert u in orbit_closure(maps, certified), u
            gb = buchberger(basis, TermOrder("degrevlex", last=(u,)))
            assert not any(exponent(g.plus, u) and exponent(g.minus, u)
                           for g in gb.elements), u
            by_orbit += 1
    assert by_orbit
    assert len(steps) < len(lm.points()) - by_orbit


@pytest.mark.parametrize("coords", [
    pytest.param(SMALL, id="SMALL"),
    pytest.param(MEDIUM_B, id="MEDIUM_B", marks=pytest.mark.slow),
])
def test_the_stabilizer_keeps_exactly_the_maps_that_fix_the_ideal(monkeypatch, coords):
    """On the instance and on every labelling with one label moved by 1,
    a map offered to ``_stabilizer`` is kept exactly when the reduced
    basis of the image of the step's basis is the step's own reduced
    basis, that is when the map fixes the step's ideal; and the toric
    basis is the one with no orbits.  Every map offered fixes the vertex
    set, and some are rejected, so a corrupted labelling gets no orbit
    that its ideal does not have."""
    lm = build_label_map(cfg_of(coords))
    labellings = [lm] + [lm.with_label(v, value) for v in lm.points()
                         for value in (lm.labels[v] - 1, lm.labels[v] + 1) if value >= 1]
    rejected = 0
    for bad in labellings:
        _, tests, with_orbits = orbit_steps(monkeypatch, lambda: toric_generators(bad))
        for offered, kept, basis in tests:
            assert offered == _candidate_symmetries(bad)
            gb = buchberger(basis).elements
            fixing = [g for g in offered
                      if buchberger([image(g, b) for b in basis]).elements == gb]
            assert kept == fixing
            rejected += len(offered) - len(kept)
        with monkeypatch.context() as m:
            without_orbits(m)
            assert toric_generators(bad) == with_orbits
    assert rejected


def test_no_orbit_when_every_box_map_moves_the_hole(monkeypatch):
    """(0,0),(5,4),(1,1),(3,2): the hole is one cell high, so it holds no
    vertex and the box's three maps fix the vertex set, but each moves
    the hole.  The test keeps none of them; it keeps the line swaps.
    The S-pairs were recorded when the final degrevlex run went (1018
    before, 3403 before the line swaps, and 4067 before the saturation
    took symmetries at all)."""
    lm = build_label_map(cfg_of(((0, 0), (5, 4), (1, 1), (3, 2))))
    box = [{vertex_var(p): vertex_var(q(*p)) for p in lm.points()}
           for q in (lambda x, y: (5 - x, y), lambda x, y: (x, 4 - y),
                     lambda x, y: (5 - x, 4 - y))]
    offered = _candidate_symmetries(lm)
    assert all(g in offered for g in box)
    _, tests, _ = orbit_steps(monkeypatch, lambda: toric_generators(lm))
    [(_, kept, _)] = tests
    assert kept and not any(g in kept for g in box)
    assert spair_trace(monkeypatch, lambda: toric_generators(lm)) == (
        511, "312fd19ecf9832449e8e5f595d71ddc78ac9564becf8eee6abb4b1249ffdb25b")


@pytest.mark.parametrize("coords", [SMALL, FRAME_7X5], ids=["SMALL", "FRAME_7X5"])
def test_a_swap_across_a_band_boundary_is_never_kept(monkeypatch, coords):
    """The lines x = a'.x and x = a'.x + 1 lie in two bands.  No candidate
    swaps two lines across a band boundary, and offered the swap of those
    two, ``_stabilizer`` rejects it and keeps every candidate.  On SMALL
    the swap fixes the vertex set but not the ideal; on the 7x5 frame it
    sends a vertex into the hole."""
    lm = build_label_map(cfg_of(coords))
    _, _, lo, hi = lm.cfg.as_tuples()
    offered = _candidate_symmetries(lm)
    crossing = [line_swap(lm, axis, i) for axis in (0, 1) for i in (lo[axis], hi[axis] - 1)]
    assert not any(g in offered for g in crossing)
    swap = line_swap(lm, 0, lo.x)
    monkeypatch.setattr(toric, "_candidate_symmetries", lambda lm: offered + [swap])
    _, tests, _ = orbit_steps(monkeypatch, lambda: toric_generators(lm))
    assert [(maps, kept) for maps, kept, _ in tests] == [(offered + [swap], offered)]


def _ladder():
    for name, coords in [("SMALL", SMALL), ("MEDIUM_A", MEDIUM_A), ("MEDIUM_B", MEDIUM_B),
                         ("FRAME_7X5", FRAME_7X5), ("THIN_6X6", THIN_6X6),
                         ("FRAME_8X5", FRAME_8X5), ("THICK_FRAME", THICK_FRAME),
                         ("WIDE_7X7", WIDE_7X7), ("WIDE_8X8", WIDE_8X8), ("WIDE_9X9", WIDE_9X9),
                         ("OFF_CENTRE_9X7", OFF_CENTRE_9X7),
                         ("OFF_CENTRE_10X8", OFF_CENTRE_10X8)]:
        yield pytest.param(coords, id=name)
    for coords in sweep_configs():
        yield pytest.param(coords, id=str(coords))


@pytest.mark.parametrize("coords", list(_ladder()))
def test_candidate_swaps_are_the_swaps_that_fix_the_minors(coords):
    """By brute force over the inner minors, with no saturation: the line
    swaps among the candidates are exactly the swaps of two adjacent
    lines that send the vertex set onto itself and the minors onto the
    minors up to sign.  The other candidates are at most the box's seven
    maps."""
    lm = build_label_map(cfg_of(coords))
    minors = enumerate_inner_minors(build_rect_diff(lm.cfg))
    signless = {frozenset(m) for m in minors}
    a, b, _, _ = lm.cfg.as_tuples()
    swaps = [line_swap(lm, axis, i) for axis in (0, 1) for i in range(a[axis], b[axis])]
    fixing = [g for g in swaps if set(g.values()) == set(g)
              and {frozenset(image(g, m)) for m in minors} == signless]
    offered = _candidate_symmetries(lm)
    assert [g for g in offered if g in swaps] == fixing
    assert len(offered) - len(fixing) <= 7


def test_the_first_step_certifies_whole_orbits(monkeypatch):
    """On the 7x5 frame the first step certifies a few variables by its
    leads, and with them their orbits under the group that the kept maps
    generate: the set it certifies is a union of whole orbits, more than
    the leads give and less than every variable."""
    lm = build_label_map(cfg_of(FRAME_7X5))
    steps, tests, _ = orbit_steps(monkeypatch, lambda: toric_generators(lm))
    [(_, kept, _)] = tests
    (pending, left, _), (after, _, _) = steps[:2]
    first = set(pending) - set(after)
    assert orbit_closure(kept, first) == first
    assert set(pending) - set(left) < first < set(pending)


def _orbit_cases():
    for name, coords in [("SMALL", SMALL), ("MEDIUM_B", MEDIUM_B), ("FRAME_7X5", FRAME_7X5),
                         ("THIN_6X6", THIN_6X6), ("FRAME_8X5", FRAME_8X5)]:
        yield pytest.param(coords, id=name)
    yield pytest.param(THICK_FRAME, id="THICK_FRAME", marks=pytest.mark.slow)
    for coords in sweep_configs():
        yield pytest.param(coords, id=str(coords))


@pytest.mark.parametrize("coords", list(_orbit_cases()))
def test_orbits_change_no_basis(monkeypatch, coords):
    """``toric_generators`` gives the same basis, byte for byte, with
    ``_stabilizer`` patched to keep no map."""
    lm = build_label_map(cfg_of(coords))
    with_orbits = "\n".join(map(str, toric_generators(lm)))
    without_orbits(monkeypatch)
    assert "\n".join(map(str, toric_generators(lm))) == with_orbits
