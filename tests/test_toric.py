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
    series_coefficients,
    spairs_per_step,
    without_orbits,
    without_pruning,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from polytoric import binom
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
    _box_symmetries,
    saturate_generators,
    toric_generators,
)
from polytoric.verify import minors_balanced


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
    """``toric_generators`` (quadratic start, pruning, certified orbits)
    and the saturation from ``lattice_kernel``'s basis alone reach the
    same basis on every sweep configuration."""
    lm = build_label_map(cfg_of(coords))
    assert toric_generators(lm) == lattice_toric_basis(lm)


def test_saturation_already_saturated_generator():
    # x1*x2 - x3 has no variable dividing both terms, so one pass is a
    # no-op (up to normalization).
    gens = [parse_binomial("r[1]*r[2] - r[3]")]
    variables = [r_var(1), r_var(2), r_var(3)]
    out = saturate_generators(gens, variables)
    assert [normalized(g, DEGREVLEX) for g in out] == [
        normalized(gens[0], DEGREVLEX)
    ]


def test_saturation_removes_common_variable():
    gens = [parse_binomial("r[1]*r[2] - r[1]*r[3]")]
    variables = [r_var(1), r_var(2), r_var(3)]
    out = saturate_generators(gens, variables)
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
    once = saturate_generators(gens, variables)
    twice = saturate_generators(once, variables)
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
                 id="FRAME_8X5", marks=pytest.mark.slow),
    pytest.param(THICK_FRAME, 144,
                 "b6f76a79c66a7a5a7d5909497840e236e4dee02f971afac09d5942a75259e694",
                 id="THICK_FRAME", marks=pytest.mark.slow),
    # Frames with a ring two cells wide, recorded before the saturation
    # ran its steps under block orders.
    pytest.param(((1, 1), (7, 7), (3, 3), (5, 5)), 216,
                 "299c090de42f3046b6e9a4c166dd3c46915f35ee0f09da371b2be7da5f563882",
                 id="WIDE_7X7", marks=pytest.mark.slow),
    pytest.param(((1, 1), (8, 8), (3, 3), (6, 6)), 300,
                 "074adc3406f71c12861d50f4cae541e6ccaaf62779d6b3c033d18fa5d2374871",
                 id="WIDE_8X8", marks=pytest.mark.slow),
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
# variables by the leads, with a full Buchberger run at every step:
# ``_hilbert_numerator``, the one seam of the Hilbert-series skip rule
# and pruning, is patched to return None, so no step is skipped or
# pruned.  The input is ``lattice_kernel``'s basis alone, without the
# quadratic kernel binomials that ``toric_generators`` adds (pinned
# further below).  Re-recorded when each step after the first started to
# drop the generators of degree 3 or more that reduce to zero against
# those of degree 2 or less.
@pytest.mark.parametrize("coords, count, digest", [
    pytest.param(SMALL, 938,
                 "259db428dfc284201bca2ebbd4a1a38c7c2c0524673e676de10c025461b3de16",
                 id="SMALL"),
    pytest.param(MEDIUM_B, 3111,
                 "5708851f72599120d756d226610466bf2ab5b3e4a60f627ae1e0b34e9a90bd3d",
                 id="MEDIUM_B"),
])
def test_spair_trace_toric(monkeypatch, coords, count, digest):
    monkeypatch.setattr(binom, "_hilbert_numerator", lambda *args: None)
    lm = build_label_map(cfg_of(coords))
    assert spair_trace(monkeypatch, lambda: lattice_toric_basis(lm)) == (count, digest)


# The same traces with the Hilbert-series check on: the skipped steps
# reduce no S-pair (see test_skipped_steps_leave_the_other_steps_spairs_alone),
# and the pruned steps drop only pairs that the series proves zero (see
# test_pruning_drops_only_zero_reductions).  Recorded with the block
# orders, as above, and again when the steps started to drop generators
# (as above) and to prune the degree after the lowest too.
@pytest.mark.parametrize("coords, pruning, count, digest", [
    pytest.param(SMALL, True, 324,
                 "584aa588cc12e837fcef849b00ef2db68ceb5e652ded0c6d63f31c01749aca5d",
                 id="SMALL"),
    pytest.param(MEDIUM_B, True, 987,
                 "cba25a987eac8baaa277d5c39b2e743de1c0232725484d6fe16806e79020a853",
                 id="MEDIUM_B"),
    pytest.param(SMALL, False, 540,
                 "691587ca218b05ecb5a7be050b12d62f6644bcede7d99ca1815ec7615897e9c2",
                 id="SMALL-unpruned"),
    pytest.param(MEDIUM_B, False, 1558,
                 "da2d515352e236e0b309eac5369a68be583b2bb446e4028ef6b6ff6f5a0f34b6",
                 id="MEDIUM_B-unpruned"),
])
def test_spair_trace_toric_with_skipped_steps(monkeypatch, coords, pruning, count, digest):
    lm = build_label_map(cfg_of(coords))
    if not pruning:
        without_pruning(monkeypatch)
    assert spair_trace(monkeypatch, lambda: lattice_toric_basis(lm)) == (count, digest)


# ``toric_generators``' own S-pairs, from ``lattice_kernel``'s basis and
# every quadratic kernel binomial: at every step (the seam patched to
# return None), with skipped steps, and with skipped and pruned steps.
# Recorded when the saturation started to certify the orbits of the
# box's symmetries, which takes fewer steps, and again when the steps
# after the first started to drop generators that reduce to zero against
# the quadrics and to prune the degree after the lowest too.  SMALL's
# skips cost no pair: with orbits, no step of it is skipped.
@pytest.mark.parametrize("coords, mode, count, digest", [
    pytest.param(SMALL, "every-step", 261,
                 "72a85e2725a6d8ab1b9df738c9855703ed61410a0615d32ff0ca38401133eb9a",
                 id="SMALL-every-step"),
    pytest.param(SMALL, "unpruned", 261,
                 "72a85e2725a6d8ab1b9df738c9855703ed61410a0615d32ff0ca38401133eb9a",
                 id="SMALL-skips-unpruned"),
    pytest.param(SMALL, "skips", 187,
                 "619d41e63fb0e7d4a2ffb592dfb99993690219ec575899ca50ef145dfd2bea68",
                 id="SMALL-skips"),
    pytest.param(MEDIUM_B, "every-step", 713,
                 "7102f307b07d83efe8345ade5662bbf5c5b8226b44658fe96afb43e2d10706ff",
                 id="MEDIUM_B-every-step"),
    pytest.param(MEDIUM_B, "unpruned", 597,
                 "7e7dd705faafc515063855c1c09508ae841fe17b4b8cca67539e1bc0a1ab3877",
                 id="MEDIUM_B-skips-unpruned"),
    pytest.param(MEDIUM_B, "skips", 444,
                 "2764081a57bf8f8a7a26c7cf0300243cff2e3e1aae37a0652fb198c0fc80509e",
                 id="MEDIUM_B-skips"),
    pytest.param(FRAME_7X5, "unpruned", 2280,
                 "eef6c9b80f8a45dbe451a8b8c949e1d9ab2c2ac4ddb72a76374a984b52f6d232",
                 id="FRAME_7X5-skips-unpruned"),
    pytest.param(FRAME_7X5, "skips", 1284,
                 "10fc2811f865f9619c89f4112043e975136f9e06928a6b268feb9182e2e13c88",
                 id="FRAME_7X5-skips"),
    pytest.param(THICK_FRAME, "unpruned", 12998,
                 "908e8c5fd1a9f24d6a7a1b8f2e9c14dbcea21204eb0369afd4a386f9c25438e6",
                 id="THICK_FRAME-skips-unpruned", marks=pytest.mark.slow),
    pytest.param(THICK_FRAME, "skips", 7249,
                 "095d9e4c5fd7240e185af5195bf8854e10f765af4bc72e94d03e3432900b2672",
                 id="THICK_FRAME-skips", marks=pytest.mark.slow),
])
def test_spair_trace_toric_generators_with_quadrics(monkeypatch, coords, mode,
                                                     count, digest):
    lm = build_label_map(cfg_of(coords))
    if mode == "every-step":
        monkeypatch.setattr(binom, "_hilbert_numerator", lambda *args: None)
    elif mode == "unpruned":
        without_pruning(monkeypatch)
    assert spair_trace(monkeypatch, lambda: toric_generators(lm)) == (count, digest)


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


@pytest.mark.parametrize("coords, orbits", [
    # With orbits no step of SMALL is skipped, so it runs without them.
    pytest.param(SMALL, False, id="SMALL"),
    pytest.param(MEDIUM_B, True, id="MEDIUM_B"),
])
def test_skipped_steps_leave_the_other_steps_spairs_alone(monkeypatch, coords, orbits):
    """With the pruning patched out, a step reduces either no S-pair
    (skipped) or the S-pairs it reduces when no step is skipped.  Both
    runs take the same steps, by the same variables: a step's reduced
    basis, which certifies the variables, is the same skipped or run."""
    lm = build_label_map(cfg_of(coords))
    without_pruning(monkeypatch)
    if not orbits:
        without_orbits(monkeypatch)

    def run():
        return toric_generators(lm)

    with_skips = spairs_per_step(monkeypatch, run)
    pending = pending_per_step(monkeypatch, run)
    monkeypatch.setattr(binom, "_hilbert_numerator", lambda *args: None)
    without = spairs_per_step(monkeypatch, run)
    assert pending_per_step(monkeypatch, run) == pending
    assert len(with_skips) == len(without) == len(pending) + 1
    skipped = [k for k, (a, b) in enumerate(zip(with_skips, without)) if a != b]
    assert skipped and all(with_skips[k] == [] for k in skipped)


def reductions_per_step(monkeypatch, run):
    """Per Buchberger run or skipped step, the S-pairs reduced during
    ``run()`` in order, each as [lcm degree, lead, lead, nonzero]: a pair
    is nonzero when the engine adds its normal form to the basis."""
    steps = [[]]
    spoly4, interreduce, update = binom._spoly4, binom._interreduce, binom._gm_update

    def record_pair(engine, f, g):
        steps[-1].append([engine.lcm(f.lp, g.lp)[0], engine.unpack(f.lp),
                          engine.unpack(g.lp), False])
        return spoly4(engine, f, g)

    def record_nonzero(*args):
        if steps[-1]:
            steps[-1][-1][3] = True
        return update(*args)

    def close_step(*args):
        steps.append([])
        return interreduce(*args)

    with monkeypatch.context() as m:
        m.setattr(binom, "_spoly4", record_pair)
        m.setattr(binom, "_gm_update", record_nonzero)
        m.setattr(binom, "_interreduce", close_step)
        run()
    return steps[:-1]


@pytest.mark.parametrize("coords", [
    pytest.param(SMALL, id="SMALL"),
    pytest.param(MEDIUM_B, id="MEDIUM_B"),
    pytest.param(FRAME_7X5, id="FRAME_7X5"),
    pytest.param(((0, 0), (5, 4), (1, 1), (3, 2)), id="no-orbit"),
    pytest.param(THICK_FRAME, id="THICK_FRAME", marks=pytest.mark.slow),
])
def test_pruning_drops_only_zero_reductions(monkeypatch, coords):
    """Each pruned step reduces the pairs of the unpruned step, in the
    same order, minus some pairs of its lowest degree or the next, and
    every pair it drops reduces to zero in the unpruned step.  Both runs
    take the same steps, by the same variables."""
    lm = build_label_map(cfg_of(coords))

    def run():
        return toric_generators(lm)

    pruned = reductions_per_step(monkeypatch, run)
    pending = pending_per_step(monkeypatch, run)
    with monkeypatch.context() as m:
        without_pruning(m)
        full = reductions_per_step(m, run)
        assert pending_per_step(m, run) == pending
    assert len(pruned) == len(full) == len(pending) + 1
    dropped = []
    for kept, every in zip(pruned, full):
        rest = iter(every)
        for pair in kept:
            for other in rest:
                if other == pair:
                    break
                dropped.append((other, min(p[0] for p in every)))
            else:
                pytest.fail(f"{pair} is not in the unpruned step")
        dropped += [(other, min(p[0] for p in every)) for other in rest]
    assert dropped
    assert all(pair[0] - d0 in (0, 1) and not pair[3] for pair, d0 in dropped)


def count_decided_steps(monkeypatch, run):
    """Per saturation step of ``run()`` that ``_low_hilbert`` decides:
    (engine, the leads counted, the deficits the step's Buchberger run
    starts from or None when the step is skipped, the leads of the
    step's reduced basis)."""
    steps = []
    low, full, interreduce = binom._low_hilbert, binom._run_buchberger, binom._interreduce

    def record_counts(engine, leads):
        leads = list(leads)
        steps.append([engine, leads, None, None])
        return low(engine, leads)

    def record_run(engine, gens4, budget, deficit=None):
        if steps and steps[-1][3] is None:
            steps[-1][2] = dict(deficit)
        return full(engine, gens4, budget, deficit)

    def record_basis(*args):
        out = interreduce(*args)
        if steps and steps[-1][3] is None:
            steps[-1][3] = [b4[1] for b4 in out]
        return out

    with monkeypatch.context() as m:
        m.setattr(binom, "_low_hilbert", record_counts)
        m.setattr(binom, "_run_buchberger", record_run)
        m.setattr(binom, "_interreduce", record_basis)
        run()
    return steps


def test_counts_decide_steps_as_the_numerator_would(monkeypatch):
    """Every step decided by counting, on the standard instances and the
    16 sweep configurations, has only leads of degree 2 or less.  It is
    skipped exactly when its leads have the Hilbert series of its ideal,
    read from the numerator of its reduced basis's leads, and otherwise
    runs from the deficits in degrees 1 to 3 that the numerators give."""
    decided = {True: 0, False: 0}
    for coords in [SMALL, MEDIUM_B, FRAME_7X5, *sweep_configs()]:
        lm = build_label_map(cfg_of(coords))
        for engine, leads, deficit, basis in count_decided_steps(
                monkeypatch, lambda: toric_generators(lm)):
            n = len(engine.vars)
            assert all(p % binom._FMASK <= 2 for p in leads)
            ours = binom._hilbert_numerator(engine, leads, {})
            ideal = binom._hilbert_numerator(engine, basis, {})
            assert (deficit is None) == (ours == ideal), coords
            if deficit is not None:
                gap = [a - b for a, b in zip(series_coefficients(ours, n, 3),
                                             series_coefficients(ideal, n, 3))]
                assert deficit == {d: gap[d] for d in (1, 2, 3)}, coords
            decided[deficit is None] += 1
    assert decided[True] and decided[False]


@pytest.mark.parametrize("start, coords", [
    pytest.param(lattice_toric_basis, SMALL, id="SMALL-lattice"),
    pytest.param(lattice_toric_basis, MEDIUM_B, id="MEDIUM_B-lattice"),
    pytest.param(toric_generators, ((0, 0), (5, 4), (1, 1), (3, 2)), id="no-orbit"),
    pytest.param(toric_generators, THICK_FRAME, id="THICK_FRAME"),
])
def test_tracked_deficit_matches_a_fresh_numerator(monkeypatch, start, coords):
    """When a pruned run pops its first pair of degree d0 + 1, d0 the
    degree of its first pair, the deficit it tracks there is the one
    that fresh numerators give: of the leads it holds then, and of its
    reduced basis's leads, whose series is its ideal's."""
    lm = build_label_map(cfg_of(coords))
    runs = []
    full, update, pop = binom._run_buchberger, binom._gm_update, binom.heappop

    def record_run(engine, gens4, budget, deficit=None):
        runs.append({"deficit": deficit, "start": dict(deficit or {}), "d0": None, "at": None})
        out = full(engine, gens4, budget, deficit)
        runs[-1]["engine"], runs[-1]["basis"] = engine, [b4[1] for b4 in out]
        return out

    def record_update(engine, basis, heap, b4):
        runs[-1]["held"] = basis
        return update(engine, basis, heap, b4)

    def record_pop(heap):
        item = pop(heap)
        run = runs[-1]
        if run["d0"] is None:
            run["d0"] = item[0]
        elif run["at"] is None and item[0] == run["d0"] + 1 and item[0] in (run["deficit"] or {}):
            run["at"] = (run["deficit"][item[0]], [e.lp for e in run["held"].elems])
        return item

    with monkeypatch.context() as m:
        m.setattr(binom, "_run_buchberger", record_run)
        m.setattr(binom, "_gm_update", record_update)
        m.setattr(binom, "heappop", record_pop)
        start(lm)
    checked = [run for run in runs if run["at"] is not None]
    assert checked
    for run in checked:
        engine, d = run["engine"], run["d0"] + 1
        n = len(engine.vars)
        tracked, held = run["at"]
        fresh = (series_coefficients(binom._hilbert_numerator(engine, held, {}), n, d)[d]
                 - series_coefficients(binom._hilbert_numerator(engine, run["basis"], {}), n, d)[d])
        assert tracked == fresh
    assert any(run["at"][0] != run["start"][run["d0"] + 1] for run in checked)


def test_frame_7x5_reads_one_numerator(monkeypatch):
    """The count rule decides every step of the 7x5 frame after the
    first, whose generators are all quadrics: the one Hilbert numerator
    is the series of the first step's ideal."""
    lm = build_label_map(cfg_of(FRAME_7X5))
    calls = []
    numerator = binom._hilbert_numerator
    monkeypatch.setattr(binom, "_hilbert_numerator",
                        lambda *args: calls.append(None) or numerator(*args))
    toric_generators(lm)
    assert len(calls) == 1


@pytest.mark.parametrize("coords", [MEDIUM_B, FRAME_7X5], ids=["MEDIUM_B", "FRAME_7X5"])
def test_numerator_seam_turns_off_counts_skips_and_pruning(monkeypatch, coords):
    """With ``_hilbert_numerator`` patched to return None, no step is
    counted or skipped and no run gets a deficit."""
    lm = build_label_map(cfg_of(coords))
    monkeypatch.setattr(binom, "_hilbert_numerator", lambda *args: None)
    counted, deficits = [], []
    full = binom._run_buchberger
    monkeypatch.setattr(binom, "_low_hilbert", lambda *args: counted.append(args))
    monkeypatch.setattr(binom, "_run_buchberger",
                        lambda engine, gens4, budget, deficit=None:
                        deficits.append(deficit) or full(engine, gens4, budget, deficit))
    steps = pending_per_step(monkeypatch, lambda: toric_generators(lm))
    assert counted == []
    assert deficits == [None] * (len(steps) + 1)


def recorded_saturation(monkeypatch, gens, variables, certified=None, symmetries=()):
    """``saturate_generators``'s output, each step's reduced basis (the
    output of its one interreduction, skipped step or full run), and the
    number of full Buchberger runs.  ``certified``, when given, gets one
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
        out = saturate_generators(gens, variables, symmetries=symmetries)
    return out, steps, len(runs)


def _saturation_cases():
    yield pytest.param(SMALL, None, id="SMALL")
    # The ideal changes between steps here, so the series is read again
    # and later steps are pruned against the new one.
    yield pytest.param(SMALL, GridPoint(1, 1), id="SMALL-raised")
    yield pytest.param(MEDIUM_B, None, id="MEDIUM_B")
    yield pytest.param(FRAME_7X5, None, id="FRAME_7X5")
    for coords in sweep_configs():
        yield pytest.param(coords, None, id=str(coords))
    yield pytest.param(FRAME_8X5, None, id="FRAME_8X5", marks=pytest.mark.slow)
    yield pytest.param(THICK_FRAME, None, id="THICK_FRAME", marks=pytest.mark.slow)


@pytest.mark.parametrize("coords, raised", list(_saturation_cases()))
def test_saturation_steps_match_full_runs(monkeypatch, coords, raised):
    """Every step's reduced basis, skipped, pruned or run, is the one a
    full Buchberger run from the previous step's output gives."""
    gens, variables = saturation_input(coords, raised)
    out, steps, _ = recorded_saturation(monkeypatch, gens, variables)
    ref_steps, ref_out = saturation_steps_reference(gens, variables)
    assert steps == ref_steps
    assert out == ref_out


# Full Buchberger runs and skipped steps of the saturation, recorded when
# the steps started to run under block orders and to certify by the
# leads; the first step always runs.
@pytest.mark.parametrize("coords, runs, skips", [
    pytest.param(SMALL, 5, 6, id="SMALL"),
    pytest.param(MEDIUM_B, 5, 9, id="MEDIUM_B"),
    pytest.param(FRAME_7X5, 7, 10, id="FRAME_7X5"),
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
    and the output and ``toric_generators``' basis stay the same."""
    gens, variables = saturation_input(coords, raised)
    out = saturate_generators(gens, variables)
    lm = build_label_map(cfg_of(coords))
    if raised is not None:
        lm = lm.with_label(raised, lm.labels[raised] + 1)
    basis = toric_generators(lm)
    monkeypatch.setattr(binom, "_uncertified", lambda engine, pending, basis: pending[1:])
    certified = []
    one_by_one, steps, _ = recorded_saturation(monkeypatch, gens, variables, certified)
    assert len(steps) == len(variables)
    assert [pending[0] for pending, _, _ in certified] == variables
    assert one_by_one == saturation_one_variable_reference(gens, variables)[1]
    assert buchberger(one_by_one).elements == buchberger(out).elements
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
    terms, so u is a nonzerodivisor modulo the ideal."""
    gens, variables = saturation_input(coords, raised)
    certified = []
    _, steps, _ = recorded_saturation(monkeypatch, gens, variables, certified)
    assert len(certified) == len(steps)
    checked = 0
    for pending, kept, basis in certified:
        for u in pending[1:]:
            if u in kept:
                continue
            checked += 1
            gb = buchberger(basis, TermOrder("degrevlex", last=(u,)))
            assert not any(exponent(g.plus, u) and exponent(g.minus, u)
                           for g in gb.elements), u
    assert checked == len(variables) - len(steps)


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


def test_saturation_of_inhomogeneous_input_runs_every_step(monkeypatch):
    # Dividing out a common power keeps a Groebner basis only for
    # homogeneous input, so here no step may be skipped: skipping the
    # second step would give a different basis.
    gens = [parse_binomial(g) for g in (
        "r[2]*r[3] - r[1]^2*r[3]",
        "r[1]*r[2]^2*r[3]^2 - r[1]*r[2]*r[4]",
        "r[1]*r[2]*r[3]^2 - r[2]^2*r[4]",
    )]
    variables = [r_var(1), r_var(2)]
    out, steps, runs = recorded_saturation(monkeypatch, gens, variables)
    assert (steps, out) == saturation_steps_reference(gens, variables)
    assert runs == len(variables)


def image(g, b: Binomial) -> Binomial:
    """The binomial b with every variable v replaced by g.get(v, v)."""
    return Binomial(*(Monomial([(g.get(v, v), e) for v, e in side]) for side in b))


@pytest.mark.parametrize("coords, count", [
    pytest.param(SMALL, 7, id="SMALL"),
    pytest.param(THIN_6X6, 7, id="THIN_6X6"),
    pytest.param(MEDIUM_A, 3, id="MEDIUM_A"),
    pytest.param(FRAME_7X5, 1, id="FRAME_7X5"),
    pytest.param(((0, 0), (6, 5), (1, 1), (3, 3)), 0, id="corner_hole"),
])
def test_box_symmetries_permute_the_vertices(coords, count):
    """The box's maps that fix the vertex set: all seven of the square's
    on a centred square hole, the reflections and the half turn on a
    hole centred in a wider box, one reflection on the 7x5 frame."""
    lm = build_label_map(cfg_of(coords))
    variables = {vertex_var(p) for p in lm.points()}
    maps = _box_symmetries(lm)
    assert len(maps) == count
    for g in maps:
        assert set(g) == set(g.values()) == variables
        assert any(g[v] != v for v in g)
    assert len({tuple(sorted(g.items())) for g in maps}) == count


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
    """On a frame whose square box's seven maps fix the ideal, the first
    step keeps all of them, and some step certifies more variables than
    ``_uncertified`` left it: the images of those it certified.  Each
    variable certified by an orbit alone passes the Bayer-Stillman test
    on that step's basis: under degrevlex with it last, no element of
    the reduced basis has it in both terms."""
    lm = build_label_map(cfg_of(coords))
    maps = _box_symmetries(lm)
    steps, tests, _ = orbit_steps(monkeypatch, lambda: toric_generators(lm))
    assert [(len(offered), kept) for offered, kept, _ in tests] == [(7, maps)]
    by_orbit = 0
    for k, (pending, left, basis) in enumerate(steps):
        after = steps[k + 1][0] if k + 1 < len(steps) else []
        assert set(after) <= set(left)
        certified = set(pending) - set(left)
        for u in set(left) - set(after):
            assert any(g[c] == u for g in maps for c in certified), u
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
            assert offered == _box_symmetries(bad)
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
    the hole.  The test keeps none of them, and the S-pairs are the ones
    recorded before the saturation took symmetries, less the pairs that
    the dropped generators and the pruning of the degree after the
    lowest take out (4067 before)."""
    lm = build_label_map(cfg_of(((0, 0), (5, 4), (1, 1), (3, 2))))
    assert len(_box_symmetries(lm)) == 3
    _, tests, _ = orbit_steps(monkeypatch, lambda: toric_generators(lm))
    assert [kept for _, kept, _ in tests] == [[]]
    assert spair_trace(monkeypatch, lambda: toric_generators(lm)) == (
        3403, "3d96f25640d31f230c3a93ee436415cbf7c1f441ff93dd036bf2e30a6fb9da93")


def test_inhomogeneous_input_takes_no_orbit(monkeypatch):
    """Inhomogeneous generators and a map that fixes their ideal (the
    generators are closed under it): still one full run per variable and
    the reference's steps, and the map is never tested."""
    swap = {r_var(1): r_var(2), r_var(2): r_var(1)}
    gens = [parse_binomial(g) for g in (
        "r[2]*r[3] - r[1]^2*r[3]",
        "r[1]*r[2]^2*r[3]^2 - r[1]*r[2]*r[4]",
    )]
    gens += [image(swap, g) for g in gens]
    variables = [r_var(1), r_var(2), r_var(3)]
    tested = []
    monkeypatch.setattr(binom, "_stabilizer", lambda *args: tested.append(args) or [])
    out, steps, runs = recorded_saturation(monkeypatch, gens, variables, symmetries=[swap])
    assert (steps, out) == saturation_steps_reference(gens, variables)
    assert runs == len(variables)
    assert tested == []


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
