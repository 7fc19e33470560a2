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
    saturation_steps_reference,
    spairs_per_step,
    without_pruning,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from polytoric import binom
from polytoric.binom import (
    DEGREVLEX,
    UNIT,
    ZERO,
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
# S-pairs the engine reduces; these traces can.  Recorded with the eager
# Gebauer-Moeller update, before the bookkeeping rewrite, and with a full
# Buchberger run at every saturation step: ``_hilbert_numerator``, the
# one seam of the Hilbert-series skip rule and pruning, is patched to
# return None, so no step is skipped or pruned and every step reduces the
# S-pairs it reduced before steps could be skipped.  The input is
# ``lattice_kernel``'s basis alone, without the quadratic kernel
# binomials that ``toric_generators`` adds (pinned further below).
@pytest.mark.parametrize("coords, count, digest", [
    pytest.param(SMALL, 1274,
                 "f4a03b5a046385b8dd30ac5fc746364293a0cd4a6c3a121f2d60194183cb4da2",
                 id="SMALL"),
    pytest.param(MEDIUM_B, 4678,
                 "a3304843269e1192c198185b4311609907c47d4c7ba87036bb992fd733d22d90",
                 id="MEDIUM_B"),
])
def test_spair_trace_toric(monkeypatch, coords, count, digest):
    monkeypatch.setattr(binom, "_hilbert_numerator", lambda *args: None)
    lm = build_label_map(cfg_of(coords))
    assert spair_trace(monkeypatch, lambda: lattice_toric_basis(lm)) == (count, digest)


# The same traces with the Hilbert-series check on: the skipped steps
# reduce no S-pair (see test_skipped_steps_leave_the_other_steps_spairs_alone).
# The unpruned ones were recorded when the check was added, the pruned
# ones when the full steps started to drop the pairs that the series
# proves zero (see test_pruning_drops_only_zero_reductions).
@pytest.mark.parametrize("coords, pruning, count, digest", [
    pytest.param(SMALL, True, 456,
                 "5899f65270cc1a12f7d81d181b807a3e8662be8ce6bb0426f3ad75a644e006aa",
                 id="SMALL"),
    pytest.param(MEDIUM_B, True, 1346,
                 "69a7f868884046dd17dc17e6bdc6ed419e3b9d4c2e312306f111e46ce6226481",
                 id="MEDIUM_B"),
    pytest.param(SMALL, False, 543,
                 "c8ea6009a01533f3b6ffcba4a587f7538a4cb9a9fcf6bb9b062c30de0a95c7ac",
                 id="SMALL-unpruned"),
    pytest.param(MEDIUM_B, False, 1525,
                 "1c492c4446e21f606b91af0c3fe4d1ed5ec171e63041195bcb8a173a7db1cc5a",
                 id="MEDIUM_B-unpruned"),
])
def test_spair_trace_toric_with_skipped_steps(monkeypatch, coords, pruning, count, digest):
    lm = build_label_map(cfg_of(coords))
    if not pruning:
        without_pruning(monkeypatch)
    assert spair_trace(monkeypatch, lambda: lattice_toric_basis(lm)) == (count, digest)


# ``toric_generators``' own S-pairs, from ``lattice_kernel``'s basis and
# every quadratic kernel binomial: at every step (the seam patched to
# return None), with skipped steps, and with skipped and pruned steps.  The
# first two recorded with the engine from before the pair update filled
# the occurrence index and the interreduction took element lists, the
# last when the full steps started to prune.
@pytest.mark.parametrize("coords, mode, count, digest", [
    pytest.param(SMALL, "every-step", 941,
                 "ee0210964da9623f3b2d525ae38eaa46dd3fa334fa7bf6c151f58673e422f63e",
                 id="SMALL-every-step"),
    pytest.param(SMALL, "unpruned", 397,
                 "381b304a192b5496b03f483629cf63352e93c9d6faa56a5e98892ea093d3b4ad",
                 id="SMALL-skips-unpruned"),
    pytest.param(SMALL, "skips", 293,
                 "3fe1a15dcfc2e773250ac9a2c64f556c08fe8b810a07e31bdda8d1a626d77044",
                 id="SMALL-skips"),
    pytest.param(MEDIUM_B, "every-step", 3257,
                 "ce8a2646a1e6fe01f79f170956f614589ef34fb67201f35d592780f0f775a991",
                 id="MEDIUM_B-every-step"),
    pytest.param(MEDIUM_B, "unpruned", 1017,
                 "268590566dc4ddf4aa054a6bbdc6cceaec554b677d603d43bfdeef20bd8b36e9",
                 id="MEDIUM_B-skips-unpruned"),
    pytest.param(MEDIUM_B, "skips", 790,
                 "835d1b333acf0d63239f68d381d800886ef4d61806d70816ccd2c2f0c30dcea4",
                 id="MEDIUM_B-skips"),
    pytest.param(FRAME_7X5, "unpruned", 4354,
                 "05181dfeae2608818dc4d30832d6a4bde672beb066aef3fa402446b721676960",
                 id="FRAME_7X5-skips-unpruned"),
    pytest.param(FRAME_7X5, "skips", 3142,
                 "c3265bd41fa9fd950056a2e09501c04d29c4035d43ce0404db4fe1cb20ef7497",
                 id="FRAME_7X5-skips"),
    pytest.param(THICK_FRAME, "unpruned", 27742,
                 "6a39fadcef50eafceea47a8ad488fb79c4ee7b094682af538043c249888ecbe3",
                 id="THICK_FRAME-skips-unpruned", marks=pytest.mark.slow),
    pytest.param(THICK_FRAME, "skips", 19389,
                 "c476ff20b34ee0b1ce770ae977e11cb5d01093a38593f016c52b9cfc0eefdb00",
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
    trace = spair_trace(monkeypatch, lambda: buchberger(minors, binom.LEX, track=True))
    assert trace == (
        80, "61df7729f60ca38fd3bb566beedf23ad8d68875a23a353d88fbf49b4206d8e8e")


@pytest.mark.parametrize("coords", [SMALL, MEDIUM_B], ids=["SMALL", "MEDIUM_B"])
def test_skipped_steps_leave_the_other_steps_spairs_alone(monkeypatch, coords):
    """With the pruning patched out, a step reduces either no S-pair
    (skipped) or the S-pairs it reduces when no step is skipped."""
    lm = build_label_map(cfg_of(coords))
    without_pruning(monkeypatch)
    with_skips = spairs_per_step(monkeypatch, lambda: toric_generators(lm))
    monkeypatch.setattr(binom, "_hilbert_numerator", lambda *args: None)
    without = spairs_per_step(monkeypatch, lambda: toric_generators(lm))
    assert len(with_skips) == len(without)
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


@pytest.mark.parametrize("coords", [SMALL, MEDIUM_B, FRAME_7X5],
                         ids=["SMALL", "MEDIUM_B", "FRAME_7X5"])
def test_pruning_drops_only_zero_reductions(monkeypatch, coords):
    """Each pruned step reduces the pairs of the unpruned step, in the
    same order, minus some pairs of its lowest degree, and every pair it
    drops reduces to zero in the unpruned step."""
    lm = build_label_map(cfg_of(coords))
    pruned = reductions_per_step(monkeypatch, lambda: toric_generators(lm))
    with monkeypatch.context() as m:
        without_pruning(m)
        full = reductions_per_step(m, lambda: toric_generators(lm))
    assert len(pruned) == len(full)
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
    assert all(pair[0] == d0 and not pair[3] for pair, d0 in dropped)


def recorded_saturation(monkeypatch, gens, variables):
    """``saturate_generators``'s output, each step's reduced basis (the
    output of its one interreduction, skipped step or full run), and the
    number of full Buchberger runs."""
    steps = []
    runs = []
    interreduce, run = binom._interreduce, binom._run_buchberger

    def record_step(engine, elems, prov, track):
        out = interreduce(engine, elems, prov, track)
        steps.append(tuple(engine.from_binomial4(b4) for b4 in out[0]))
        return out

    def count_run(*args):
        runs.append(None)
        return run(*args)

    with monkeypatch.context() as m:
        m.setattr(binom, "_interreduce", record_step)
        m.setattr(binom, "_run_buchberger", count_run)
        out = saturate_generators(gens, variables)
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


# Full Buchberger runs among the saturation steps, recorded when the
# Hilbert-series check was added; the first step always runs.
@pytest.mark.parametrize("coords, runs", [
    pytest.param(SMALL, 5, id="SMALL"),
    pytest.param(MEDIUM_B, 5, id="MEDIUM_B"),
    pytest.param(FRAME_7X5, 7, id="FRAME_7X5"),
])
def test_saturation_skips_steps(monkeypatch, coords, runs):
    gens, variables = saturation_input(coords)
    _, steps, got = recorded_saturation(monkeypatch, gens, variables)
    assert len(steps) == len(variables)
    assert got == runs


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
