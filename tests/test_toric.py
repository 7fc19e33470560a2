import pytest
from conftest import FRAME_7X5, MEDIUM_A, MEDIUM_B, SMALL, cfg_of, fraction_rank

from polytoric.binom import (
    DEGREVLEX,
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
    build_matrix_from_labels,
    lattice_kernel,
    lattice_vector_to_binomial,
    matrix_csv,
    phi_image_from_labels,
    saturate_generators,
    toric_generators,
)


def test_matrix_shape_frame():
    a = build_matrix_from_labels(build_label_map(cfg_of(FRAME_7X5)))
    assert a.shape() == (20, 33)  # 7 r-rows, 5 s-rows, 8 t-rows
    assert a.rows[:7] == tuple(r_var(i) for i in range(1, 8))
    assert a.rows[7:12] == tuple(s_var(j) for j in range(1, 6))
    assert a.rows[12:] == tuple(t_var(k) for k in range(1, 9))


def test_matrix_shape_small():
    a = build_matrix_from_labels(build_label_map(cfg_of(SMALL)))
    assert a.shape() == (10, 16)  # 4 + 4 + 2 rows


def test_matrix_column_pattern():
    a = build_matrix_from_labels(build_label_map(cfg_of(FRAME_7X5)))
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
        a = build_matrix_from_labels(build_label_map(cfg_of(coords)))
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
    assert str(phi_image_from_labels(x(3, 1), lm)) == "r[3]*s[1]*t[3]"
    diag = phi_image_from_labels(x(1, 1) * x(2, 2), lm)
    anti = phi_image_from_labels(x(1, 2) * x(2, 1), lm)
    assert diag == anti
    assert str(diag) == "r[1]*r[2]*s[1]*s[2]*t[1]^2"
    assert phi_image_from_labels(UNIT, lm) == UNIT
    with pytest.raises(VertexOutsidePolyomino):
        phi_image_from_labels(x(3, 3), lm)
    with pytest.raises(VertexOutsidePolyomino):
        phi_image_from_labels(Monomial([(r_var(1), 1)]), lm)


def test_lattice_kernel_duplicate_columns():
    a = ExponentMatrix(
        rows=(r_var(1), r_var(2)),
        cols=(GridPoint(0, 0), GridPoint(1, 1)),
        entries=((1, 1), (1, 1)),
    )
    kernel = lattice_kernel(a)
    assert [z.coords for z in kernel] == [(1, -1)]


def test_lattice_kernel_injective_matrix():
    a = ExponentMatrix(
        rows=(r_var(1), r_var(2)),
        cols=(GridPoint(0, 0), GridPoint(1, 1)),
        entries=((1, 0), (0, 1)),
    )
    assert lattice_kernel(a) == []


@pytest.mark.parametrize("coords", [SMALL, MEDIUM_A, MEDIUM_B, FRAME_7X5])
def test_lattice_kernel_exactness_and_dimension(coords):
    a = build_matrix_from_labels(build_label_map(cfg_of(coords)))
    kernel = lattice_kernel(a)
    n = len(a.cols)
    for z in kernel:
        assert len(z.coords) == n
        for row in a.entries:
            assert sum(e * c for e, c in zip(row, z.coords)) == 0
        assert sum(z.coords) == 0  # total-degree homogeneity
    assert len(kernel) == n - fraction_rank(a.entries)


def test_lattice_vector_to_binomial():
    cols = (GridPoint(1, 1), GridPoint(1, 2), GridPoint(2, 1))
    from polytoric.toric import LatticeVector

    b = lattice_vector_to_binomial(LatticeVector((2, -1, -1)), cols)
    assert b == parse_binomial("x[1,1]^2 - x[1,2]*x[2,1]")


def test_saturation_already_saturated_generator():
    # x1*x2 - x3 has no variable dividing both terms, so one pass is a
    # no-op (up to normalization).
    gens = [parse_binomial("r[1]*r[2] - r[3]")]
    variables = [r_var(1), r_var(2), r_var(3)]
    out = saturate_generators(gens, variables)
    assert [g.normalized(DEGREVLEX) for g in out] == [
        gens[0].normalized(DEGREVLEX)
    ]


def test_saturation_removes_common_variable():
    gens = [parse_binomial("r[1]*r[2] - r[1]*r[3]")]
    variables = [r_var(1), r_var(2), r_var(3)]
    out = saturate_generators(gens, variables)
    assert [str(g.normalized(DEGREVLEX)) for g in out] == ["r[3] - r[2]"]


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
        assert phi_image_from_labels(g.plus, lm) == phi_image_from_labels(g.minus, lm)


def test_saturation_idempotent():
    cfg = cfg_of(SMALL)
    matrix = build_matrix_from_labels(build_label_map(cfg))
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

    a = build_matrix_from_labels(build_label_map(cfg_of(SMALL)))
    text = matrix_csv(a)
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 1 + 10
    assert rows[0][:3] == ["variable", "x[1,1]", "x[1,2]"]
    assert rows[1][:6] == ["r[1]", "1", "1", "1", "1", "0"]
    assert all(len(row) == 17 for row in rows)
