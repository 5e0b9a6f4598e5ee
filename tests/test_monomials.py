import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qacm.linalg import QQ, RatMatrix, hstack, rank, vstack
from qacm.monomials import (P1, P2, Form, GradedPiece, basis, binary_forms_common_zero_free,
                            binary_gcd, cohomology_dim, h0_exponents,
                            multiplication_matrix, restrict_to_plane,
                            restriction_matrix)

u, v, w = (Form.variable(3, n) for n in "uvw")


# --- dimensions --------------------------------------------------------------

def test_dim_examples():
    assert cohomology_dim(P2, 0, 2) == 6
    assert cohomology_dim(P1, 1, -2) == 1
    assert cohomology_dim(P2, 2, -4) == 3


def test_dim_middle_cohomology_vanishes_on_p2():
    assert all(cohomology_dim(P2, 1, d) == 0 for d in range(-10, 10))


def test_dim_index_out_of_range():
    with pytest.raises(ValueError):
        cohomology_dim(P1, 2, 0)
    with pytest.raises(ValueError):
        basis(P2, 3, 0)


@pytest.mark.parametrize("d", range(-12, 13))
def test_serre_dual_dimensions(d):
    assert cohomology_dim(P2, 2, d) == cohomology_dim(P2, 0, -d - 3)
    assert cohomology_dim(P1, 1, d) == cohomology_dim(P1, 0, -d - 2)


# --- bases -------------------------------------------------------------------

def test_basis_linear_forms():
    assert basis(P2, 0, 1).basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_basis_top_one_dimensional():
    assert basis(P2, 2, -3).basis == ((-1, -1, -1),)


def test_basis_p1_dual():
    assert basis(P1, 1, -3).basis == ((-1, -2), (-2, -1))


def test_basis_sizes_match_dims():
    for d in range(-8, 8):
        for space, top in ((P1, 1), (P2, 2)):
            for i in range(top + 1):
                assert basis(space, i, d).dim == cohomology_dim(space, i, d)


# --- multiplication ----------------------------------------------------------

def test_mult_embedding():
    m = multiplication_matrix([[u]], [basis(P2, 0, 1)], [basis(P2, 0, 2)])
    # columns follow the source basis H0(O(1)), rows the target H0(O(2))
    assert (m.rows, m.cols) == (6, 3)
    assert rank(m) == 3


def test_mult_contraction_rule():
    src = basis(P2, 2, -4)
    m = multiplication_matrix([[u]], [src], [basis(P2, 2, -3)], top=True)
    cols = {src.basis[j]: m.column(j) for j in range(src.dim)}
    # u * u^-1 v^-2 w^-1 has a nonnegative exponent: dies
    assert all(x == 0 for x in cols[(-1, -2, -1)])
    tgt = basis(P2, 2, -3)
    j = tgt.basis.index((-1, -1, -1))
    assert cols[(-2, -1, -1)][j] == 1


def test_mult_zero_form():
    m = multiplication_matrix([[Form.zero(3)]], [basis(P2, 0, 1)], [basis(P2, 0, 1)])
    assert m.is_zero()


def test_mult_variable_mismatch():
    with pytest.raises(ValueError):
        multiplication_matrix([[Form.variable(2, "v")]], [basis(P2, 0, 1)], [basis(P2, 0, 2)])


def test_mult_degree_bookkeeping_error():
    with pytest.raises(ValueError, match="degree bookkeeping error"):
        multiplication_matrix([[v]], [basis(P2, 0, 1)], [basis(P2, 0, 1)])
    # an empty block is checked as well
    with pytest.raises(ValueError, match="degree bookkeeping error"):
        multiplication_matrix([[v]], [basis(P2, 0, -2)], [basis(P2, 0, -2)])


# --- one builder against blocks and stacks -------------------------------------


def _reference_block(f, src, tgt, top):
    """Multiplication by f from src to tgt, entry by entry in Fractions."""
    index = {m: i for i, m in enumerate(tgt.basis)}
    rows = [{} for _ in tgt.basis]
    for j, m in enumerate(src.basis):
        for e, c in f.terms:
            prod = tuple(a + b for a, b in zip(m, e))
            if not top or max(prod) < 0:
                rows[index[prod]][j] = c
    return RatMatrix.from_dicts(len(tgt.basis), len(src.basis), rows)


def _reference(grid, srcs, tgts, top):
    return vstack(*[hstack(*[_reference_block(f, src, tgt, top) for f, src in zip(row, srcs)])
                    for row, tgt in zip(grid, tgts)])


def _piece(space, i, d):
    if space == "P3":
        return GradedPiece(space, 0, d, h0_exponents(4, d))
    return basis(space, i, d)


# (space, cohomology index, variables, degrees of the pieces); the degrees
# include empty pieces: negative ones at H0, -1 and -2 at the top
_SPACES = [(P1, 0, 2, range(-2, 5)), (P1, 1, 2, range(-6, 0)),
           (P2, 0, 3, range(-2, 4)), (P2, 2, 3, range(-7, -1)), ("P3", 0, 4, range(-1, 3))]
_coefficients = st.one_of(st.integers(-3, 3),
                          st.fractions(min_value=-3, max_value=3, max_denominator=6))


@st.composite
def _grids(draw):
    space, i, nv, degrees = draw(st.sampled_from(_SPACES))
    src_d = draw(st.lists(st.sampled_from(degrees), min_size=1, max_size=5))
    tgt_d = draw(st.lists(st.sampled_from(degrees), min_size=1, max_size=3))
    grid = []
    for e in tgt_d:
        row = []
        for d in src_d:
            mons = h0_exponents(nv, e - d) if draw(st.integers(0, 4)) else ()
            cs = draw(st.lists(_coefficients, min_size=len(mons), max_size=len(mons)))
            row.append(Form.from_dict(nv, dict(zip(mons, cs))) if mons else Form.zero(nv))
        grid.append(row)
    top = i > 0
    return grid, [_piece(space, i, d) for d in src_d], [_piece(space, i, e) for e in tgt_d], top


@given(_grids())
@settings(max_examples=150, deadline=None)
def test_builder_equals_blocks_and_stacks(case):
    """One pass over a grid of forms gives the matrix of the blocks built one
    by one and stacked: zero forms and empty pieces, dual bases with
    contraction, and Fraction coefficients over different denominators."""
    grid, srcs, tgts, top = case
    assert multiplication_matrix(grid, srcs, tgts, top) == _reference(grid, srcs, tgts, top)


# --- restriction -------------------------------------------------------------

def test_restriction_surjective():
    m = restriction_matrix(2)
    assert (m.rows, m.cols) == (3, 6)
    assert rank(m) == 3


def test_restriction_degree_zero():
    assert restriction_matrix(0) == restriction_matrix(0).identity(1)


def test_restriction_negative_degree_empty():
    m = restriction_matrix(-1)
    assert (m.rows, m.cols) == (0, 0)


@pytest.mark.parametrize("d", range(0, 8))
def test_restriction_rank(d):
    assert rank(restriction_matrix(d)) == d + 1


# --- multiplicativity property ------------------------------------------------


def forms3(degree, allow_zero=False):
    mons = h0_exponents(3, degree)
    return st.lists(st.integers(-3, 3), min_size=len(mons), max_size=len(mons)).map(
        lambda cs: Form.from_dict(3, dict(zip(mons, cs)))).filter(
        lambda f: allow_zero or not f.is_zero)


@given(forms3(1), forms3(2), st.sampled_from([(P2, 0, 0), (P2, 0, 2), (P2, 2, -7), (P2, 2, -4)]))
@settings(max_examples=40, deadline=None)
def test_multiplication_composes(f, g, where):
    space, i, d = where
    piece = basis(space, i, d)
    top = i == 2
    mid, tgt = basis(space, i, d + g.degree), basis(space, i, d + g.degree + f.degree)
    lhs = multiplication_matrix([[f * g]], [piece], [tgt], top)
    rhs = multiplication_matrix([[f]], [mid], [tgt], top) @ multiplication_matrix([[g]], [piece], [mid], top)
    assert lhs == rhs


# --- forms ---------------------------------------------------------------------

def test_form_str_roundtrip_shape():
    f = Form.from_dict(3, {(3, 0, 0): -3, (0, 2, 1): 1})
    assert str(f) == "-3*u^3 + v^2*w"
    assert str(Form.zero(3)) == "0"
    assert str(Form.constant(3, QQ(3, 2))) == "3/2"


def test_form_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        Form.from_dict(3, {(1, 0, 0): 1, (2, 0, 0): 1})


def test_form_evaluate():
    f = u * v - w * w
    assert f.evaluate((1, 2, 3)) == 2 - 9


def test_restrict_to_plane_charts():
    x, y, z, w4 = (Form.variable(4, n) for n in "xyzw")
    f = x * z + y * w4
    on_h1 = restrict_to_plane(f, 1)   # x := 0, u := y
    assert on_h1 == u * w
    on_h2 = restrict_to_plane(f, 2)   # y := 0, u := x
    assert on_h2 == u * v


# --- binary gcd -----------------------------------------------------------------

def test_binary_gcd_common_factor():
    f = Form.from_dict(2, {(2, 0): 1, (0, 2): -1})   # (v-w)(v+w)
    g = Form.from_dict(2, {(1, 0): 1, (0, 1): -1})
    got = binary_gcd(f, g)
    assert got.degree == 1 and got.coeff((1, 0)) == -got.coeff((0, 1))


def test_binary_gcd_with_monomial_factors():
    vw = Form.from_dict(2, {(1, 1): 1})
    v2 = Form.from_dict(2, {(2, 0): 1})
    assert binary_gcd(vw, v2).degree == 1


def test_common_zero_free():
    v2, w2 = Form.variable(2, "v"), Form.variable(2, "w")
    assert binary_forms_common_zero_free([v2, w2])
    assert not binary_forms_common_zero_free([v2, v2 * w2])
    assert not binary_forms_common_zero_free([Form.zero(2)])
