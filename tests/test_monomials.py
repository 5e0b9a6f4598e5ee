from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qacm.linalg import QQ, RatMatrix, hstack, rank
from qacm.monomials import (P1, P2, VAR_NAMES, Form, GradedPiece, basis,
                            binary_forms_common_zero_free,
                            binary_gcd, cohomology_dim, dual_exponents, h0_exponents,
                            multiplication_matrix, restrict_to_line, restrict_to_plane,
                            restriction_matrix)
from p2_route import dual_prefix
from test_linalg import vstack

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
    m = multiplication_matrix([[u]], [src], [basis(P2, 2, -3)])
    cols = dict(zip(src.basis, m.transpose().data))
    # u * u^-1 v^-2 w^-1 has a nonnegative exponent: dies
    assert not cols[(-1, -2, -1)]
    tgt = basis(P2, 2, -3)
    j = tgt.basis.index((-1, -1, -1))
    assert cols[(-2, -1, -1)] == {j: 1} and m.den == 1


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


def _lifted(d, depth):
    """The shape of ``lifted`` in ``p2_route.h1_kernel_of_line_map_full``: the
    depth prefix of H2(O(d)) moved one u-exponent down, a slice of H2(O(d - 1))
    that is not a prefix of it."""
    return GradedPiece(P2, 2, d - 1, tuple((a - 1, b, c) for a, b, c in dual_prefix(d, depth).basis))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_dual_prefix_is_the_leading_part_built_once(depth):
    """dual_prefix(d, depth) is the part of the standard dual basis with
    u-exponent >= -depth, which comes first in it; it is built once per
    (d, depth), and depth None is the cached basis itself."""
    for d in range(-12, 3):
        piece, whole = dual_prefix(d, depth), basis(P2, 2, d)
        assert dual_prefix(d, depth) is piece
        assert (piece.space, piece.i, piece.d) == (P2, 2, d)
        assert piece.basis == whole.basis[:piece.dim]
        assert piece.basis == tuple(m for m in whole.basis if m[0] >= -depth)
        assert dual_prefix(d, None) is whole


def test_mult_product_outside_the_target_piece():
    """A target piece that does not hold every product is a bookkeeping error,
    not a silent write into the next block or an IndexError."""
    with pytest.raises(ValueError, match="bookkeeping error.*outside its target piece"):
        multiplication_matrix([[v]], [dual_prefix(-6, 2)], [dual_prefix(-5, 1)])
    # the lifted slice reaches u-exponent -2: a depth-1 target is one level too shallow
    with pytest.raises(ValueError, match="bookkeeping error.*outside its target piece"):
        multiplication_matrix([[v]], [_lifted(-4, 1)], [dual_prefix(-4, 1)])
    # a second target block after the short one: the product must not land there
    with pytest.raises(ValueError, match="bookkeeping error.*outside its target piece"):
        multiplication_matrix([[v], [Form.zero(3)]], [dual_prefix(-6, 2)],
                              [dual_prefix(-5, 1), basis(P2, 2, -5)])
    short = GradedPiece(P2, 0, 2, basis(P2, 0, 2).basis[:3])
    with pytest.raises(ValueError, match="bookkeeping error.*outside its target piece"):
        multiplication_matrix([[v]], [basis(P2, 0, 1)], [short])


@pytest.mark.parametrize("nv, top", [(2, False), (3, False), (4, False), (2, True), (3, True),
                                     (4, True)])
def test_rank_rule_places_each_monomial_at_its_position(nv, top):
    """Multiplication by 1 on a whole basis is the identity, and on the basis
    reversed it is the reversal: the computed rank of every monomial is its
    position in ``h0_exponents`` or ``dual_exponents``, every degree up to 8."""
    one = Form.constant(nv, 1)
    space, i = {2: P1, 3: P2, 4: "P3"}[nv], nv - 1 if top else 0
    for k in range(9):
        d = -k - nv if top else k
        piece = GradedPiece(space, i, d, (dual_exponents if top else h0_exponents)(nv, d))
        flipped = GradedPiece(space, i, d, piece.basis[::-1])
        n = piece.dim
        assert multiplication_matrix([[one]], [piece], [piece]) == \
            RatMatrix(n, n, tuple({r: 1} for r in range(n)))
        assert multiplication_matrix([[one]], [flipped], [piece]) == \
            RatMatrix(n, n, tuple({n - 1 - r: 1} for r in range(n)))


# --- one builder against blocks and stacks -------------------------------------


def _reference_block(f, src, tgt, top):
    """Multiplication by f from src to tgt, entry by entry in Fractions, each
    coefficient read as its numerator over the form's ``den``."""
    index = {m: i for i, m in enumerate(tgt.basis)}
    rows = [{} for _ in tgt.basis]
    for j, m in enumerate(src.basis):
        for e, c in f.terms:
            prod = tuple(a + b for a, b in zip(m, e))
            if not top or max(prod) < 0:
                rows[index[prod]][j] = QQ(c, f.den)
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
           (P2, 0, 3, range(-2, 4)), (P2, 2, 3, range(-7, -1)), ("P3", 0, 4, range(-1, 4))]
_coefficients = st.one_of(st.integers(-3, 3),
                          st.fractions(min_value=-3, max_value=3, max_denominator=6))


def _draw_grid(draw, nv, srcs, tgts):
    """Forms of nv variables from each source to each target degree, some zero."""
    grid = []
    for tgt in tgts:
        row = []
        for src in srcs:
            mons = h0_exponents(nv, tgt.d - src.d) if draw(st.integers(0, 4)) else ()
            cs = draw(st.lists(_coefficients, min_size=len(mons), max_size=len(mons)))
            row.append(Form.from_dict(nv, dict(zip(mons, cs))) if mons else Form.zero(nv))
        grid.append(row)
    return grid


@st.composite
def _grids(draw):
    space, i, nv, degrees = draw(st.sampled_from(_SPACES))
    srcs = [_piece(space, i, d) for d in draw(st.lists(st.sampled_from(degrees), min_size=1, max_size=5))]
    tgts = [_piece(space, i, e) for e in draw(st.lists(st.sampled_from(degrees), min_size=1, max_size=3))]
    return _draw_grid(draw, nv, srcs, tgts), srcs, tgts, i > 0


@st.composite
def _prefix_grids(draw):
    """Dual grids on P2 whose targets are ``dual_prefix(e, depth)``, depth 1 to
    3, and whose sources hold every product there: prefixes no deeper, and
    lifted slices one level less deep."""
    depth = draw(st.integers(1, 3))
    srcs = []
    for d in draw(st.lists(st.integers(-8, -2), min_size=1, max_size=4)):
        if depth > 1 and draw(st.booleans()):
            srcs.append(_lifted(d + 1, draw(st.integers(1, depth - 1))))
        else:
            srcs.append(dual_prefix(d, draw(st.integers(1, depth))))
    tgts = [dual_prefix(e, depth) for e in draw(st.lists(st.integers(-7, -1), min_size=1, max_size=3))]
    return _draw_grid(draw, 3, srcs, tgts), srcs, tgts, True


@given(st.one_of(_grids(), _prefix_grids()))
@settings(max_examples=300, deadline=None)
def test_builder_equals_blocks_and_stacks(case):
    """One pass over a grid of forms gives the matrix of the blocks built one
    by one and stacked: zero forms and empty pieces, dual bases with
    contraction, Fraction coefficients over different denominators, and the
    pieces of the H2 relation prefixes, targets that are a prefix of their
    basis and sources that are a prefix or a slice inside one."""
    grid, srcs, tgts, top = case
    assert multiplication_matrix(grid, srcs, tgts) == _reference(grid, srcs, tgts, top)


# --- restriction -------------------------------------------------------------

def test_restriction_surjective():
    m = restriction_matrix(2)
    assert (m.rows, m.cols) == (3, 6)
    assert rank(m) == 3


def test_restriction_degree_zero():
    assert restriction_matrix(0) == RatMatrix(1, 1, ({0: 1},))


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
    mid, tgt = basis(space, i, d + g.degree), basis(space, i, d + g.degree + f.degree)
    lhs = multiplication_matrix([[f * g]], [piece], [tgt])
    rhs = multiplication_matrix([[f]], [mid], [tgt]) @ multiplication_matrix([[g]], [piece], [mid])
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
    coeffs = dict(got.terms)
    assert got.degree == 1 and coeffs[(1, 0)] == -coeffs[(0, 1)]


def test_binary_gcd_with_monomial_factors():
    vw = Form.from_dict(2, {(1, 1): 1})
    v2 = Form.from_dict(2, {(2, 0): 1})
    assert binary_gcd(vw, v2).degree == 1


def test_common_zero_free():
    v2, w2 = Form.variable(2, "v"), Form.variable(2, "w")
    assert binary_forms_common_zero_free([v2, w2])
    assert not binary_forms_common_zero_free([v2, v2 * w2])
    assert not binary_forms_common_zero_free([Form.zero(2)])


# --- forms against sympy --------------------------------------------------------
# Each operation of Form, on int numerators over one denominator, against
# sympy.Poly over QQ.  Coefficients include non-unit denominators, so the
# canonical den is exercised, and every result is checked to be canonical.

_rationals = st.one_of(st.integers(-4, 4),
                       st.fractions(min_value=-4, max_value=4, max_denominator=9))


@st.composite
def _forms(draw, nv=None, degree=None, max_degree=3):
    """A form of nv variables (2, 3 or 4) and the given degree, possibly zero."""
    nv = draw(st.sampled_from([2, 3, 4])) if nv is None else nv
    degree = draw(st.integers(0, max_degree)) if degree is None else degree
    mons = draw(st.lists(st.sampled_from(h0_exponents(nv, degree)), max_size=4, unique=True))
    return Form.from_dict(nv, {m: draw(_rationals) for m in mons})


def _poly(f):
    """f as a sympy.Poly over QQ, each coefficient its numerator over f.den."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(" ".join(VAR_NAMES[f.num_vars]))
    return sympy.Poly.from_dict({e: sympy.Rational(c, f.den) for e, c in f.terms}
                                or {(0,) * f.num_vars: 0}, gens, domain=sympy.QQ)


def _canonical(f):
    """The representation invariants: den positive and coprime to the numerators,
    no zero numerator, terms reverse-lex sorted, one degree."""
    nums = [c for _, c in f.terms]
    exps = [e for e, _ in f.terms]
    return (f.den > 0 and all(nums) and exps == sorted(exps, reverse=True)
            and len({sum(e) for e in exps}) <= 1 and gcd(f.den, *nums) == 1
            and (f.terms or f.den == 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_form_arithmetic_agrees_with_sympy(data):
    f = data.draw(_forms())
    g = data.draw(_forms(nv=f.num_vars))
    h = data.draw(_forms(nv=f.num_vars, degree=f.degree or 0))
    hs = data.draw(st.lists(_forms(nv=f.num_vars, degree=f.degree or 0), max_size=4))
    s = data.draw(_rationals)
    n = data.draw(st.integers(0, 3))
    results = [(f * g, _poly(f) * _poly(g)), (f + h, _poly(f) + _poly(h)),
               (f - h, _poly(f) - _poly(h)), (-f, -_poly(f)), (f * s, _poly(f) * s),
               (s * f, _poly(f) * s), (f ** n, _poly(f) ** n),
               (Form.sum(f.num_vars, hs), sum(map(_poly, hs), _poly(Form.zero(f.num_vars))))]
    for got, want in results:
        assert _canonical(got)
        assert _poly(got) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_form_accessors_and_restriction_agree_with_sympy(data):
    sympy = pytest.importorskip("sympy")
    f = data.draw(_forms(nv=data.draw(st.sampled_from([3, 4]))))
    p = _poly(f)
    point = data.draw(st.lists(_rationals, min_size=f.num_vars, max_size=f.num_vars))
    assert f.evaluate(point) == p.eval(dict(zip(p.gens, point)))
    if f.num_vars == 3:
        for j in range(4):
            got = restrict_to_line(f, j)
            assert _canonical(got) and got.num_vars == 2
            # compared by coefficients: the restriction renames (v, w)
            want = sympy.Poly(p.as_expr().coeff(p.gens[0], j), *p.gens[1:])
            assert _poly(got).as_dict() == want.as_dict()


def test_form_sum_refuses_mixed_degrees_and_variable_counts():
    v2 = Form.variable(2, "v")
    with pytest.raises(ValueError, match="adding forms of different degrees"):
        Form.sum(3, [u, v, v * w])
    with pytest.raises(ValueError, match="adding forms of different degrees"):
        u + v * w
    for forms in ([u, v2], [v2, Form.zero(3)], [Form.zero(2), Form.zero(3)]):
        with pytest.raises(ValueError, match="variable-count mismatch"):
            Form.sum(forms[0].num_vars, forms)
        with pytest.raises(ValueError, match="variable-count mismatch"):
            forms[0] + forms[1]
    # a zero form has no degree, so it never counts as a degree of its own
    assert Form.sum(3, [Form.zero(3), u * v, Form.zero(3), -v * w]) == u * v - v * w
    assert Form.sum(3, [u, Form.zero(3)]) == u + Form.zero(3) == Form.zero(3) + u == u
    assert Form.sum(3, []) == Form.zero(3)


@st.composite
def _binary_pairs(draw):
    """Two binary forms, often with a drawn common factor (possibly v^a w^b)."""
    common = draw(_forms(nv=2, max_degree=2))
    common = common if not common.is_zero else Form.constant(2, 1)
    f, g = draw(_forms(nv=2)), draw(_forms(nv=2))
    return (f * common, g * common) if draw(st.booleans()) else (f, g)


@settings(max_examples=80, deadline=None)
@given(_binary_pairs(), _forms(nv=2))
def test_binary_gcd_agrees_with_sympy(pair, third):
    sympy = pytest.importorskip("sympy")
    f, g = pair
    got, want = binary_gcd(f, g), sympy.gcd(_poly(f), _poly(g))
    assert got.degree == (None if want.is_zero else want.total_degree())
    if not got.is_zero:
        assert sympy.rem(_poly(f), _poly(got)).is_zero and sympy.rem(_poly(g), _poly(got)).is_zero
    forms = [f, g, third]
    whole = sympy.gcd(sympy.gcd(_poly(f), _poly(g)), _poly(third))
    assert binary_forms_common_zero_free(forms) == (not whole.is_zero
                                                    and whole.total_degree() == 0)


def test_equal_forms_built_by_different_routes_compare_and_hash_equal():
    half = QQ(1, 2)
    routes = [u, (2 * u) * half, half * (2 * u), (u + v) - v,
              Form.from_dict(3, {(1, 0, 0): QQ(4, 4)}), Form.from_ints(3, {(1, 0, 0): 6}, 6), Form.from_ints(3, {(1, 0, 0): -3}, -3),
              restrict_to_plane(Form.variable(4, "y") * QQ(3, 7), 1) * QQ(7, 3)]
    assert all(f == u and hash(f) == hash(u) and f.den == 1 for f in routes)
    third = Form.from_dict(3, {(1, 0, 0): QQ(1, 3), (0, 1, 0): QQ(2, 3)})
    assert (third.terms, third.den) == ((((1, 0, 0), 1), ((0, 1, 0), 2)), 3)
    assert third * 3 == u + 2 * v and hash(third * 6) == hash(2 * u + 4 * v)
    assert len({third, third * 1, Form.from_ints(3, {(0, 1, 0): 4, (1, 0, 0): 2}, 6)}) == 1
