"""Differential tests: qacm's exact rank and kernel against sympy's."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qacm.descriptor import parse_and_build
from qacm.linalg import RatMatrix, kernel_basis, rank
from qacm.plane import relation_h0_matrix, relation_h2_matrix

sympy = pytest.importorskip("sympy")

README_SHEAF = "K(F1=O(3)+O(0)@H1,F2=G(c=3,k=1,Z=points([0:1:1];[0:1:2]),h=auto)@H2,e=id)"

integers = st.integers(-5, 5)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def sparse_matrices(draw, entries, max_dim=10):
    """Sparse matrices of every shape (empty, tall, wide); some are products
    through a thin middle dimension, so rank deficiency is common."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))

    def sparse(nr, nc):
        rows = [{} for _ in range(nr)]
        if nr and nc:
            cells = draw(st.lists(st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1),
                                            entries), max_size=2 * (nr + nc)))
            for i, j, v in cells:
                rows[i][j] = v
        return RatMatrix.from_dicts(nr, nc, rows)

    if draw(st.booleans()):
        return sparse(r, c)
    k = draw(st.integers(0, 3))
    return sparse(r, k) @ sparse(k, c)


def to_sympy(m: RatMatrix):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for i in range(m.rows) for x in m.row(i)])


def assert_matches_sympy(m: RatMatrix):
    s = to_sympy(m)
    assert rank(m) == s.rank()
    assert kernel_basis(m).dim == len(s.nullspace()) == m.cols - s.rank()


@given(sparse_matrices(integers))
@example(RatMatrix.zero(0, 0))
@example(RatMatrix.zero(0, 4))
@example(RatMatrix.zero(4, 0))
@example(RatMatrix.identity(3))
@settings(max_examples=120, deadline=None)
def test_integer_matrices_match_sympy(m):
    assert_matches_sympy(m)


@given(sparse_matrices(rationals))
@settings(max_examples=120, deadline=None)
def test_rational_matrices_match_sympy(m):
    assert_matches_sympy(m)


@pytest.mark.parametrize("t", [-9, -6, -4, -1, 2])
def test_relation_matrices_match_sympy(t):
    other = parse_and_build(README_SHEAF).other
    assert_matches_sympy(relation_h2_matrix(other, t))
    assert_matches_sympy(relation_h0_matrix(other, t))
