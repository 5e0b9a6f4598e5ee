from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qacm.linalg
from qacm.linalg import QQ, RatMatrix, block_diag, hstack, kernel_basis, rank


def M(rows):
    return RatMatrix.from_rows(rows)


def vstack(*mats: RatMatrix) -> RatMatrix:
    """The matrices stacked top to bottom, as the transpose of ``hstack`` of
    their transposes: a reference helper of the tests, which ``src/`` does not need."""
    return hstack(*(m.transpose() for m in mats)).transpose()


def test_rank_identity():
    assert rank(M([[1, 0], [0, 1]])) == 2


def test_rank_zero():
    assert rank(RatMatrix.zero(3, 3)) == 0


def test_rank_of_an_empty_matrix_runs_no_elimination(monkeypatch):
    """A matrix with no columns or no rows has rank 0 without a walk over its
    rows: a split bundle's relation matrix has h0(O(a + t)) empty rows."""
    def forbidden(*args):
        raise AssertionError("_eliminate called on an empty matrix")

    monkeypatch.setattr(qacm.linalg, "_eliminate", forbidden)
    assert rank(RatMatrix.zero(10 ** 6, 0)) == 0
    assert rank(RatMatrix.zero(0, 10 ** 6)) == 0


def test_rank_proportional_rows():
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_kernel_identity_trivial():
    assert kernel_basis(M([[1, 0], [0, 1]])) == RatMatrix.zero(2, 0)


def test_kernel_one_relation():
    assert kernel_basis(M([[1, 1]])) == M([[1], [-1]])


def test_kernel_proportional():
    assert kernel_basis(M([[1, 2], [2, 4]])) == M([[2], [-1]])


# the peel settles the first column of each dependent matrix but not the rest
@pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 1], [0, 1, 1]], [[1, 0], [0, 0]]])
def test_rank_sees_partly_peeled_dependent_columns(rows):
    assert rank(M(rows)) < len(rows[0])


def test_a_fully_peeled_matrix_leaves_no_core():
    """Each column falls to a singleton row in turn; the peel stops with every
    column a pivot and an empty core, whatever rows are left."""
    m = M([[1, 0, 0], [2, 3, 0], [0, 1, 5], [4, 5, 6], [0, 0, 7]])
    assert qacm.linalg._peel(m.data, m.cols) == ({0, 1, 2}, [])
    assert rank(m) == 3 and kernel_basis(m) == RatMatrix.zero(3, 0)
    wide = M([[0, 2, 0, 0], [3, 1, 0, 0], [1, 1, 1, 1]])
    assert qacm.linalg._peel(wide.data, wide.cols) == ({0, 1}, [{2: 1, 3: 1}])
    assert rank(wide) == 3 and kernel_basis(wide) == M([[0], [0], [1], [-1]])


def test_a_column_led_by_one_row_takes_it_as_pivot():
    """No row is a singleton; column 0 is led by row 0 alone, which becomes
    its pivot unchanged, and column 1 by two rows, one eliminated by the other."""
    m = M([[1, 2, 3], [0, 1, 1], [0, 2, 2]])
    peeled, pivots = qacm.linalg._eliminate(m.data, m.cols)
    assert peeled == set() and [c for c, _ in pivots] == [0, 1]
    assert pivots[0][1] is m.data[0]
    assert rank(m) == 2 and kernel_basis(m) == M([[1], [1], [-1]])
    assert rank(M([[1, 2, 0], [0, 1, 1], [0, 3, 1]])) == 3


def test_kernel_basis_columns_are_independent():
    k = kernel_basis(M([[1, 2, 0, 1], [0, 0, 1, 3], [2, 4, 1, 5]]))
    assert (k.rows, k.cols) == (4, 2)
    assert rank(k) == 2


def test_empty_matrices():
    e = RatMatrix.zero(0, 3)
    assert rank(e) == 0
    assert kernel_basis(e).cols == 3
    tall = RatMatrix.zero(3, 0)
    assert rank(tall) == 0
    assert kernel_basis(tall).cols == 0


def test_rational_entries():
    m = M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert rank(m) == 1
    k = kernel_basis(m)
    assert m @ k == RatMatrix.zero(2, 1)


def test_equality_is_canonical():
    half = M([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
    same = RatMatrix.make(2, 2, [{0: 9, 1: 18}, {1: 12}], 18)
    assert same == half and hash(same) == hash(half)
    assert (half.data, half.den) == (({0: 3, 1: 6}, {1: 4}), 6)
    assert M([[Fraction(2, 4), 1]]) == RatMatrix.make(1, 2, [{0: 1, 1: 2}], 2)


def test_stacking():
    a = M([[1, 2]])
    b = M([[3, 4]])
    assert vstack(a, b) == M([[1, 2], [3, 4]])
    assert hstack(a.transpose(), b.transpose()) == M([[1, 3], [2, 4]])
    assert block_diag(a, b) == M([[1, 2, 0, 0], [0, 0, 3, 4]])


entry = st.integers(-6, 6).map(QQ) | st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    data = tuple(tuple(draw(entry) for _ in range(c)) for _ in range(r))
    return RatMatrix.from_rows(data) if r else RatMatrix.zero(0, c)


@st.composite
def peelable(draw):
    """A matrix under a block of singleton rows, so the peel drops columns
    from the other rows."""
    m = draw(matrices())
    cols = draw(st.lists(st.integers(0, m.cols - 1), unique=True)) if m.cols else []
    return vstack(RatMatrix.from_dicts(len(cols), m.cols, [{j: 1} for j in cols]), m)


@given(peelable())
@settings(max_examples=120, deadline=None)
def test_elimination_leaves_input_rows_alone(m):
    before = [dict(r) for r in m.data]
    rank(m)
    kernel_basis(m)
    assert [dict(r) for r in m.data] == before


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).cols == m.cols


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_kernel_is_exact(m):
    k = kernel_basis(m)
    prod = m @ k
    assert prod.is_zero()


@given(peelable())
@settings(max_examples=120, deadline=None)
def test_kernel_basis_is_echelon_on_its_free_columns(m):
    """A column of ``m`` is free when it does not raise the rank of the
    columns before it.  Basis column c is nonzero at the c-th free column and
    zero at every other free column, so the columns are independent with no
    rank to check; there is one row per coordinate and they span the kernel."""
    mt = m.transpose()
    ranks = [rank(RatMatrix.make(j, mt.cols, mt.data[:j], mt.den)) for j in range(m.cols + 1)]
    free = [j for j in range(m.cols) if ranks[j + 1] == ranks[j]]
    k = kernel_basis(m)
    assert (k.rows, k.cols) == (m.cols, m.cols - rank(m)) == (m.cols, len(free))
    assert (m @ k).is_zero()
    for c in range(k.cols):
        assert [j for j in free if c in k.data[j]] == [free[c]]


@given(matrices(max_dim=4))
@settings(max_examples=80, deadline=None)
def test_kernel_vectors_are_primitive_integer(m):
    k = kernel_basis(m)
    assert k.den == 1
    for j in range(k.cols):
        col = [r.get(j, 0) for r in k.data]
        assert next(x for x in col if x) > 0


def test_rational_serialization_format():
    # external interface: reduced "p/q" with positive denominator, or "p"
    assert str(QQ(4, -6)) == "-2/3"
    assert str(QQ(8, 4)) == "2"
