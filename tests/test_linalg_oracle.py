"""Differential tests: qacm's exact rank and kernel against sympy's.

Kernel bases are compared vector by vector: sympy's ``nullspace()`` is the
reduced-echelon basis, which, scaled to primitive integer vectors with the
first nonzero positive, is exactly what ``kernel_basis`` returns.  Several
inputs are built so that the singleton peel of the elimination cascades."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qacm.descriptor import build, parse
from qacm.linalg import RatMatrix, kernel_basis, rank
from qacm.plane import relation_h2_matrix
from test_linalg import vstack
from test_plane import relation_h0_matrix

sympy = pytest.importorskip("sympy")

README_SHEAF = "K(F1=O(3)+O(0)@H1,F2=G(c=3,k=1,Z=points([0:1:1];[0:1:2]),h=auto)@H2,e=id)"
# relation forms v, w and h = u: every H2-level relation row is a singleton
POINT_EXTENSION_SHEAF = "K(F1=O(1)+O(0)@H1,F2=G(c=1,k=0,Z=[v,w],h=auto)@H2,e=id)"

integers = st.integers(-5, 5)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])


def sparse(draw, nr, nc, entries):
    rows = [{} for _ in range(nr)]
    if nr and nc:
        cells = draw(st.lists(st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1),
                                        entries), max_size=2 * (nr + nc)))
        for i, j, v in cells:
            rows[i][j] = v
    return RatMatrix.from_dicts(nr, nc, rows)


@st.composite
def sparse_matrices(draw, entries, max_dim=10):
    """Sparse matrices of every shape (empty, tall, wide); some are products
    through a thin middle dimension, so rank deficiency is common."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    if draw(st.booleans()):
        return sparse(draw, r, c, entries)
    k = draw(st.integers(0, 3))
    return sparse(draw, r, k, entries) @ sparse(draw, k, c, entries)


@st.composite
def peelable_matrices(draw, max_dim=10):
    """A random partial-permutation block (singleton rows, entries +-1 or 2)
    stacked on a random sparse block, rows shuffled: the sparse rows lose
    their peeled columns, and those left with one entry peel in turn."""
    c = draw(st.integers(1, max_dim))
    cols = draw(st.lists(st.integers(0, c - 1), unique=True, max_size=c))
    top = RatMatrix.from_dicts(len(cols), c, [{j: draw(st.sampled_from([1, -1, 2]))}
                                              for j in cols])
    m = vstack(top, sparse(draw, draw(st.integers(0, max_dim)), c, integers))
    order = draw(st.permutations(range(m.rows)))
    return RatMatrix(m.rows, m.cols, tuple(m.data[i] for i in order), m.den)


def bidiagonal_chain(n, at_end, entries, extra=()):
    """An n x n bidiagonal chain whose one singleton row is the first or the
    last, so the peel runs along the whole chain.  ``extra`` lists the rows
    (from the singleton on) that get one more column each, which stops the
    cascade there and leaves a core and a kernel."""
    a = iter(entries)
    if at_end:
        rows = [{i: next(a), i + 1: next(a)} for i in range(n - 1)] + [{n - 1: next(a)}]
    else:
        rows = [{0: next(a)}] + [{i - 1: next(a), i: next(a)} for i in range(1, n)]
    for c, k in enumerate(extra, n):
        rows[n - 1 - k if at_end else k][c] = next(a)
    return RatMatrix(n, n + len(extra), tuple(rows))


@st.composite
def chains(draw, max_len=25):
    n = draw(st.integers(1, max_len))
    extra = draw(st.lists(st.integers(0, n - 1), max_size=3))
    entries = draw(st.lists(nonzero, min_size=2 * n + len(extra), max_size=2 * n + len(extra)))
    return bidiagonal_chain(n, draw(st.booleans()), entries, extra)


def to_sympy(m: RatMatrix):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m.data[i].get(j, 0), m.den))


def primitive(vec) -> tuple:
    """A nonzero rational vector scaled to a primitive integer vector whose
    first nonzero entry is positive."""
    den = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def assert_matches_sympy(m: RatMatrix):
    s = to_sympy(m)
    assert rank(m) == s.rank()
    basis = kernel_basis(m)
    assert basis.den == 1
    ours = [tuple(r.get(j, 0) for r in basis.data) for j in range(basis.cols)]
    assert ours == [primitive([Fraction(int(x.p), int(x.q)) for x in v]) for v in s.nullspace()]


@given(sparse_matrices(integers))
@example(RatMatrix.zero(0, 0))
@example(RatMatrix.zero(0, 4))
@example(RatMatrix.zero(4, 0))
@example(RatMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
@settings(max_examples=120, deadline=None)
def test_integer_matrices_match_sympy(m):
    assert_matches_sympy(m)


@given(sparse_matrices(rationals))
@settings(max_examples=120, deadline=None)
def test_rational_matrices_match_sympy(m):
    assert_matches_sympy(m)


@given(peelable_matrices())
@settings(max_examples=120, deadline=None)
def test_peeled_matrices_match_sympy(m):
    assert_matches_sympy(m)


@given(chains())
@example(bidiagonal_chain(30, False, [1, 2] * 30))
@example(bidiagonal_chain(30, True, [1, 2] * 30))
@example(bidiagonal_chain(30, False, [1, -1] * 31, extra=[29, 10]))
@example(bidiagonal_chain(30, True, [2, 1] * 31, extra=[29, 10]))
@settings(max_examples=60, deadline=None)
def test_bidiagonal_chains_match_sympy(m):
    assert_matches_sympy(m)


@pytest.mark.parametrize("t", [-9, -6, -4, -1, 2])
def test_relation_matrices_match_sympy(t):
    for descriptor in (README_SHEAF, POINT_EXTENSION_SHEAF):
        other = build(parse(descriptor)).other
        assert_matches_sympy(relation_h2_matrix(other, t))
        assert_matches_sympy(relation_h0_matrix(other, t))
