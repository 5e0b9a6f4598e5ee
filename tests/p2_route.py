"""The H2-level route of the tests for a kernel sheaf's h1, and its references.

``relation_h2_kernel`` eliminates the kernel of the H2-level relation of a plane
sheaf at one twist, on the u-exponent -1 dual monomials alone when a relation
form is a multiple of u (``h2_depth``), and ``check_h2_kernel`` holds it to the
Hilbert function of the relation forms.  h1 of K(t) is the kernel of the
H1-level restriction H1(F_other(t)) -> H1(F_other|_L(t)).
``h1_kernel_of_line_map_full`` computes it by the zig-zag through the
presentation on P2: lift the H2-level kernel along u, push it through the
relation at t - 1, and kill the image of the restricted relation.
``h1_kernel_stacked`` computes it on L, killing that image by eliminating the
stacked matrix [Q K | L_t].  Neither shares code with the degree count or with
``quadric.h1_from_forms``, and neither reads a trivialization.

The program builds H0 pieces only.  Top cohomology (H2 on P2, H1 on P1) lives
here: ``dual_basis`` spans it by the Laurent monomials with every exponent
<= -1, and ``naive_multiplication_matrix`` multiplies on them entry by entry,
contracting a product with an exponent >= 0 to zero.  A dual piece is a
``GradedPiece`` whose basis holds such monomials.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from math import lcm
from operator import add

from qacm.errors import InternalCheckError
from qacm.linalg import RatMatrix, hstack, kernel_basis, rank
from qacm.monomials import (P1, P2, Form, GradedPiece, basis, cohomology_dim, h0_exponents,
                            multiplication_matrix)
from qacm.plane import Presentation, h2_kernel_dim, is_u


def kernel_dim(m: RatMatrix) -> int:
    return m.cols - rank(m)


@cache
def dual_basis(space: str, d: int) -> GradedPiece:
    """The dual monomials of degree d on P1 or P2 (every exponent <= -1), reverse-lex
    sorted: m is the Serre dual of the H0 monomial -1 - m of degree -d - n, n the
    number of variables."""
    n = {P1: 2, P2: 3}[space]
    return GradedPiece(space, d, tuple(sorted((tuple(-1 - x for x in e)
                                               for e in h0_exponents(n, -d - n)), reverse=True)))


def naive_multiplication_matrix(grid, srcs, tgts, top: bool = True) -> RatMatrix:
    """The map sum_j srcs[j] -> sum_i tgts[i] whose block (i, j) is multiplication
    by ``grid[i][j]``, as ``multiplication_matrix`` lays it out, built entry by
    entry: the term c x^e of a form sends source monomial m to row index[m + e] of
    its target.  On top pieces (``top``) a product with an exponent >= 0
    contracts to zero.  Entries are ints over the lcm of the forms' denominators.
    A product missing from its target, a prefix of its basis, raises ValueError."""
    den = lcm(1, *(f.den for row in grid for f in row))
    offsets = list(accumulate((p.dim for p in srcs), initial=0))
    out = []
    for row, tgt in zip(grid, tgts, strict=True):
        index = {m: r for r, m in enumerate(tgt.basis)}
        block = [{} for _ in tgt.basis]
        for f, src, c0 in zip(row, srcs, offsets):
            for col, m in enumerate(src.basis, c0):
                for e, c in f.terms:
                    p = tuple(map(add, m, e))
                    if top and max(p) >= 0:
                        continue
                    if p not in index:
                        raise ValueError("bookkeeping error: a product lies outside its "
                                         "target piece, a prefix of its standard basis")
                    block[index[p]][col] = c * (den // f.den)
        out += block
    return RatMatrix.make(len(out), offsets[-1], out, den)


def h2_depth(sheaf):
    """1 when a relation form is c*u, else None: the rows of ``relation_h2_kernel``
    are the dual monomials of u-exponent -1 to -depth, or all of them for None."""
    return 1 if any(is_u(f) for f in sheaf.presentation.relation) else None


def _relation_matrix(space: str, i: int, pres: Presentation, t: int) -> RatMatrix:
    """H^i-level matrix of the relation of ``pres``: H^i(O(b+t)) -> sum H^i(O(a+t)),
    by the program's builder on H0 (i = 0) and the naive one on the top piece;
    without a relation it has no columns, and no basis is built."""
    b = pres.relation_twist
    if b is None:
        return RatMatrix.zero(sum(cohomology_dim(space, i, a + t) for a in pres.target_twists), 0)
    build, piece = ((multiplication_matrix, basis) if i == 0
                    else (naive_multiplication_matrix, dual_basis))
    return build([(f,) for f in pres.relation], [piece(space, b + t)],
                 [piece(space, a + t) for a in pres.target_twists])


def relation_h2_matrix(sheaf, t: int) -> RatMatrix:
    """H2-level (dual monomial) matrix of the relation at twist t."""
    return _relation_matrix(P2, 2, sheaf.presentation, t)


def _socle_bound(forms, count: int):
    """sum(deg) - count + 1 when exactly ``count`` of the forms (count = number
    of variables) are nonzero, else None.  If those forms have no common zero
    they are a regular sequence, S/(forms) is an Artinian complete intersection
    of socle degree sum(deg) - count, and the ideal holds every form of degree
    >= the bound (Eisenbud, Commutative Algebra, 21.2)."""
    forms = [f for f in forms if not f.is_zero]
    return sum(f.degree for f in forms) - count + 1 if len(forms) == count else None


def relation_h2_kernel(sheaf, t: int) -> RatMatrix:
    """The kernel of ``relation_h2_matrix(sheaf, t)``.  Its rows run over the whole
    dual basis of H2(O(b + t)), unless a relation form is c*u (``h2_depth`` 1): then
    every kernel vector vanishes off the dual monomials of u-exponent -1, which the
    reverse-lex basis lists first, and the rows run over those alone:

    * Exact.  If form i is c*u, a dual monomial (a, v, w) with a <= -2 maps
      to c*(a+1, v, w) in summand i, a row no other monomial reaches; the
      singleton row makes the column a pivot, zero in every kernel vector.  On
      the u-exponent -1 columns each form acts by its restriction to L (u
      contracts them to zero) into u-exponent -1 rows: the block is the
      H1-level relation on L at t + 1, i.e. 0 -> F(-1) -> F -> F|_L -> 0.
    * Bit-identical.  The reduced-echelon basis of ``kernel_basis`` depends
      only on the pivot columns, j being one when it is no combination of
      the columns before it.  The columns before a u-exponent -1 column are of
      u-exponent -1 too, so it is a pivot of the block exactly when it is one of
      the whole matrix, and every later column is a pivot.  The block kernel,
      padded with zeros, is the whole kernel vector for vector.
    * Zero below degree 0 and past the socle, with no matrix built.  By Serre
      duality the kernel is the orthogonal of the degree-n piece of the ideal
      of the forms that act, n = -(b+t) - 3: the restrictions to L on the
      u-exponent -1 monomials, the relation itself on the whole basis.  For
      n < 0 the source is empty; once n reaches ``_socle_bound`` and the forms
      have no common zero (decided once per sheaf) that piece is everything.
    """
    b = sheaf.presentation.relation_twist
    on_line = h2_depth(sheaf)
    pres = sheaf.line_presentation if on_line else sheaf.presentation
    n, bound = -(b + t) - 3, _socle_bound(pres.relation, 3 - bool(on_line))
    if n < 0 or bound is not None and n >= bound and (
            sheaf.line_relation_coprime if on_line else sheaf.relation_common_zero_free):
        return RatMatrix.zero(cohomology_dim(P1, 1, b + t + 1) if on_line
                              else cohomology_dim(P2, 2, b + t), 0)
    return kernel_basis(line_relation_matrix(sheaf, t + 1, 1) if on_line
                        else relation_h2_matrix(sheaf, t))


def check_h2_kernel(sheaf, t: int, ker: RatMatrix) -> None:
    """Raise InternalCheckError unless ``ker``, the eliminated kernel of the H2-level
    relation of ``sheaf`` (the other side of a kernel sheaf) at twist t, has
    dimension ``h2_kernel_dim``."""
    n = h2_kernel_dim(sheaf.degree_data, t)
    if ker.cols != n:
        raise InternalCheckError(f"H2 kernel of the other side at twist {t} has dimension "
                                 f"{ker.cols}, its Hilbert function {n}")


def line_relation_matrix(sheaf, t: int, i: int) -> RatMatrix:
    """H^i-level (i = 0 or 1) matrix of the restricted relation on L."""
    return _relation_matrix(P1, i, sheaf.line_presentation, t)


def _u_coefficients(pres) -> tuple:
    """The grid of p_(i,j)|_L, j = 1 up to the top power of u, one row per relation
    form p_i = sum_j u^j p_(i,j): its coefficient of u^j, a binary form of degree
    a_i - b - j."""
    top = max((e[0] for f in pres.relation for e, _ in f.terms), default=0)
    return tuple(tuple(Form.from_ints(2, {e[1:]: c for e, c in f.terms if e[0] == j}, f.den)
                       for j in range(1, top + 1)) for f in pres.relation)


@cache
def dual_prefix(d: int, depth) -> GradedPiece:
    """H2(O(d)) on its dual monomials of u-exponent -1, ..., -depth, which
    reverse-lex order lists first, in basis order; None means all of them.
    Built once per (d, depth), like ``basis``."""
    if depth is None:
        return dual_basis(P2, d)
    return GradedPiece(P2, d, tuple((-j,) + e for j in range(1, depth + 1)
                                    for e in dual_basis(P1, d + j).basis))


def relation_h2_prefix_matrix(pres, t: int, src: GradedPiece, depth):
    """The H2-level relation at twist t on ``src``, dual monomials of degree
    b + t, into the depth prefix of each target summand, which holds every product."""
    return naive_multiplication_matrix([(f,) for f in pres.relation], [src],
                                       [dual_prefix(a + t, depth) for a in pres.target_twists])


def h1_kernel_of_line_map_full(k, t: int, ker) -> int:
    """dim ker(H1(F_other(t)) -> H1(F_other|_L(t))) by the zig-zag on P2.  ``ker``
    is ``relation_h2_kernel(k.other, t)``, on the dual prefix of depth
    ``h2_depth(k.other)``.

    The lift sends (a, v, w) to (a-1, v, w) and H1(O_L(b+t)) is the u-exponent
    -1 part of H2(O(b+t-1)), so the relation at t-1 is only applied to, and
    only reaches, the prefix one deeper than the kernel's."""
    if not ker.cols:
        return 0
    pres = k.other.presentation
    b = pres.relation_twist
    depth = h2_depth(k.other)
    rows = None if depth is None else depth + 1
    lifted = GradedPiece(P2, b + t - 1,
                         tuple((a - 1, v, w) for a, v, w in dual_prefix(b + t, depth).basis))
    a_mat = relation_h2_prefix_matrix(pres, t - 1, lifted, rows) @ ker
    d_mat = relation_h2_prefix_matrix(pres, t - 1, dual_prefix(b + t - 1, 1), rows)
    return kernel_dim(hstack(a_mat, d_mat)) - kernel_dim(d_mat)


def h1_kernel_stacked(k, t: int, ker) -> int:
    """dim ker [Q K | L_t] - dim ker L_t: the x in K with Q x in im L_t.  ``ker`` is
    ``relation_h2_kernel(k.other, t)``, Q the multiplication by the grid
    ``_u_coefficients`` from the slices H1(O_L(b+t+j)) that K's rows cover into
    the sum of H1(O_L(a_i+t)), and L_t ``line_relation_matrix(k.other, t, 1)``."""
    if not ker.cols:
        return 0
    pres = k.other.presentation
    srcs, n = [], 0
    while n < ker.rows:
        srcs.append(dual_basis(P1, pres.relation_twist + t + len(srcs) + 1))
        n += srcs[-1].dim
    q = _u_coefficients(pres)
    u_map = naive_multiplication_matrix([row[:len(srcs)] for row in q], srcs,
                                        [dual_basis(P1, a + t) for a in pres.target_twists])
    line = line_relation_matrix(k.other, t, 1)
    return kernel_dim(hstack(u_map @ ker, line)) - kernel_dim(line)
