"""Two references of the tests for a kernel sheaf's LES check.

h1 of K(t) is the kernel of the H1-level restriction H1(F_other(t)) ->
H1(F_other|_L(t)).  ``h1_kernel_of_line_map_full`` computes it by the zig-zag
through the presentation on P2: lift the H2-level kernel along u, push it
through the relation at t - 1, and kill the image of the restricted relation.
``h1_kernel_stacked`` computes it on L, killing that image by eliminating the
stacked matrix [Q K | L_t].  Neither shares code with the degree count, and
neither reads a trivialization: ``quadric._h1_kernel_on_line`` computes the same
as dim ker (T_t Q K), T_t the H1-level map of the trivialization rows.
"""

from functools import cache

from qacm.linalg import hstack, kernel_dim
from qacm.monomials import P1, P2, GradedPiece, basis, dual_exponents, multiplication_matrix
from qacm.plane import line_relation_matrix
from qacm.quadric import _u_coefficients


@cache
def dual_prefix(d: int, depth) -> GradedPiece:
    """H2(O(d)) on its dual monomials of u-exponent -1, ..., -depth, which
    reverse-lex order lists first, in basis order; None means all of them.
    Built once per (d, depth), like ``basis``."""
    if depth is None:
        return basis(P2, 2, d)
    return GradedPiece(P2, 2, d, tuple((-j,) + e for j in range(1, depth + 1)
                                       for e in dual_exponents(2, d + j)))


def relation_h2_prefix_matrix(pres, t: int, src: GradedPiece, depth):
    """The H2-level relation at twist t on ``src``, dual monomials of degree
    b + t, into the depth prefix of each target summand, which holds every product."""
    return multiplication_matrix([(f,) for f in pres.relation], [src],
                                 [dual_prefix(a + t, depth) for a in pres.target_twists])


def h1_kernel_of_line_map_full(k, t: int, ker) -> int:
    """dim ker(H1(F_other(t)) -> H1(F_other|_L(t))) by the zig-zag on P2.  ``ker``
    is ``relation_h2_kernel(k.other, t)``, on the dual prefix of depth
    ``k.other.h2_depth``.

    The lift sends (a, v, w) to (a-1, v, w) and H1(O_L(b+t)) is the u-exponent
    -1 part of H2(O(b+t-1)), so the relation at t-1 is only applied to, and
    only reaches, the prefix one deeper than the kernel's."""
    if not ker.cols:
        return 0
    pres = k.other.presentation
    b = pres.relation_twist
    depth = k.other.h2_depth
    rows = None if depth is None else depth + 1
    lifted = GradedPiece(P2, 2, b + t - 1,
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
        srcs.append(basis(P1, 1, pres.relation_twist + t + len(srcs) + 1))
        n += srcs[-1].dim
    q = _u_coefficients(pres)
    u_map = multiplication_matrix([row[:len(srcs)] for row in q], srcs,
                                  [basis(P1, 1, a + t) for a in pres.target_twists])
    line = line_relation_matrix(k.other, t, 1)
    return kernel_dim(hstack(u_map @ ker, line)) - kernel_dim(line)
