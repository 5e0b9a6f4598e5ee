"""The P2 route of a kernel sheaf's LES check, a reference of the tests.

h1 of K(t) is the kernel of the H1-level restriction H1(F_other(t)) ->
H1(F_other|_L(t)).  ``h1_kernel_of_line_map_full`` computes it by the zig-zag
through the presentation on P2: lift the H2-level kernel along u, push it
through the relation at t - 1, and kill the image of the restricted relation.
It shares no code with the degree count, and ``quadric._h1_kernel_on_line``
computes the same on L.
"""

from functools import cache

from qacm.linalg import hstack, kernel_dim
from qacm.monomials import P2, GradedPiece, basis, dual_exponents, multiplication_matrix


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
