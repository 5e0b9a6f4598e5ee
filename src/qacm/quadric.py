"""Kernel sheaves on the reducible quadric X = H1 + H2 in P3.

A kernel sheaf K is the kernel of the difference-of-restrictions surjection

    0 -> K -> F_split + F_other -> (F_split)|_L -> 0

where F_split is a split rank-2 bundle O(c) + O on one plane, F_other a
rank-2 bundle on the other plane whose restriction to L also splits as
O_L(c) + O_L, and the two restrictions are glued by an isomorphism e of
O_L(c) + O_L (identity, diagonal, or upper triangular).

The table of K(t) is a count of degrees: ``degree_table`` of its degree data,
the other side's with c, reads h0, h1 and h2 off the long exact sequences of
the plane sheaves.  No H0-level map is built and no row reads e, so a table
does not depend on the gluing.  ``coh_table`` then checks every row against the
built forms of F_other, 0 -> O(b) -> O(a_1) + ... -> F_other -> 0 with relation
forms p_i = sum_j u^j p_(i,j), p_(i,j) free of u:

* the H2-level kernel K of F_other at t, eliminated once, has the dimension
  the Hilbert function of the relation forms gives;
* h1, the kernel of the H1-level restriction H1(F_other(t)) -> H1(F_other|_L(t))
  in 0 -> F_other(t-1) -> F_other(t) -> F_other|_L(t) -> 0, equals
  dim ker (T_t Q K), all of it on L (the LES check).

The LES check is exact.  With P_t the H2-level relation at t and L_t the
H1-level relation on L at t, the restriction H1(F_other(t)) = K ->
H1(F_other|_L(t)) = coker L_t sends x to the class of P_(t-1) x', x' the lift of
x along u (each u-exponent one lower).  Since u P_(t-1) x' = P_t x = 0, P_(t-1) x'
lies in the u-exponent -1 rows of H2(O(a_i + t - 1)), which are H1(O_L(a_i + t)),
and there it is sum_(j>=1) (p_(i,j)|_L) x_(-j), with x_(-j) the u-exponent -j
slice of x, a vector on H1(O_L(b + t + j)).  That is Q x, Q the multiplication by
the grid of the p_(i,j)|_L (``_u_coefficients``) from the slices K covers, so h1
is dim {x in K : Q x in im L_t}.  On L, H1 is right exact:

    H1(O_L(b+t)) --L_t--> sum H1(O_L(a_i+t)) --T_t--> H1(O_L(c+t)) + H1(O_L(t)) -> 0

with T_t the H1-level map of the other side's trivialization rows (hi, lo): they
are a basis of the syzygies of the restricted relation (Hilbert-Burch, checked by
``trivialize_on_line``) of type (c, 0) (checked by ``make_kernel_sheaf``), so
they map sum O_L(a_i) onto F_other|_L = O_L(c) + O_L with kernel the relation.
Hence im L_t = ker T_t, and h1 = dim ker (T_t Q K): T_t Q is multiplication by
the 2 x J grid T q (``_les_grid``), so no L_t is built.  When a relation form is
c*u, K lies in one slice and is the kernel of L_(t+1) (``relation_h2_kernel``).

chi = h0 - h1 + h2 holds identically (h1 enters h2 as well) and is not checked.

Rank-one sheaves (extension of a line bundle on one plane by a line bundle
on the other) are counted the same way, as a cover O(a) + O(b) with no
relation: the connecting maps vanish because plane line bundles have no
middle cohomology.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalCheckError
from .linalg import QQ, RatMatrix, block_diag, hstack, kernel_basis, kernel_dim, rank
from .monomials import (P1, P2, Form, basis, multiplication_matrix, restrict_to_line,
                        restrict_to_plane, restriction_matrix)
from .plane import (CohRow, CohTable, DegreeData, SplitBundle, check_h2_kernel, chern,
                    ci_from_forms, ci_from_line_points, cohomology as plane_cohomology,
                    degree_table, make_extension_bundle, make_split_bundle,
                    relation_h2_kernel, trivialize_on_line)
from .record import record

AMBIENT_LINEAR = tuple(Form.variable(4, n) for n in ("x", "y", "z", "w"))


# ---------------------------------------------------------------------------
# gluing data


@record
class GluingData:
    """Automorphism-shaped isomorphism of O_L(c) + O_L used to glue the two
    restrictions: (s_hi, s_lo) -> (alpha s_hi + beta s_lo, delta s_lo)."""

    kind: str                 # "identity" | "diagonal" | "upper"
    alpha: Fraction = QQ(1)
    delta: Fraction = QQ(1)
    beta: Form = None         # binary form of degree c, upper only

    def describe(self) -> str:
        if self.kind == "identity":
            return "id"
        if self.kind == "diagonal":
            return f"diag({self.alpha},{self.delta})"
        return f"upper({self.alpha},{self.delta},{self.beta})"


def identity_gluing() -> GluingData:
    return GluingData("identity")


def diagonal_gluing(alpha, delta) -> GluingData:
    return check_gluing(GluingData("diagonal", QQ(alpha), QQ(delta)))


def upper_gluing(alpha, delta, beta: Form) -> GluingData:
    return check_gluing(GluingData("upper", QQ(alpha), QQ(delta), beta))


def check_gluing(e: GluingData, c: int = None) -> GluingData:
    """Refuse a gluing that is no isomorphism of O_L(c) + O_L, and return it: its
    scalars must be nonzero, and an upper beta a binary form, zero or (when c is
    given) of degree c.  The one check of a gluing."""
    if e.alpha == 0 or e.delta == 0:
        raise ValueError("gluing scalars must be nonzero")
    if e.kind == "upper":
        if not isinstance(e.beta, Form) or e.beta.num_vars != 2:
            raise ValueError("beta must be a binary form on L")
        if c is not None and not e.beta.is_zero and e.beta.degree != c:
            raise ValueError(f"upper gluing form must have degree {c}")
    return e


# ---------------------------------------------------------------------------
# kernel sheaves


@record
class KernelSheaf:
    split: SplitBundle
    other: object
    e: GluingData
    c: int
    twists: tuple       # of the summands of the two free covers, split side first
    line_map: tuple     # rows (hi, lo) of binary forms, one per summand

    @property
    def degree_data(self) -> DegreeData:
        d = self.other.degree_data
        return DegreeData(d.cover, d.relation, self.c)


def make_kernel_sheaf(f_split: SplitBundle, f_other, e: GluingData = None) -> KernelSheaf:
    """Validate the gluing data and the matching of splitting types on L."""
    e = check_gluing(identity_gluing() if e is None else e)
    if not isinstance(f_split, SplitBundle) or f_split.rank != 2:
        raise ValueError("the split side must be a rank-2 split bundle")
    c = f_split.twists[0]
    if f_split.twists != (c, 0) or c < 0:
        raise ValueError("split side must be normalized to twists (c, 0) with c >= 0")
    if getattr(f_other, "rank", None) != 2:
        raise ValueError("the other side must have rank 2")
    if f_other.side == f_split.side:
        raise ValueError("the two sides must live on different planes")
    triv = trivialize_on_line(f_other)
    if triv.degrees != (c, 0):
        raise ValueError(
            f"mismatched splitting types on L: split side gives (c, 0) = ({c}, 0), "
            f"other side gives {triv.degrees}")
    check_gluing(e, c)
    # F_split|_L = O_L(c) + O_L by its unit rows, so its columns are e's own matrix
    (o_hi, o_lo), zero = triv.rows, Form.zero(2)
    beta = zero if e.beta is None else e.beta
    line_map = ((Form.constant(2, e.alpha), beta) + tuple(-r for r in o_hi),
                (zero, Form.constant(2, e.delta)) + tuple(-q for q in o_lo))
    return KernelSheaf(f_split, f_other, e, c, f_split.twists + f_other.presentation.target_twists,
                       line_map)


def _assembled_matrix(k: KernelSheaf, t: int) -> RatMatrix:
    """H0-level map of K(t) on L: ``k.line_map``, Phi = [e | -tau_other],
    on the sections H0(O_L(a + t)) of each summand, into H0(O_L(c + t)) + H0(O_L(t)).
    Exact: composed with ``_restriction(k, t)`` it is the gluing matrix times the
    trivialized restrictions entry for entry, as M_beta M_r = M_(beta r) on monomial
    bases; and the restriction u := 0 is a surjective selection, so rank(Phi R) = rank(Phi)."""
    return multiplication_matrix(k.line_map, [basis(P1, 0, a + t) for a in k.twists],
                                 [basis(P1, 0, k.c + t), basis(P1, 0, t)])


def _restriction(k: KernelSheaf, t: int) -> RatMatrix:
    """H0(O(a + t)) -> H0(O_L(a + t)) on every summand of the two free covers."""
    return block_diag(*[restriction_matrix(a + t) for a in k.twists])


def _u_coefficients(pres) -> tuple:
    """The grid of p_(i,j)|_L, j = 1 up to the top power of u, one row per relation
    form p_i = sum_j u^j p_(i,j): its coefficient of u^j, ``restrict_to_line(p_i, j)``,
    a binary form of degree a_i - b - j."""
    top = max((e[0] for f in pres.relation for e, _ in f.terms), default=0)
    return tuple(tuple(restrict_to_line(f, j) for j in range(1, top + 1)) for f in pres.relation)


def _les_grid(k: KernelSheaf) -> tuple:
    """T q: the other side's trivialization rows (hi, lo), its columns of ``k.line_map``
    (negated, which changes no kernel; e does not reach them), times the grid
    ``_u_coefficients``; entry (e, j) has degree c_e - b - j, (c_0, c_1) = (c, 0)."""
    q = _u_coefficients(k.other.presentation)
    n = len(k.split.twists)
    return tuple(tuple(Form.sum(2, (r * qi[j] for r, qi in zip(row[n:], q)))
                       for j in range(len(q[0]))) for row in k.line_map)


def _h1_kernel_on_line(k: KernelSheaf, t: int, ker: RatMatrix, grid: tuple) -> int:
    """dim ker(H1(F_other(t)) -> H1(F_other|_L(t))) = dim ker (T_t Q K) (the module
    docstring).  ``ker`` = K, the H2-level kernel of F_other at t, on the leading
    u-exponent slices of H2(O(b+t)); T_t Q multiplies by ``grid`` (``_les_grid``)
    from the slices H1(O_L(b+t+j)) that K's rows cover into H1(O_L(c+t)) + H1(O_L(t))."""
    if not ker.cols:
        return 0
    srcs, n = [], 0
    while n < ker.rows:
        srcs.append(basis(P1, 1, k.other.presentation.relation_twist + t + len(srcs) + 1))
        n += srcs[-1].dim
    m = multiplication_matrix([row[:len(srcs)] for row in grid], srcs,
                              [basis(P1, 1, k.c + t), basis(P1, 1, t)])
    return kernel_dim(m @ ker)


def _line_walk(k: KernelSheaf, tmin: int, tmax: int):
    """The LES check's h1 of K(t), t = tmin..tmax, by ``_h1_kernel_on_line``: every
    H2 kernel (``relation_h2_kernel``) is computed once and checked against its Hilbert
    function (the relation forms of a glued other side are a regular sequence, as it
    is locally free); T q is formed once, and a nonzero K_t costs one product and rank."""
    other = k.other
    grid = _les_grid(k)
    for t in range(tmin, tmax + 1):
        ker = relation_h2_kernel(other, t)
        check_h2_kernel(other, t, ker)
        yield _h1_kernel_on_line(k, t, ker, grid)


def coh_table(k: KernelSheaf, tmin: int, tmax: int) -> CohTable:
    """The rows of K(t) for t in [tmin, tmax]: ``degree_table`` of its degree
    data, each row checked against the built forms (InternalCheckError): the H2
    kernels of the other side by their Hilbert function and h1 by the LES check on
    L, ``_line_walk``.  Without a relation no kernel is computed and h1 must be 0."""
    table = degree_table(k.degree_data, tmin, tmax)
    if k.other.presentation.relation_twist is None:
        walk = (0 for _ in table.rows)
    else:
        walk = _line_walk(k, tmin, tmax)
    for row, full in zip(table.rows, walk):
        if row.h1 != full:
            raise InternalCheckError(
                f"LES inconsistency at twist {row.t}: degree count {row.h1}, LES route {full}")
    return table


def coh_row(k: KernelSheaf, t: int) -> CohRow:
    """The one-twist table."""
    return coh_table(k, t, t).rows[0]


def h0(k: KernelSheaf, t: int) -> int:
    return coh_row(k, t).h0


def h1(k: KernelSheaf, t: int) -> int:
    return coh_row(k, t).h1


def h2(k: KernelSheaf, t: int) -> int:
    return coh_row(k, t).h2


# ---------------------------------------------------------------------------
# aCM / Ulrich


@record
class ACMReport:
    is_acm: bool
    table: CohTable
    window: tuple


def acm_window(k: KernelSheaf, margin: int = 8) -> tuple:
    """[-c - k' - margin, 6], k' the largest cover twist of the other side (or 0).
    h1(K(t)) is the image of u on H1(F_other(t-1)), so it is at most h1 of the
    other side at t - 1: dim (S/(p))_(-b-t-2) for its relation forms (p), of
    degrees a_i - b, nonzero only for t - 1 in [-b-3-s, -b-3], s = sum(a_i - b) - 3
    the socle degree.  F_other|_L = O_L(c) + O_L gives sum(a_i) - b = c, so that is
    t in [b - c + 1, -b - 2].  For G from ``make_extension_bundle``,
    b = d1 d2 - d1 - d2 >= -1 and b - c + 1 = 1 - k - d1 - d2 >= -c: inside the
    window.  A split other side has h1 = 0."""
    pres = k.other.presentation
    k_bound = max(0, *pres.target_twists)
    return (-k.c - k_bound - margin, 6)


def acm_check(k: KernelSheaf, margin: int = 8) -> ACMReport:
    """h1(K(t)) at every twist of ``acm_window``, outside of which it vanishes."""
    lo, hi = acm_window(k, margin)
    table = coh_table(k, lo, hi)
    return ACMReport(all(r.h1 == 0 for r in table.rows), table, (lo, hi))


@record
class UlrichResult:
    is_ulrich: bool
    t0: int
    h0_after: int


def ulrich_check(k: KernelSheaf, table: CohTable) -> UlrichResult:
    """t0 = max twist with h0(K(t0)) = 0, read from ``table`` (the aCM
    table); Ulrich iff h0 jumps to deg(X) * rank = 4 right after.  One more
    row is computed only when h0 is 0 on every twist of the table."""
    rows = table.rows
    if rows[0].h0 != 0:
        raise ValueError("window too small: h0 does not vanish at its low end")
    n = next((i for i, r in enumerate(rows) if r.h0), len(rows))
    t0 = rows[n - 1].t
    after = rows[n].h0 if n < len(rows) else h0(k, t0 + 1)
    return UlrichResult(after == 4, t0, after)


def restriction_invariants(k: KernelSheaf):
    """((c1, c2) on H1, (c1, c2) on H2), the Chern pairs of the two restrictions."""
    by_side = {k.split.side: chern(k.split), k.other.side: chern(k.other)}
    return (by_side[1], by_side[2])


# ---------------------------------------------------------------------------
# gluing variation


@record
class GluingVariationRow:
    gluing: str
    table: CohTable
    equal_to_identity: bool


# Work bounds.  A plane table is a count; a kernel sheaf eliminates an H2 kernel of its other
# side only between an empty source and the socle degree (the README sheaf over [-250, 9]:
# 0.01 s, 17 MB, 2-vCPU Xeon, Python 3.11).  The deepest scan window [-2 c_max - margin, 6]
# starts at -202.
MAX_ABS_TWIST = 250
MAX_WINDOW = 260
# A form of a descriptor has degree <= MAX_FORM_DEGREE, checked before any product is
# formed; a pair (c*u, g) is validated with no product, and every other pair and G's
# forms are bounded by ``plane.MAX_DEGREE_SUM`` (README).
MAX_FORM_DEGREE = 2000


def check_twist_window(tmin, tmax) -> None:
    """Refuse an inverted twist window, a twist beyond MAX_ABS_TWIST and a
    window of more than MAX_WINDOW twists; a bound that is None is not checked."""
    for t in (tmin, tmax):
        if t is not None and abs(t) > MAX_ABS_TWIST:
            raise ValueError(f"twist {t} is beyond the limit |t| <= {MAX_ABS_TWIST}")
    if tmin is not None and tmax is not None and tmin > tmax:
        raise ValueError(f"tmin must be <= tmax, got tmin = {tmin} > tmax = {tmax}")
    if tmin is not None and tmax is not None and tmax - tmin + 1 > MAX_WINDOW:
        raise ValueError(f"window [{tmin}, {tmax}] has {tmax - tmin + 1} twists, "
                         f"over the limit of {MAX_WINDOW}")


def gluing_variation_report(k: KernelSheaf, gluings, tmin: int = None, tmax: int = None):
    """Cohomology tables of the same (F_split, F_other) pair under different
    gluings.  Each gluing is validated by ``check_gluing`` first, and the table is
    computed once: no row reads e (h0 is a count of degrees and the LES check
    reads only F_other), so every gluing has the identity's table and
    ``equal_to_identity`` holds.
    A missing bound of the twist window is taken from ``acm_window``."""
    gluings = [check_gluing(g, k.c) for g in gluings]
    lo, hi = acm_window(k)
    tmin = lo if tmin is None else tmin
    tmax = hi if tmax is None else tmax
    check_twist_window(tmin, tmax)
    table = coh_table(k, tmin, tmax)
    return [GluingVariationRow(g.describe(), table, True) for g in gluings]


# ---------------------------------------------------------------------------
# global generation of 0-regular kernel sheaves


def _cover_sections(k: KernelSheaf, t: int) -> list:
    """H0(O(a + t)) of every summand of the two free covers, split side first."""
    return [basis(P2, 0, a + t) for a in k.twists]


def _linear_mult(k: KernelSheaf, linear: Form) -> RatMatrix:
    """Multiplication by the restriction of an ambient linear form to each
    plane on the sections of the two free covers: twist 0 -> 1."""
    n = len(k.split.twists)
    on_plane = [restrict_to_plane(linear, k.split.side)] * n + \
        [restrict_to_plane(linear, k.other.side)] * (len(k.twists) - n)
    return multiplication_matrix([(Form.zero(3),) * i + (f,) for i, f in enumerate(on_plane)],
                                 _cover_sections(k, 0), _cover_sections(k, 1))


def global_generation_surjective(k: KernelSheaf) -> bool:
    """Is H0(K) (x) H0(O_X(1)) -> H0(K(1)) onto?  Guaranteed when K is
    0-regular.  Computed on explicit section representatives."""
    u0 = _assembled_matrix(k, 0) @ _restriction(k, 0)
    u1 = _assembled_matrix(k, 1) @ _restriction(k, 1)
    v0 = kernel_basis(u0)
    target_dim = u1.cols - rank(u1)
    columns = []
    for linear in AMBIENT_LINEAR:
        prod = _linear_mult(k, linear) @ v0
        if not (u1 @ prod).is_zero():
            raise InternalCheckError("multiplication did not preserve kernel sections")
        columns.append(prod)
    # the relation of the other side at twist 1, into the sections of both covers
    pres = k.other.presentation
    embedded = multiplication_matrix(
        [()] * len(k.split.twists) + [(f,) for f in pres.relation],
        [] if pres.relation_twist is None else [basis(P2, 0, pres.relation_twist + 1)],
        _cover_sections(k, 1))
    total = hstack(*columns, embedded)
    return rank(total) == target_dim


# ---------------------------------------------------------------------------
# rank-one sheaves


@record
class RankOneSheaf:
    """Extension of O_{H_(3-i)}(b) by O_{H_i}(a) on X; its dimensions do not
    depend on the extension class."""

    inner_side: int
    a: int
    b: int

    @property
    def degree_data(self) -> DegreeData:
        """The long exact sequence splits dimensionally (plane line bundles have
        no middle cohomology), so every h^q is that of the cover O(a) + O(b);
        in particular h1 vanishes identically."""
        return DegreeData((self.a, self.b))


def rank_one_cohomology(r: RankOneSheaf, i: int, t: int) -> int:
    return plane_cohomology(r, i, t)


# ---------------------------------------------------------------------------
# the two distinguished families


def point_extension_kernel(component: int, e: GluingData = None) -> KernelSheaf:
    """The Ulrich pair: an extension of the twisted ideal sheaf of a point off
    L by O_X.  Component 1 carries the point on H1, component 2 on H2."""
    if component not in (1, 2):
        raise ValueError("component must be 1 or 2")
    ci = ci_from_forms(Form.variable(3, "v"), Form.variable(3, "w"))
    g = make_extension_bundle(1, 0, ci, h="auto", side=component)
    return make_kernel_sheaf(make_split_bundle(3 - component, (1, 0)), g, e)


def collinear_extension_kernel(c: int, k: int, points, h="auto",
                               split_side: int = 1, e: GluingData = None) -> KernelSheaf:
    """The collinear family: split O(c) + O on one plane against the rank-2
    extension bundle G built from a degree-(c-k) subscheme of L."""
    ci = ci_from_line_points(points)
    g = make_extension_bundle(c, k, ci, h=h, side=3 - split_side)
    f_split = make_split_bundle(split_side, (c, 0))
    return make_kernel_sheaf(f_split, g, e)


def split_pair_kernel(c: int, e: GluingData = None) -> KernelSheaf:
    """O(c) + O against O(c) + O: the split sheaf O_X(c) + O_X."""
    return make_kernel_sheaf(make_split_bundle(1, (c, 0)),
                             make_split_bundle(2, (c, 0)), e)
