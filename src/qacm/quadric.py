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
does not depend on the gluing.  ``coh_table`` then checks h1 against the built
forms of F_other, 0 -> O(b) -> O(a_1) + ... -> F_other -> 0 with relation forms
(p) = (p_1, ..., p_n) of degrees a_i - b, once per table and with no kernel
eliminated (``h1_from_forms``):

The relation forms of a locally free F_other are a regular sequence, so
A = S/(p), S = Q[u, v, w], is an Artinian complete intersection, Gorenstein of
socle degree s = sum(a_i - b) - 3.  H1(F_other(t)) is the kernel of the relation
on H2, Serre dual to A_n, n = -(b+t) - 3: H1_*(F_other) is the graded dual of A.
In 0 -> F_other(t-1) -> F_other(t) -> F_other|_L(t) -> 0, h1(K(t)) is the image
of u on H1(F_other(t-1)), dual to u: A_n -> A_(n+1), so
h1(K(t)) = dim A_n - dim (0 :_A u)_n.  Matlis duality holds in the Gorenstein
ring A: 0 :_A u = Hom_A(A/uA, A) is the graded dual of A/uA shifted by s, and
A/uA = B = Q[v, w]/(p|_L).  Hence

    h1(K(t)) = HF_A(n) - HF_B(s - n),

HF_A from the degrees (``ci_hilbert``), HF_B from ranks of the pieces of the
ideal (p|_L) on L (``line_hilbert``).  The same argument decides the aCM
verdict: K is aCM exactly when u kills A, that is when u lies in (p), which
``acm_check`` reads off the forms (``u_in_ideal``) and holds the table to.

chi = h0 - h1 + h2 holds identically (h1 enters h2 as well) and is not checked.

Rank-one sheaves (extension of a line bundle on one plane by a line bundle
on the other) are counted the same way, as a cover O(a) + O(b) with no
relation: the connecting maps vanish because plane line bundles have no
middle cohomology.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalCheckError
from .linalg import QQ, RatMatrix, block_diag, hstack, kernel_basis, rank
from .monomials import (P1, P2, Form, basis, multiplication_matrix, restrict_to_plane,
                        restriction_matrix)
from .plane import (CohRow, CohTable, DegreeData, SplitBundle, chern, ci_from_forms,
                    ci_from_line_points, ci_hilbert, cohomology as plane_cohomology,
                    degree_table, line_hilbert, make_extension_bundle, make_split_bundle,
                    trivialize_on_line, u_in_ideal)
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
    return multiplication_matrix(k.line_map, [basis(P1, a + t) for a in k.twists],
                                 [basis(P1, k.c + t), basis(P1, t)])


def _restriction(k: KernelSheaf, t: int) -> RatMatrix:
    """H0(O(a + t)) -> H0(O_L(a + t)) on every summand of the two free covers."""
    return block_diag(*[restriction_matrix(a + t) for a in k.twists])


def h1_from_forms(k: KernelSheaf, tmin: int, tmax: int) -> list:
    """h1(K(t)) for t = tmin..tmax as HF_A(n) - HF_B(s - n), n = -(b+t) - 3 (the
    module docstring): HF_A from the degrees (``ci_hilbert``), HF_B from ranks on L
    (``line_hilbert``), taken once, at the degrees s - n the window reads with
    0 <= n <= s, ascending with t; B is 0 outside them.  0 without a relation."""
    pres = k.other.presentation
    b = pres.relation_twist
    if b is None:
        return [0] * (tmax - tmin + 1)
    degrees = [a - b for a in pres.target_twists]
    s = sum(degrees) - 3
    ns = [-(b + t) - 3 for t in range(tmin, tmax + 1)]
    read = [s - n for n in ns if 0 <= n <= s]
    forms = k.other.line_presentation.relation
    hf_b = dict(zip(read, line_hilbert(forms, read[0], read[-1]))) if read else {}
    return [ci_hilbert(degrees, n) - hf_b.get(s - n, 0) for n in ns]


def coh_table(k: KernelSheaf, tmin: int, tmax: int) -> CohTable:
    """The rows of K(t) for t in [tmin, tmax]: ``degree_table`` of its degree
    data, its h1 checked against ``h1_from_forms`` on the built forms
    (InternalCheckError)."""
    table = degree_table(k.degree_data, tmin, tmax)
    for row, h1 in zip(table.rows, h1_from_forms(k, tmin, tmax)):
        if row.h1 != h1:
            raise InternalCheckError(
                f"h1 inconsistency at twist {row.t}: degree count {row.h1}, "
                f"A/uA route {h1}")
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
    window.  A split other side has h1 = 0.  ``acm_check`` holds the window's
    verdict to u in (p), so a window that misses a twist with h1 != 0 is refused."""
    pres = k.other.presentation
    k_bound = max(0, *pres.target_twists)
    return (-k.c - k_bound - margin, 6)


def acm_check(k: KernelSheaf, margin: int = 8) -> ACMReport:
    """h1(K(t)) at every twist of ``acm_window``, outside of which it vanishes.
    K is aCM exactly when u kills A = S/(p) (the module docstring), that is when
    u lies in (p); a verdict of the table that disagrees raises InternalCheckError.
    A split other side has no relation and no H1: K is aCM."""
    lo, hi = acm_window(k, margin)
    table = coh_table(k, lo, hi)
    is_acm = all(r.h1 == 0 for r in table.rows)
    pres = k.other.presentation
    u_kills_a = pres.relation_twist is None or u_in_ideal(pres.relation)
    if is_acm != u_kills_a:
        raise InternalCheckError(f"aCM verdict of the table over [{lo}, {hi}] is {is_acm}, "
                                 f"u in (p) is {u_kills_a}")
    return ACMReport(is_acm, table, (lo, hi))


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


# Work bounds.  A plane table is a count; a kernel sheaf's table ranks B = A/uA on L once per
# table, at no more than s + 1 degrees (over [-250, 9], 2-vCPU Xeon, Python 3.11: the README
# sheaf 1 ms; G(c=598,k=298,Z=[u,v^300],h=auto), the largest B a descriptor admits, 249 ranks
# in 0.15 s and 33 MB).  The deepest scan window [-2 c_max - margin, 6] starts at -202.
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
    computed once: no row reads e (h0 is a count of degrees and the h1 check
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
    return [basis(P2, a + t) for a in k.twists]


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
        [] if pres.relation_twist is None else [basis(P2, pres.relation_twist + 1)],
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
