"""Sheaves on a projective plane, given by explicit graded presentations.

Every sheaf here is the cokernel of a map of split bundles

    0 -> O(b) --column of forms--> O(a_1) + ... + O(a_n) -> F -> 0

(or just a split bundle, with no relation).  Three flavours:

* ``SplitBundle``    -- a direct sum of line bundles;
* ``CIIdealSheaf``   -- the twisted ideal sheaf I_Z(m) of the complete
  intersection Z = V(f1, f2), via its Koszul presentation;
* ``ExtensionBundle``-- the rank-2 bundle G sitting in
  0 -> O(k) -> G -> I_Z(c-k) -> 0, obtained by extending the Koszul
  presentation of I_Z(c-k) by one more form h (the extension class);
  G is locally free exactly when (f1, f2, h) have no common zero.

Every table is a count of degrees: a sheaf gives its ``DegreeData`` (the twists
of the cover and of the relation, and c for a kernel sheaf on the quadric), and
``degree_table`` alone turns it into rows.  For a plane sheaf, h0: the relation,
a nonzero column, is injective on H0.  h1: the kernel of the relation on H2,
Serre dual to (S/(p))_(-b-t-3) for the relation forms (p), a regular sequence
(``ci_hilbert``).  h2: the cokernel there.  No kernel is eliminated: a kernel
sheaf's table is checked through the Hilbert functions of A = S/(p), from the
degrees, and of A/uA = Q[v, w]/(p|_L), from ranks on L (``line_hilbert``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import InternalCheckError
from .linalg import RatMatrix, kernel_basis, rank
from .monomials import (P1, P2, Form, basis, binary_forms_common_zero_free, cohomology_dim,
                        euler_char_p2, multiplication_matrix, restrict_to_line as form_on_line)
from .record import record

U = Form.variable(3, "u")
MAX_DEGREE_SUM = 600    # of a pair (``ci_from_forms``) and of G's forms with h (README)


def is_u(f: Form) -> bool:
    """f is a nonzero scalar multiple of u: one term, of exponent (1, 0, 0)."""
    return len(f.terms) == 1 and f.terms[0][0] == (1, 0, 0)


# ---------------------------------------------------------------------------
# complete-intersection subschemes


@record
class CISubscheme:
    """Zero-dimensional Z = V(f1, f2) in the plane.  ``points`` optionally
    records ((v, w), multiplicity) data when Z lies on L = {u = 0} and was
    built from explicit points."""

    f1: Form
    f2: Form
    points: tuple = None

    @property
    def degrees(self):
        return (self.f1.degree, self.f2.degree)

    @property
    def degree(self) -> int:
        return self.f1.degree * self.f2.degree

    def is_collinear(self) -> bool:
        """Z is cut out by a multiple of u and a binary form in (v, w)."""
        return any(is_u(f) and not any(e[0] for e, _ in g.terms)
                   for f, g in ((self.f1, self.f2), (self.f2, self.f1)))


def _ideal_piece_matrix(forms, d: int, space: str = P2) -> RatMatrix:
    """Columns spanning the degree-d piece of the ideal generated by the
    nonzero ``forms`` inside the monomial coordinates of H0(space, O(d)): plane
    forms on P2, binary forms on P1 = L."""
    return multiplication_matrix([forms], [basis(space, d - f.degree) for f in forms],
                                 [basis(space, d)])


def u_in_ideal(forms) -> bool:
    """u lies in the ideal of the nonzero plane ``forms``: its degree-1 piece holds u
    exactly when a form is a nonzero constant, or u is in the span of the linear ones."""
    if any(f.degree == 0 for f in forms):
        return True
    linear = [f for f in forms if f.degree == 1]
    return rank(_ideal_piece_matrix(linear + [U], 1)) == rank(_ideal_piece_matrix(linear, 1))


def ci_from_forms(f1: Form, f2: Form, points=None) -> CISubscheme:
    """Validate that (f1, f2) is a regular sequence (Z zero-dimensional) and
    return the subscheme.  (c*u, g), c != 0, is one exactly when g|_L is nonzero,
    as in ``no_common_zero``.  Another pair is refused past MAX_DEGREE_SUM; it is
    one if coprime on L, which every common curve meets, and not if it has no u and
    is not coprime on L; any other pair is tested by Hilbert-function stabilization."""
    for f in (f1, f2):
        if f.is_zero or f.num_vars != 3 or f.degree < 1:
            raise ValueError("Z not zero-dimensional: generators must be nonconstant plane forms")
    if is_u(f1) or is_u(f2):
        if form_on_line(f2 if is_u(f1) else f1).is_zero:
            raise ValueError("Z not zero-dimensional")
        return CISubscheme(f1, f2, points)
    d1, d2 = f1.degree, f2.degree
    if d1 + d2 > MAX_DEGREE_SUM:
        raise ValueError(f"the forms of Z have degrees summing to {d1 + d2}, beyond "
                         f"the degree-sum limit {MAX_DEGREE_SUM}")
    if binary_forms_common_zero_free([form_on_line(f1), form_on_line(f2)]):
        return CISubscheme(f1, f2, points)
    if not any(e[0] for f in (f1, f2) for e, _ in f.terms):
        raise ValueError("Z not zero-dimensional")
    for d in (d1 + d2 - 1, d1 + d2):
        expected = cohomology_dim(P2, 0, d) - d1 * d2
        if rank(_ideal_piece_matrix((f1, f2), d)) != expected:
            raise ValueError("Z not zero-dimensional")
    return CISubscheme(f1, f2, points)


def ci_from_line_points(pts) -> CISubscheme:
    """Collinear subscheme on L from ((v, w), multiplicity) pairs: the ideal
    (u, prod (w_i v - v_i w)^mu_i).  A point is told apart from the others by its
    primitive int coordinates, w > 0, or v > 0 when w = 0."""
    pts = tuple(((Fraction(v), Fraction(w)), int(m)) for (v, w), m in pts)
    if not pts:
        raise ValueError("need at least one point")
    seen = set()
    g = Form.constant(2, 1)
    for (v, w), m in pts:
        vn, wn = v.numerator * w.denominator, w.numerator * v.denominator
        if (vn, wn) == (0, 0):
            raise ValueError("invalid point [0:0]")
        k = gcd(vn, wn) if wn > 0 or wn == 0 and vn > 0 else -gcd(vn, wn)
        if (vn // k, wn // k) in seen:
            raise ValueError("repeated point; use a multiplicity instead")
        seen.add((vn // k, wn // k))
        if m < 1:
            raise ValueError("multiplicity must be >= 1")
        g = g * Form.from_dict(2, {(1, 0): w, (0, 1): -v}) ** m
    return CISubscheme(U, Form(3, tuple(((0,) + e, c) for e, c in g.terms), g.den), pts)


# ---------------------------------------------------------------------------
# presentations


@record
class Presentation:
    target_twists: tuple        # twists a_i of the free cover
    relation_twist: object      # twist b of the single relation, or None
    relation: tuple             # column of plane forms, one per target summand

    def on_line(self) -> "Presentation":
        """The restriction to L: the same twists, the relation with u := 0."""
        return Presentation(self.target_twists, self.relation_twist,
                            tuple(form_on_line(f) for f in self.relation))


@record
class DegreeData:
    """What a table counts: the twists a_i of the free cover, the relation twist b
    (None without a relation; the relation forms, a regular sequence, have degrees
    a_i - b), and c of the split side O(c) + O for a kernel sheaf, whose data is
    otherwise its other side's (None for a sheaf on one plane)."""

    cover: tuple
    relation: object = None
    c: object = None


class _Presented:
    """A plane sheaf's presentation, its restriction to L and its degree data,
    each built once per instance: the sheaves are frozen and a ``Presentation``
    holds only frozen forms, so every caller can share them.  Whether the
    relation has a common zero, on L or on the plane, is decided at most once.
    Equality and hashing stay those of the ``record`` fields."""

    @cached_property
    def presentation(self) -> Presentation:
        return self._presentation()

    @cached_property
    def degree_data(self) -> DegreeData:
        return DegreeData(self.presentation.target_twists, self.presentation.relation_twist)

    @property
    def rank(self) -> int:
        """The number of target summands less the number of relations."""
        pres = self.presentation
        return len(pres.target_twists) - (pres.relation_twist is not None)

    @cached_property
    def line_presentation(self) -> Presentation:
        return self.presentation.on_line()

    @cached_property
    def line_relation_coprime(self) -> bool:
        """The restricted relation has no common zero on L: its nonzero forms
        have a constant gcd."""
        return binary_forms_common_zero_free(self.line_presentation.relation)

    @cached_property
    def relation_common_zero_free(self) -> bool:
        """The relation's forms have no common zero on the plane (set by
        ``make_extension_bundle``, which has just tested it)."""
        return no_common_zero(self.presentation.relation)


@record
class SplitBundle(_Presented):
    side: int
    twists: tuple

    def _presentation(self) -> Presentation:
        return Presentation(self.twists, None, ())


@record
class CIIdealSheaf(_Presented):
    """I_Z(m) with Koszul presentation 0 -> O(m-d1-d2) -> O(m-d1)+O(m-d2)."""

    side: int
    ci: CISubscheme
    m: int

    def _presentation(self) -> Presentation:
        d1, d2 = self.ci.degrees
        return Presentation((self.m - d1, self.m - d2), self.m - d1 - d2,
                            (-self.ci.f2, self.ci.f1))


@record
class ExtensionBundle(_Presented):
    """Rank-2 bundle from 0 -> O(k) -> G -> I_Z(c-k) -> 0 with extension
    class realized by the form h of degree 2k - c + d1 + d2."""

    side: int
    c: int
    k: int
    ci: CISubscheme
    h: Form

    def _presentation(self) -> Presentation:
        c, k = self.c, self.k
        d1, d2 = self.ci.degrees
        return Presentation((c - k - d1, c - k - d2, k), c - k - d1 - d2,
                            (-self.ci.f2, self.ci.f1, self.h))

    @cached_property
    def degree_data(self) -> DegreeData:
        """Refused (ValueError) when (f1, f2, h) have a common zero: they are then
        no regular sequence, and no count of degrees gives G's cohomology."""
        if not self.relation_common_zero_free:
            raise ValueError("the relation forms have a common zero: G is not locally free")
        return super().degree_data


def make_split_bundle(side: int, twists) -> SplitBundle:
    twists = tuple(sorted((int(t) for t in twists), reverse=True))
    if not twists:
        raise ValueError("twist list must be non-empty")
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    return SplitBundle(side, twists)


def make_ci_ideal(f1: Form, f2: Form, m: int, side: int = 2, points=None) -> CIIdealSheaf:
    return CIIdealSheaf(side, ci_from_forms(f1, f2, points), int(m))


def no_common_zero(forms) -> bool:
    """True iff the plane forms have no common zero on P2.

    If one of the forms is c*u (``is_u``: a collinear Z and its extension class),
    every common zero lies on L = {u = 0}, and a point [0 : v : w] is a common
    zero iff every restriction f|_L vanishes there.  The answer is then "the
    restrictions (u's is zero) have a constant gcd"; if they all restrict to zero
    the gcd is zero and the answer is False.

    Otherwise the test is a rank: three (or more) forms with empty zero locus
    contain a regular sequence, so the quotient vanishes in degree
    sum(deg) - 2; a common zero of two or more forms keeps every graded piece
    of the quotient positive from that degree on.  A single nonconstant form
    always has zeros.  Both routes are exact."""
    forms = list(forms)
    if any(is_u(f) for f in forms):
        return binary_forms_common_zero_free([form_on_line(f) for f in forms])
    forms = [f for f in forms if not f.is_zero]
    if any(f.degree == 0 for f in forms):
        return True
    if len(forms) < 2:
        return False            # no form, or one curve
    d = sum(f.degree for f in forms) - 2
    return rank(_ideal_piece_matrix(forms, d)) == cohomology_dim(P2, 0, d)


def _auto_extension_form(ci: CISubscheme, deg_h: int) -> Form:
    """Deterministic first h of degree deg_h with (f1, f2, h) common-zero
    free: support sizes 1..3 over the monomial basis in order, coefficients
    from (1, -1, 2, -2).  For Z = V(c*u, g) a support of monomials that all contain
    u is skipped: h|_L = 0 and gcd(g, 0) = g, so ``no_common_zero`` rejects it."""
    if deg_h == 0:
        return Form.constant(3, 1)
    mons = basis(P2, deg_h).basis
    on_line = is_u(ci.f1) or is_u(ci.f2)
    for support in range(1, 4):
        for pos in itertools.combinations(range(len(mons)), support):
            if on_line and all(mons[p][0] for p in pos):
                continue
            for coefs in itertools.product((1, -1, 2, -2), repeat=support):
                h = Form.from_dict(3, {mons[p]: c for p, c in zip(pos, coefs)})
                if no_common_zero([ci.f1, ci.f2, h]):
                    return h
    raise ValueError("no extension class of the required degree is locally free")


def make_extension_bundle(c: int, k: int, ci: CISubscheme, h="auto", side: int = 2) -> ExtensionBundle:
    c, k = int(c), int(k)
    if k < 0:
        raise ValueError("k must be >= 0")
    if ci.degree != c - k or c - k < 1:
        raise ValueError(f"deg(Z) = {ci.degree} must equal c - k = {c - k} >= 1")
    d1, d2 = ci.degrees
    deg_h = 2 * k - c + d1 + d2
    if deg_h < 0:
        raise ValueError("no locally free extension: the class space is zero")
    if isinstance(h, str) and h == "auto":
        # the search returns only an h that passes ``no_common_zero``
        h = _auto_extension_form(ci, deg_h)
    else:
        if not isinstance(h, Form) or h.num_vars != 3:
            raise ValueError("h must be a plane form or 'auto'")
        if h.is_zero or h.degree != deg_h:
            raise ValueError(f"h must be a nonzero form of degree {deg_h}")
        if not no_common_zero([ci.f1, ci.f2, h]):
            raise ValueError("extension not locally free (Cayley-Bacharach violated by h)")
    g = ExtensionBundle(side, c, k, ci, h)
    # the relation (-f2, f1, h) has the zeros of (f1, f2, h); the cached property is no
    # ``record`` field, so equality and hashing do not see it
    vars(g)["relation_common_zero_free"] = True
    return g


# ---------------------------------------------------------------------------
# cohomology from the presentation


def ci_hilbert(degrees, n: int) -> int:
    """dim (S/(p))_n, S = Q[u, v, w], (p) a regular sequence of forms of the given
    degrees: the z^n coefficient of prod(1 - z^d) / (1 - z)^3 (Eisenbud, Commutative
    Algebra, 21.2), a signed sum of (m + 1)(m + 2) / 2 over m = n - each subset sum.
    With three or more degrees the series is a polynomial of degree sum(d) - 3."""
    if n < 0 or len(degrees) >= 3 and n > sum(degrees) - 3:
        return 0
    terms = [(n, 1)]
    for d in degrees:
        terms += [(m - d, -s) for m, s in terms]
    return sum(s * (m + 1) * (m + 2) // 2 for m, s in terms if m >= 0)


def line_hilbert(forms, lo: int, hi: int) -> tuple:
    """dim (Q[v, w]/(forms))_d for d = lo..hi, ``forms`` binary, one rank of the
    degree-d piece of their ideal per degree from lo up to the first d where the
    quotient is 0.  It is 0 from there on: the quotient is generated in degree 1."""
    forms = [f for f in forms if not f.is_zero]
    dims = []
    for d in range(lo, hi + 1):
        dims.append(d + 1 - rank(_ideal_piece_matrix(forms, d, P1)))
        if not dims[-1]:
            break
    return tuple(dims) + (0,) * (hi + 1 - lo - len(dims))


def euler_char(sheaf, t: int) -> int:
    pres = sheaf.presentation
    chi = sum(euler_char_p2(a + t) for a in pres.target_twists)
    if pres.relation_twist is not None:
        chi -= euler_char_p2(pres.relation_twist + t)
    return chi


def h2_kernel_dim(d: DegreeData, t: int) -> int:
    """dim ker(H2(O(b+t)) -> sum H2(O(a_i+t))) when the relation forms (p) are a
    regular sequence: by Serre duality, dim (S/(p))_(-b-t-3); 0 without a relation."""
    b = d.relation
    if b is None:
        return 0
    return ci_hilbert([a - b for a in d.cover], -b - t - 3)


@record
class CohRow:
    t: int
    h0: int
    h1: int
    h2: int

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2


@record
class CohTable:
    rows: tuple

    def as_dicts(self):
        return [dict(t=r.t, h0=r.h0, h1=r.h1, h2=r.h2, chi=r.chi) for r in self.rows]


def degree_table(d: DegreeData, tmin: int, tmax: int) -> CohTable:
    """Rows t = tmin..tmax for the degree data d, each number a count of degrees
    (chi holds identically, unchecked).  A plane row: h0 = sum h0(O(a+t)) - h0(O(b+t)),
    h1 = ``h2_kernel_dim``, h2 the cokernel of the relation on H2.  A kernel row (d.c
    set) reads the plane rows P of the other side F at t - 1 and t, each computed once
    as the walk goes upward, and those of O(c) + O.  In 0 -> F(t-1) -> F(t) -> F|_L(t)
    -> 0, F|_L = O_L(c) + O_L, h1 is the image of u on H1(F(t-1)): P(t-1).h1 less the
    cokernel of H0(F(t)) -> H0(F|_L(t)).  h0 = h0(O(c) + O)(t) + P(t).h0 - h0(F|_L(t)),
    the H0-level map onto L being onto; h2 is the cokernel of the H1-level restriction,
    h1(F|_L(t)) - P(t).h1 + h1, plus P(t).h2 and h2(O(c) + O)(t).

    Each count is inline: on P2 h0(O(n)) and h2(O(n)) are chi(O(n)) = (n+1)(n+2)/2 for
    n >= 0 and n < 0 (it is 0 at n = -1, -2); on L h0(O_L(n)) and h1(O_L(n)) are n + 1
    and -(n + 1), each where it is positive."""
    def plane(d, t):
        h0 = h2 = 0
        for a in d.cover:
            n = a + t
            if n >= 0:
                h0 += (n + 1) * (n + 2) // 2
            else:
                h2 += (n + 1) * (n + 2) // 2
        if d.relation is None:
            return h0, 0, h2
        n, h1 = d.relation + t, h2_kernel_dim(d, t)
        if n >= 0:
            return h0 - (n + 1) * (n + 2) // 2, h1, h2 + h1
        return h0, h1, h2 - (n + 1) * (n + 2) // 2 + h1

    if d.c is None:
        return CohTable(tuple(CohRow(t, *plane(d, t)) for t in range(tmin, tmax + 1)))
    split, rows, (b0, b1, _) = DegreeData((d.c, 0)), [], plane(d, tmin - 1)
    for t in range(tmin, tmax + 1):
        (p0, p1, p2), (s0, _, s2) = plane(d, t), plane(split, t)
        line_h0 = max(d.c + t + 1, 0) + max(t + 1, 0)
        line_h1 = max(-d.c - t - 1, 0) + max(-t - 1, 0)
        h1 = b1 + p0 - b0 - line_h0
        rows.append(CohRow(t, s0 + p0 - line_h0, h1, line_h1 + h1 + s2 + p2 - p1))
        b0, b1 = p0, p1
    return CohTable(tuple(rows))


def cohomology(sheaf, i: int, t: int) -> int:
    """Exact h^i(F(t)), read from the degrees (``degree_table``)."""
    if i not in (0, 1, 2):
        raise ValueError("cohomology index must be 0, 1 or 2")
    row = degree_table(sheaf.degree_data, t, t).rows[0]
    return (row.h0, row.h1, row.h2)[i]


def coh_table(sheaf, tmin: int, tmax: int) -> CohTable:
    """Rows t = tmin..tmax of a plane or rank-one sheaf, read from the degrees."""
    return degree_table(sheaf.degree_data, tmin, tmax)


def chern(sheaf):
    """(c1, c2) of a rank-2 sheaf."""
    if isinstance(sheaf, SplitBundle) and sheaf.rank == 2:
        a, b = sheaf.twists
        return (a + b, a * b)
    if isinstance(sheaf, ExtensionBundle):
        return (sheaf.c, sheaf.k * (sheaf.c - sheaf.k) + sheaf.ci.degree)
    raise ValueError("chern data needs a rank-2 split bundle or extension bundle")


# ---------------------------------------------------------------------------
# Cayley-Bacharach


def cb_condition_check(c: int, k: int, ci: CISubscheme) -> bool:
    """Cayley-Bacharach for the pair (c, k): every colength-1 subscheme Z' of
    the collinear Z must satisfy h0(I_{Z'}(d)) = 0, d = c - 2k - 3.  A collinear
    Z' of degree m imposes min(d + 1, m) conditions on the (d + 1)(d + 2)/2 forms
    of degree d >= 0, so none is left exactly when d < 0, or d = 0 and Z' is not
    empty (deg Z >= 2)."""
    if not ci.is_collinear():
        raise ValueError("Cayley-Bacharach check needs a collinear subscheme")
    d = c - 2 * k - 3
    return d < 0 or (d == 0 and ci.degree >= 2)


# ---------------------------------------------------------------------------
# restriction to L and trivialization


@record
class Trivialization:
    """Splitting data for F|_L = O_L(c1) + O_L(c2) (c1 >= c2): ``rows[e]`` is
    a tuple of binary forms, one per presentation summand, expressing the
    projection onto the O_L(c_e) factor; zero forms mark impossible degrees."""

    degrees: tuple
    rows: tuple


def _hom_row_candidates(sheaf, e: int) -> list:
    """All rows (r_1, ..., r_n) of binary forms, deg r_i = e - a_i, with
    sum r_i * p_i = 0 for the restricted relation (p_i): the maps F|_L -> O_L(e),
    i.e. the degree-e syzygies of (p_i), one per vector of ``kernel_basis``."""
    pres = sheaf.line_presentation
    srcs = [basis(P1, e - a) for a in pres.target_twists]
    ker = kernel_basis(multiplication_matrix([pres.relation], srcs,
                                             [basis(P1, e - pres.relation_twist)]))
    # each coordinate, a row of the basis matrix, is a monomial of one piece
    parts = [[{} for _ in srcs] for _ in range(ker.cols)]
    coords = ((i, m) for i, src in enumerate(srcs) for m in src.basis)
    for (i, m), row in zip(coords, ker.data):
        for j, val in row.items():
            parts[j][i][m] = val
    return [tuple(Form.from_ints(2, p) for p in vec) for vec in parts]


def _syzygy_ratio(hi: tuple, lo: tuple, p: tuple) -> Fraction:
    """lambda when the 2x2 minors of (hi, lo), as the cross product hi x lo,
    are lambda * (p_i) for a constant lambda, else 0.  lambda is the ratio of
    the two coefficients at one exponent, each over its own den."""
    cross = tuple(hi[j] * lo[k] - hi[k] * lo[j] for j, k in ((1, 2), (2, 0), (0, 1)))
    i = next(i for i, f in enumerate(p) if not f.is_zero)
    exp, coef = p[i].terms[0]
    lam = Fraction(dict(cross[i].terms).get(exp, 0) * p[i].den, coef * cross[i].den)
    return lam if all(x == f * lam for x, f in zip(cross, p)) else Fraction(0)


def _is_syzygy_basis(hi: tuple, lo: tuple, p: tuple) -> bool:
    """hi x lo is one nonzero constant times (p_i): for (p_i) with no common zero,
    exactly when (hi, lo) is a basis of the module of syzygies (Hilbert-Burch)."""
    return _syzygy_ratio(hi, lo, p) != 0


def _koszul_rows(pres: Presentation):
    """((c1, c2), (hi, lo)) when exactly one form p_j of the restricted
    relation is zero, else None.  Its syzygies are then the unit row e_j, of
    degree a_j, and the Koszul row of the other two (p_l at k, -p_k at l, of
    degree a_k + deg p_l), coprime on L, times forms.  They are sorted by
    degree, and on a tie by the last summand they reach, the order of
    ``kernel_basis``."""
    p = pres.relation
    zeros = [j for j, f in enumerate(p) if f.is_zero]
    if len(zeros) != 1:
        return None
    (j,), (k, l) = zeros, [i for i in range(3) if i not in zeros]
    one, zero = Form.constant(2, 1), Form.zero(2)
    unit, koszul = [zero] * 3, [zero] * 3
    unit[j], koszul[k], koszul[l] = one, p[l], -p[k]
    a = pres.target_twists
    (c1, _, hi), (c2, _, lo) = sorted([(a[j], j, tuple(unit)),
                                       (a[k] + p[l].degree, l, tuple(koszul))],
                                      key=lambda r: (-r[0], r[1]))
    return (c1, c2), (hi, lo)


def _mu_basis_rows(sheaf) -> tuple:
    """((c1, c2), (hi, lo)) from a mu-basis of the syzygies of the restricted
    relation (p_i), which has no common zero on L (Cox-Sederberg-Chen 1998;
    Song-Goldman 2009).  At e = floor((deg - 1) / 2) < c1 there are
    e + 1 - c2 syzygies, or none when c1 = c2 = deg / 2; lo spans those of
    degree c2 (when c1 = c2 the two syzygies of degree c2 are the rows).  A
    syzygy of degree c1 > c2 is a * hi + f * lo, a constant, whose cross product
    with lo is a * lambda * (p_i): hi is the first with lambda != 0, times the
    denominator of lambda so that (hi, lambda) is a primitive int vector; with
    none, lo stands in for hi and ``_is_syzygy_basis`` refuses it."""
    pres = sheaf.line_presentation
    deg = sum(pres.target_twists) - pres.relation_twist
    e = (deg - 1) // 2
    rows = _hom_row_candidates(sheaf, e)
    c2 = e + 1 - len(rows) if rows else deg // 2
    c1 = deg - c2
    if c2 != e:
        rows = _hom_row_candidates(sheaf, c2)
    if c1 == c2:
        return (c1, c2), tuple(rows)
    for hi in _hom_row_candidates(sheaf, c1):
        lam = _syzygy_ratio(hi, rows[0], pres.relation)
        if lam:
            return (c1, c2), (tuple(f * lam.denominator for f in hi), rows[0])
    return (c1, c2), (rows[0], rows[0])


def trivialize_on_line(sheaf) -> Trivialization:
    """Explicit splitting F|_L = O_L(c1) + O_L(c2) for a rank-2 sheaf that is
    locally free along L; the normalized type is (c1 - c2, 0).  A split bundle
    O(c1) + O(c2) restricts to O_L(c1) + O_L(c2), split by its unit rows.

    Otherwise F|_L is the cokernel of the restricted relation
    (p_i): O_L(b) -> sum O_L(a_i), a bundle exactly when the p_i have no
    common zero.  Its dual is then the syzygy bundle of (p_i), O_L(-c1) + O_L(-c2)
    with c1 + c2 = deg = sum a_i - b, and its two generators (hi, lo) are the
    rows: in closed form when one p_j is zero (``_koszul_rows``: every
    collinear G, and every G whose h is a multiple of u), else from a mu-basis
    (``_mu_basis_rows``)."""
    if sheaf.rank != 2:
        raise ValueError("trivialization needs a rank-2 sheaf")
    if isinstance(sheaf, SplitBundle):
        one, zero = Form.constant(2, 1), Form.zero(2)
        return Trivialization(sheaf.twists, ((one, zero), (zero, one)))
    pres = sheaf.line_presentation
    if not sheaf.line_relation_coprime:
        raise ValueError("restriction to the line is not a vector bundle")
    (c1, c2), (hi, lo) = _koszul_rows(pres) or _mu_basis_rows(sheaf)
    if not _is_syzygy_basis(hi, lo, pres.relation):
        raise InternalCheckError("trivialization rows are not a basis of the syzygies on L")
    return Trivialization((c1, c2), (hi, lo))


# ---------------------------------------------------------------------------
# recovering Z from an extension bundle


def recover_subscheme(g: ExtensionBundle) -> CISubscheme:
    """Recover Z from G when c <= 2k: the unique section of G(-k) has a free
    cokernel presentation whose 2x2 minors generate Z's ideal."""
    if not isinstance(g, ExtensionBundle):
        raise ValueError("recovery needs an extension bundle")
    if g.c > 2 * g.k:
        raise ValueError("section not unique")
    pres = g.presentation
    t = -g.k
    dims = [cohomology_dim(P2, 0, a + t) for a in pres.target_twists]
    if sum(dims) != 1 or cohomology(g, 0, t) != 1:
        raise InternalCheckError("expected a one-dimensional space of sections at twist -k")
    section = tuple(Form.constant(3, 1) if d == 1 else Form.zero(3) for d in dims)
    minors = []
    for i, j in itertools.combinations(range(len(pres.relation)), 2):
        m = pres.relation[i] * section[j] - pres.relation[j] * section[i]
        if not m.is_zero:
            minors.append(m)
    if len(minors) != 2:
        raise InternalCheckError("expected exactly two nonzero recovery minors")
    return ci_from_forms(*minors)


def ideals_match(a: CISubscheme, b: CISubscheme, up_to: int) -> bool:
    """Equality of the graded pieces of the two ideals in all degrees <= up_to.
    A piece of degree d is spanned by multiples of the generators of degree <= d,
    so they agree iff each generator of degree <= up_to of either ideal lies in
    the other: iff at each such generator degree d the pieces A_d and B_d have
    rank(A_d) == rank(B_d) == rank([A_d | B_d])."""
    gens = (a.f1, a.f2, b.f1, b.f2)
    return all(rank(_ideal_piece_matrix(gens[:2], d)) == rank(_ideal_piece_matrix(gens[2:], d))
               == rank(_ideal_piece_matrix(gens, d))
               for d in sorted({f.degree for f in gens if f.degree <= up_to}))
