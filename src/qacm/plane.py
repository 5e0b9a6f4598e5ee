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

Cohomology of F(t) is read off the presentation: h0 is the cokernel
dimension at H0 level, h1 the kernel dimension of the relation at H2 level
(dual monomial bases), h2 the cokernel dimension at H2 level; h1 of plane
line bundles vanishes, which makes this exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .errors import InternalCheckError
from .linalg import QQ, RatMatrix, hstack, kernel_basis, kernel_dim, rank, vstack
from .monomials import (P1, P2, Form, GradedPiece, basis, binary_forms_common_zero_free,
                        cohomology_dim, dual_exponents, euler_char_p2,
                        monomial_multiplication_matrix, multiplication_matrix,
                        restrict_to_line as form_on_line)

U = Form.variable(3, "u")
V = Form.variable(3, "v")
W = Form.variable(3, "w")


# ---------------------------------------------------------------------------
# complete-intersection subschemes


@dataclass(frozen=True)
class CISubscheme:
    """Zero-dimensional Z = V(f1, f2) in the plane.  ``points`` optionally
    records ((v, w), multiplicity) data when Z lies on L = {u = 0} and was
    built from explicit points; several checks need it."""

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
        """Z is cut out by u and a binary form in (v, w)."""
        return (self.f1 == U and not any(e[0] for e, _ in self.f2.terms)) or \
               (self.f2 == U and not any(e[0] for e, _ in self.f1.terms))


def _ideal_piece_matrix(f1: Form, f2: Form, d: int) -> RatMatrix:
    """Columns spanning the degree-d piece of the ideal (f1, f2) inside the
    monomial coordinates of H0(P2, O(d))."""
    blocks = []
    for f in (f1, f2):
        if d - f.degree >= 0:
            blocks.append(multiplication_matrix(f, basis(P2, 0, d - f.degree)))
        else:
            blocks.append(RatMatrix.zero(cohomology_dim(P2, 0, d), 0))
    return hstack(*blocks)


def ci_from_forms(f1: Form, f2: Form, points=None) -> CISubscheme:
    """Validate that (f1, f2) is a regular sequence (Z zero-dimensional) by
    Hilbert-function stabilization and return the subscheme."""
    for f in (f1, f2):
        if f.is_zero or f.num_vars != 3 or f.degree < 1:
            raise ValueError("Z not zero-dimensional: generators must be nonconstant plane forms")
    d1, d2 = f1.degree, f2.degree
    for d in (d1 + d2 - 1, d1 + d2):
        expected = cohomology_dim(P2, 0, d) - d1 * d2
        if rank(_ideal_piece_matrix(f1, f2, d)) != expected:
            raise ValueError("Z not zero-dimensional")
    return CISubscheme(f1, f2, points)


def ci_from_line_points(pts) -> CISubscheme:
    """Collinear subscheme on L from ((v, w), multiplicity) pairs: the ideal
    (u, prod (w_i v - v_i w)^mu_i)."""
    pts = tuple(((Fraction(v), Fraction(w)), int(m)) for (v, w), m in pts)
    if not pts:
        raise ValueError("need at least one point")
    seen = set()
    for (v, w), m in pts:
        if (v, w) == (0, 0):
            raise ValueError("invalid point [0:0]")
        key = (v / w, 1) if w != 0 else (1, 0)
        if key in seen:
            raise ValueError("repeated point; use a multiplicity instead")
        seen.add(key)
        if m < 1:
            raise ValueError("multiplicity must be >= 1")
    g = Form.constant(2, 1)
    for (v, w), m in pts:
        lin = Form.from_dict(2, {(1, 0): w, (0, 1): -v})
        g = g * lin ** m
    g3 = Form.from_dict(3, {(0,) + e: c for e, c in g.terms})
    return CISubscheme(U, g3, pts)


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    target_twists: tuple        # twists a_i of the free cover
    relation_twist: object      # twist b of the single relation, or None
    relation: tuple             # column of plane forms, one per target summand

    @property
    def rank(self) -> int:
        return len(self.target_twists) - (0 if self.relation_twist is None else 1)

    def on_line(self) -> "Presentation":
        """The restriction to L: the same twists, the relation with u := 0."""
        return Presentation(self.target_twists, self.relation_twist,
                            tuple(form_on_line(f) for f in self.relation))


class _Presented:
    """A plane sheaf's presentation and its restriction to L, each built once
    per instance: the sheaves are frozen and a ``Presentation`` holds only
    frozen forms, so every caller can share them.  Equality and hashing stay
    those of the dataclass fields."""

    @cached_property
    def presentation(self) -> Presentation:
        return self._presentation()

    @cached_property
    def line_presentation(self) -> Presentation:
        return self.presentation.on_line()


@dataclass(frozen=True)
class SplitBundle(_Presented):
    side: int
    twists: tuple

    @property
    def rank(self) -> int:
        return len(self.twists)

    def _presentation(self) -> Presentation:
        return Presentation(self.twists, None, ())


@dataclass(frozen=True)
class CIIdealSheaf(_Presented):
    """I_Z(m) with Koszul presentation 0 -> O(m-d1-d2) -> O(m-d1)+O(m-d2)."""

    side: int
    ci: CISubscheme
    m: int

    @property
    def rank(self) -> int:
        return 1

    def _presentation(self) -> Presentation:
        d1, d2 = self.ci.degrees
        return Presentation((self.m - d1, self.m - d2), self.m - d1 - d2,
                            (-self.ci.f2, self.ci.f1))


@dataclass(frozen=True)
class ExtensionBundle(_Presented):
    """Rank-2 bundle from 0 -> O(k) -> G -> I_Z(c-k) -> 0 with extension
    class realized by the form h of degree 2k - c + d1 + d2."""

    side: int
    c: int
    k: int
    ci: CISubscheme
    h: Form

    @property
    def rank(self) -> int:
        return 2

    def _presentation(self) -> Presentation:
        c, k = self.c, self.k
        d1, d2 = self.ci.degrees
        return Presentation((c - k - d1, c - k - d2, k), c - k - d1 - d2,
                            (-self.ci.f2, self.ci.f1, self.h))


PlaneSheaf = (SplitBundle, CIIdealSheaf, ExtensionBundle)


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

    If one of the forms is ``u`` (a collinear Z = V(u, g) and its extension
    class), every common zero lies on L = {u = 0}, and a point [0 : v : w]
    is a common zero iff every restriction f|_L vanishes there.  The answer
    is then "the restrictions of the other forms have a constant gcd"; if
    they all restrict to zero the gcd is zero and the answer is False.

    Otherwise the test is a rank: three (or more) forms with empty zero locus
    contain a regular sequence, so the quotient vanishes in degree
    sum(deg) - 2; a common zero of two or more forms keeps every graded piece
    of the quotient positive from that degree on.  A single nonconstant form
    always has zeros.  Both routes are exact."""
    forms = list(forms)
    if U in forms:
        return binary_forms_common_zero_free([form_on_line(f) for f in forms if f != U])
    forms = [f for f in forms if not f.is_zero]
    if any(f.degree == 0 for f in forms):
        return True
    if len(forms) < 2:
        return False            # no form, or one curve
    d = sum(f.degree for f in forms) - 2
    blocks = [multiplication_matrix(f, basis(P2, 0, d - f.degree)) for f in forms]
    return rank(hstack(*blocks)) == cohomology_dim(P2, 0, d)


def _auto_extension_form(ci: CISubscheme, deg_h: int) -> Form:
    """Deterministic first h of degree deg_h with (f1, f2, h) common-zero
    free: support sizes 1..3 over the monomial basis in order, coefficients
    from (1, -1, 2, -2).  For Z = V(u, g) a support of monomials that all contain
    u is skipped: h|_L = 0 and gcd(g, 0) = g, so ``no_common_zero`` rejects it."""
    if deg_h == 0:
        return Form.constant(3, 1)
    mons = basis(P2, 0, deg_h).basis
    for support in range(1, 4):
        for pos in itertools.combinations(range(len(mons)), support):
            if all(mons[p][0] for p in pos) and U in (ci.f1, ci.f2):
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
        h = _auto_extension_form(ci, deg_h)
    if not isinstance(h, Form) or h.num_vars != 3:
        raise ValueError("h must be a plane form or 'auto'")
    if h.is_zero or h.degree != deg_h:
        raise ValueError(f"h must be a nonzero form of degree {deg_h}")
    if not no_common_zero([ci.f1, ci.f2, h]):
        raise ValueError("extension not locally free (Cayley-Bacharach violated by h)")
    return ExtensionBundle(side, c, k, ci, h)


# ---------------------------------------------------------------------------
# cohomology from the presentation


def _mult_block(f: Form, piece: GradedPiece, d_to: int) -> RatMatrix:
    """multiplication_matrix with an explicit target degree, so zero entries
    of a presentation column still produce correctly shaped blocks."""
    if f.is_zero or piece.d + (f.degree or 0) != d_to:
        if not f.is_zero:
            raise ValueError("degree bookkeeping error in presentation")
        return RatMatrix.zero(cohomology_dim(piece.space, piece.i, d_to), piece.dim)
    return multiplication_matrix(f, piece)


def _relation_matrix(space: str, i: int, pres: Presentation, t: int) -> RatMatrix:
    """H^i-level matrix of the relation of ``pres``: H^i(O(b+t)) -> sum H^i(O(a+t))."""
    if pres.relation_twist is None:
        return RatMatrix.zero(sum(cohomology_dim(space, i, a + t) for a in pres.target_twists), 0)
    src = basis(space, i, pres.relation_twist + t)
    return vstack(*[_mult_block(f, src, a + t) for f, a in zip(pres.relation, pres.target_twists)])


def relation_h0_matrix(sheaf, t: int) -> RatMatrix:
    """H0-level matrix of the relation at twist t: H0(O(b+t)) -> sum H0(O(a_i+t))."""
    return _relation_matrix(P2, 0, sheaf.presentation, t)


def relation_h2_matrix(sheaf, t: int) -> RatMatrix:
    """H2-level (dual monomial) matrix of the relation at twist t."""
    return _relation_matrix(P2, 2, sheaf.presentation, t)


def dual_prefix(d: int, depth) -> tuple:
    """The dual monomials of H2(O(d)) of u-exponent -1, ..., -depth, which
    reverse-lex order lists first, in basis order; None means all of them."""
    if depth is None:
        return dual_exponents(3, d)
    return tuple((-j,) + e for j in range(1, depth + 1) for e in dual_exponents(2, d + j))


def relation_h2_prefix_matrix(pres: Presentation, t: int, src: tuple, depth) -> RatMatrix:
    """The H2-level relation at twist t on the dual monomials ``src`` of degree
    b + t, into the depth prefix of each target summand, which holds every product."""
    return vstack(*[monomial_multiplication_matrix(f, src, dual_prefix(a + t, depth), True)
                    for f, a in zip(pres.relation, pres.target_twists)])


@lru_cache(maxsize=4)
def relation_h2_kernel(sheaf, t: int) -> tuple:
    """``(depth, kernel)``: the kernel of ``relation_h2_matrix(sheaf, t)``,
    whose vectors vanish off ``dual_prefix(b + t, depth)``, by rows on that prefix;
    computed once per (sheaf, t) for h1, h2 and both h1 routes of a kernel
    sheaf.  depth is None (the whole basis) unless a relation form is c*u:

    * Exact.  If form i is c*u, a dual monomial (a, v, w) with a <= -2 maps
      to c*(a+1, v, w) in summand i, a row no other monomial reaches; the
      singleton row makes the column a pivot, zero in every kernel vector.  On
      the u-exponent -1 columns each form acts by its restriction to L (u
      contracts them to zero) into u-exponent -1 rows: the block is the
      H1-level relation on L at t + 1, i.e. 0 -> F(-1) -> F -> F|_L -> 0.
    * Bit-identical.  The reduced-echelon basis of ``kernel_basis`` depends
      only on the pivot columns, j being one when it is no combination of
      the columns before it.  The columns before a prefix column lie in the
      prefix, so it is a pivot of the block exactly when it is one of the
      whole matrix, and every later column is a pivot.  The block kernel,
      padded with zeros, is the whole kernel vector for vector.
    """
    if any([e for e, _ in f.terms] == [(1, 0, 0)] for f in sheaf.presentation.relation):
        return 1, kernel_basis(_line_relation_matrix(sheaf, t + 1, 1))
    return None, kernel_basis(relation_h2_matrix(sheaf, t))


def euler_char(sheaf, t: int) -> int:
    pres = sheaf.presentation
    chi = sum(euler_char_p2(a + t) for a in pres.target_twists)
    if pres.relation_twist is not None:
        chi -= euler_char_p2(pres.relation_twist + t)
    return chi


def cohomology(sheaf, i: int, t: int) -> int:
    """Exact h^i(F(t)) for a presented plane sheaf."""
    if i not in (0, 1, 2):
        raise ValueError("cohomology index must be 0, 1 or 2")
    pres = sheaf.presentation
    if isinstance(sheaf, SplitBundle):
        return sum(cohomology_dim(P2, i, a + t) for a in sheaf.twists)
    if i == 0:
        total = sum(cohomology_dim(P2, 0, a + t) for a in pres.target_twists)
        return total - rank(relation_h0_matrix(sheaf, t))
    _, ker = relation_h2_kernel(sheaf, t)
    if i == 1:
        h1 = ker.dim
        if isinstance(sheaf, CIIdealSheaf) and sheaf.ci.is_collinear():
            d = sheaf.m + t
            if d >= -1 and h1 != max(0, sheaf.ci.degree - d - 1):
                raise InternalCheckError("collinear ideal-sheaf h1 disagrees with its closed form")
        return h1
    total = sum(cohomology_dim(P2, 2, a + t) for a in pres.target_twists)
    return total - (cohomology_dim(P2, 2, pres.relation_twist + t) - ker.dim)


@dataclass(frozen=True)
class CohRow:
    t: int
    h0: int
    h1: int
    h2: int

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2


@dataclass(frozen=True)
class CohTable:
    rows: tuple

    def as_dicts(self):
        return [dict(t=r.t, h0=r.h0, h1=r.h1, h2=r.h2, chi=r.chi) for r in self.rows]


def coh_table(sheaf, tmin: int, tmax: int) -> CohTable:
    rows = []
    for t in range(tmin, tmax + 1):
        h0, h1, h2 = (cohomology(sheaf, i, t) for i in (0, 1, 2))
        row = CohRow(t, h0, h1, h2)
        if row.chi != euler_char(sheaf, t):
            raise InternalCheckError("chi mismatch between table and presentation")
        rows.append(row)
    return CohTable(tuple(rows))


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


def _point_condition_rows(point, mult: int, d: int):
    """Linear conditions on H0(P2, O(d)) for vanishing to the given order at
    the point [0 : v0 : w0] of L, via derivatives of the restriction to L."""
    (v0, w0) = point
    rows = []
    mons = basis(P2, 0, d).basis
    for j in range(mult):
        row = {}
        for col, (a, b, c) in enumerate(mons):
            if a != 0:
                continue
            if w0 != 0:
                # d^j/dv^j of v^b w0^c at v = v0
                if b >= j:
                    coef = 1
                    for s in range(j):
                        coef *= (b - s)
                    row[col] = coef * v0 ** (b - j) * w0 ** c
            elif c == j:
                # point [0:1:0]: the condition is on the w^j coefficient
                coef = 1
                for s in range(j):
                    coef *= (c - s)
                row[col] = coef * v0 ** b
        rows.append(row)
    return rows


def h0_ideal_of_points(points, d: int) -> int:
    """h0 of the ideal sheaf of a collinear subscheme given by point data,
    computed by vanishing conditions (not by a Koszul presentation)."""
    if d < 0:
        return 0
    rows = []
    for point, mult in points:
        rows.extend(_point_condition_rows(point, mult, d))
    n = cohomology_dim(P2, 0, d)
    return n - rank(RatMatrix.from_dicts(len(rows), n, rows))


def cb_condition_check(c: int, k: int, ci: CISubscheme) -> bool:
    """Cayley-Bacharach for the pair (c, k): every colength-1 subscheme Z' of
    the collinear Z must satisfy h0(I_{Z'}(c - 2k - 3)) = 0."""
    if not ci.is_collinear():
        raise ValueError("Cayley-Bacharach check needs a collinear subscheme")
    d = c - 2 * k - 3
    if d < 0:
        return True
    if ci.points is None:
        raise ValueError("explicit point data required for a nonnegative twist")
    for drop in range(len(ci.points)):
        sub = []
        for idx, (pt, mult) in enumerate(ci.points):
            m = mult - 1 if idx == drop else mult
            if m > 0:
                sub.append((pt, m))
        if h0_ideal_of_points(sub, d) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# restriction to L and trivialization


@dataclass(frozen=True)
class Trivialization:
    """Splitting data for F|_L = O_L(c1) + O_L(c2) (c1 >= c2): ``rows[e]`` is
    a tuple of binary forms, one per presentation summand, expressing the
    projection onto the O_L(c_e) factor; zero forms mark impossible degrees."""

    degrees: tuple
    rows: tuple

    @property
    def c(self) -> int:
        return self.degrees[0] - self.degrees[-1]


def _line_relation_matrix(sheaf, t: int, i: int) -> RatMatrix:
    """H^i-level (i = 0 or 1) matrix of the restricted relation on L."""
    return _relation_matrix(P1, i, sheaf.line_presentation, t)


def line_h0_dim(sheaf, t: int) -> int:
    """h0(F|_L(t)) from the restricted presentation (hypercohomology on P1)."""
    pres = sheaf.line_presentation
    total = sum(cohomology_dim(P1, 0, a + t) for a in pres.target_twists)
    if pres.relation_twist is None:
        return total
    return total - rank(_line_relation_matrix(sheaf, t, 0)) + kernel_dim(_line_relation_matrix(sheaf, t, 1))


def _splitting_degrees(sheaf) -> tuple:
    """Splitting type of F|_L by successive differences of h0(F|_L(s)) over
    start = -(deg - min a_i) - 1 < s <= -min a_i.  F|_L = O_L(c1) + O_L(c2) (c1 >= c2)
    is a quotient of sum O_L(a_i), so c2 >= min a_i, c1 <= deg - min a_i and h0 is 0
    at the start; torsion along L has sections at every twist and is refused there."""
    pres = sheaf.line_presentation
    targets, b = pres.target_twists, pres.relation_twist
    r = sheaf.rank
    deg = sum(targets) - (b if b is not None else 0)
    start = -(deg - min(targets)) - 1
    degrees = []
    prev = line_h0_dim(sheaf, start)
    if prev != 0:
        raise ValueError("restriction to the line is not a vector bundle")
    threshold = 1
    for s in range(start + 1, 1 - min(targets)):
        cur = line_h0_dim(sheaf, s)
        delta = cur - prev
        while delta >= threshold and len(degrees) < r:
            degrees.append(-s)
            threshold += 1
        prev = cur
        if len(degrees) == r:
            break
    if len(degrees) != r or sum(degrees) != deg:
        raise ValueError("restriction to the line has torsion (not locally free along L)")
    return tuple(degrees)


def _hom_row_candidates(sheaf, e: int):
    """All rows (r_1, ..., r_n) of binary forms, deg r_i = e - a_i, with
    sum r_i * rel_i = 0: the sheaf maps F|_L -> O_L(e).  Returned in the
    deterministic order produced by kernel extraction."""
    pres = sheaf.line_presentation
    targets, b, rel = pres.target_twists, pres.relation_twist, pres.relation
    col_meta = []
    for i, a in enumerate(targets):
        for m in basis(P1, 0, e - a).basis:
            col_meta.append((i, m))
    if b is None:
        vectors = [{j: 1} for j in range(len(col_meta))]
    else:
        ker = kernel_basis(hstack(*[_mult_block(f, basis(P1, 0, e - a), e - b)
                                    for f, a in zip(rel, targets)]))
        vectors = ker.basis.transpose().data
    out = []
    for vec in vectors:
        parts = [dict() for _ in targets]
        for k, val in vec.items():
            i, m = col_meta[k]
            parts[i][m] = val
        out.append(tuple(Form.from_dict(2, p) if p else Form.zero(2) for p in parts))
    return out


def _rows_surjective(r, s) -> bool:
    """The combined map sum O(a_i) -> O(e_1) + O(e_2) given by the two rows
    is onto as a sheaf map iff its 2x2 minors have no common zero on L."""
    return binary_forms_common_zero_free([r[i] * s[j] - r[j] * s[i]
                                          for i, j in itertools.combinations(range(len(r)), 2)])


def trivialize_on_line(sheaf) -> Trivialization:
    """Explicit splitting F|_L = O_L(c1) + O_L(c2) for a rank-2 sheaf that is
    locally free along L; the normalized type is (c1 - c2, 0)."""
    if sheaf.rank != 2:
        raise ValueError("trivialization needs a rank-2 sheaf")
    if isinstance(sheaf, CIIdealSheaf):
        raise ValueError("not a simple-type restriction")
    c1, c2 = _splitting_degrees(sheaf)
    lo_candidates = _hom_row_candidates(sheaf, c2)
    hi_candidates = _hom_row_candidates(sheaf, c1)
    chosen = None
    if c1 > c2:
        if len(lo_candidates) != 1:
            raise InternalCheckError("expected a unique projection to the low factor")
        lo = lo_candidates[0]
        for hi in hi_candidates:
            if _rows_surjective(hi, lo):
                chosen = (hi, lo)
                break
    else:
        for hi, lo in itertools.combinations(hi_candidates, 2):
            if _rows_surjective(hi, lo):
                chosen = (hi, lo)
                break
    if chosen is None:
        raise ValueError("not a simple-type restriction")
    triv = Trivialization((c1, c2), chosen)
    for t in range(-c1 - 4, 5):
        model = cohomology_dim(P1, 0, c1 + t) + cohomology_dim(P1, 0, c2 + t)
        if model != line_h0_dim(sheaf, t):
            raise InternalCheckError("trivialized model disagrees with presentation dimensions")
    return triv


def h1_restriction_kernel_dim(sheaf, t: int) -> int:
    """dim ker(H1(F(t)) -> H1(F|_L(t))) = dim of the image of multiplication
    by u: H1(F(t-1)) -> H1(F(t)), on the H2-level kernel and its prefixes."""
    b = sheaf.presentation.relation_twist
    if b is None:
        return 0
    depth, ker = relation_h2_kernel(sheaf, t - 1)
    if ker.dim == 0:
        return 0
    u_mult = monomial_multiplication_matrix(U, dual_prefix(b + t - 1, depth),
                                            dual_prefix(b + t, depth), True)
    return rank(u_mult @ ker.basis)


# ---------------------------------------------------------------------------
# recovering Z from an extension bundle


def _normalize_form(f: Form) -> Form:
    """Scale to primitive integer coefficients with positive leading term."""
    if f.is_zero:
        return f
    den = 1
    for _, c in f.terms:
        den = den * c.denominator // gcd(den, c.denominator)
    nums = [int(c * den) for _, c in f.terms]
    g = 0
    for x in nums:
        g = gcd(g, x)
    lead = f.terms[0][1]
    scale = QQ(den, g if g else 1)
    if lead < 0:
        scale = -scale
    return f * scale


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
            minors.append(_normalize_form(m))
    if len(minors) != 2:
        raise InternalCheckError("expected exactly two nonzero recovery minors")
    minors.sort(key=lambda f: f.degree)
    return ci_from_forms(minors[0], minors[1])


def ideals_match(a: CISubscheme, b: CISubscheme, up_to: int) -> bool:
    """Equality of the graded pieces of the two ideals in all degrees <= up_to."""
    for d in range(0, up_to + 1):
        ma, mb = _ideal_piece_matrix(a.f1, a.f2, d), _ideal_piece_matrix(b.f1, b.f2, d)
        ra, rb = rank(ma), rank(mb)
        if ra != rb or rank(hstack(ma, mb)) != ra:
            return False
    return True
